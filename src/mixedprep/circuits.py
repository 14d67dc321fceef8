"""Gate and circuit data types.

A circuit is a flat, ordered list of gates acting on ``num_qubits`` wires.
Qubit 0 is the most significant bit of a basis-state index.  Gates are
plain frozen dataclasses so circuits can be compared, hashed into tests,
and serialized without ceremony.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Union

import numpy as np

from .errors import (IndexOutOfRangeError, NotUnitaryError, OutOfRangeError, _as_complex,
                     _is_finite_real, _is_int, _qubit_tuple, _require_tol, _shown)
from .linalg import DEFAULT_TOL, is_unitary

__all__ = ["Circuit", "Cnot", "Gate", "MultiControlledRy", "Ry", "UnitaryBlock", "gate_qubits",
           "validate_circuit"]


@dataclass(frozen=True)
class Ry:
    """Real rotation about Y: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""

    target: int
    theta: float


@dataclass(frozen=True)
class Cnot:
    """Flip ``target`` when ``control`` is 1."""

    control: int
    target: int


@dataclass(frozen=True)
class MultiControlledRy:
    """Apply Ry(theta) to ``target`` when every control qubit matches its bit.

    ``controls`` is a tuple of ``(qubit, bit)`` pairs; ``bit`` is 0 or 1, so
    both closed and open controls are expressible.
    """

    controls: tuple[tuple[int, int], ...]
    target: int
    theta: float


class UnitaryBlock:
    """An arbitrary unitary applied to an ordered tuple of qubits.

    ``qubits[0]`` is the most significant bit of the block's own index
    space.  The qubits are kept as given, so ``validate_circuit`` sees a
    non-integer one.  Equality compares qubits and the matrix entries exactly.
    """

    __slots__ = ("qubits", "matrix")

    def __init__(self, qubits, matrix):
        self.qubits = _qubit_tuple(qubits, IndexOutOfRangeError, "unitary block qubits")
        self.matrix = _as_complex(matrix, IndexOutOfRangeError)
        _require_block_matrix(self.qubits, self.matrix)

    def __eq__(self, other):
        if not isinstance(other, UnitaryBlock):
            return NotImplemented
        return self.qubits == other.qubits and np.array_equal(self.matrix, other.matrix)

    def __repr__(self):
        m = self.matrix  # a replaced matrix need not be an array: show its type
        if isinstance(m, np.ndarray) and m.ndim == 2:
            return f"UnitaryBlock(qubits={self.qubits}, dim={m.shape[0]})"
        return f"UnitaryBlock(qubits={self.qubits}, matrix={type(m).__name__})"


def _require_block_matrix(qubits: tuple, matrix) -> None:
    """Raise unless ``matrix`` is what the constructor makes of a block on ``qubits``:
    a complex ndarray of shape (2**k, 2**k), k = ``len(qubits)``."""
    dim = 2 ** len(qubits)
    if not isinstance(matrix, np.ndarray):
        got = f"a {type(matrix).__name__}"
    elif matrix.dtype != complex:
        got = f"a {matrix.dtype} array"
    elif matrix.shape != (dim, dim):
        got = matrix.shape
    else:
        return
    raise IndexOutOfRangeError(
        f"unitary block on {len(qubits)} qubits needs a {dim}x{dim} matrix, got {got}")


Gate = Union[Ry, Cnot, MultiControlledRy, UnitaryBlock]


@dataclass
class Circuit:
    num_qubits: int
    gates: list = field(default_factory=list)
    label: str = ""

    def __len__(self):
        return len(self.gates)


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    """The qubits a gate touches, controls first; unreadable wires raise IndexOutOfRangeError.

    A ``MultiControlledRy`` whose ``controls`` is not a tuple is unreadable, so
    a one-shot iterator is refused before it is read, not consumed, and so
    is a ``UnitaryBlock`` whose ``qubits`` has been replaced by anything but
    a tuple.
    """
    if isinstance(gate, Ry):
        return (gate.target,)
    if isinstance(gate, Cnot):
        return (gate.control, gate.target)
    if isinstance(gate, MultiControlledRy):
        try:
            if not isinstance(gate.controls, tuple):
                raise TypeError
            return tuple(q for q, _ in gate.controls) + (gate.target,)
        except (TypeError, ValueError) as exc:
            raise IndexOutOfRangeError(
                f"MultiControlledRy has unreadable wires: controls {_shown(gate.controls)} "
                f"are not a tuple of (qubit, bit) pairs") from exc
    if isinstance(gate, UnitaryBlock):
        if not isinstance(gate.qubits, tuple):
            raise IndexOutOfRangeError(
                f"UnitaryBlock has unreadable wires: qubits {_shown(gate.qubits)} are not a tuple")
        return gate.qubits
    raise IndexOutOfRangeError(f"{type(gate).__name__} has unreadable wires: not a gate type")


def validate_circuit(circuit: Circuit, tol: float = DEFAULT_TOL) -> None:
    """Check the gates (:func:`_require_gates`), then that every matrix block is unitary.

    ``tol``, a finite real >= 0 (``OutOfRangeError``), bounds the Gram's deviation.
    """
    _require_tol(tol)
    _require_gates(circuit)
    for pos, gate in enumerate(circuit.gates):
        if isinstance(gate, UnitaryBlock) and not is_unitary(gate.matrix, tol):
            raise NotUnitaryError(f"gate {pos} matrix block is not unitary within tol={tol:g}")


def _require_gates(circuit: Circuit) -> None:
    """Check every gate of ``circuit``, not the blocks' Gram; the circuit files check with it.

    The qubit count, every wire and every control bit must be integers (a
    ``bool`` is not one); anything else is an :class:`IndexOutOfRangeError`,
    as is a gate whose wires cannot be read (see :func:`gate_qubits`), and so
    is anything but a :class:`Circuit`, or one whose ``gates`` is not a
    ``list``: an iterator would be consumed here and leave nothing to run.
    An angle must be a finite real, which a ``bool`` is not (``OutOfRangeError``).
    A block's matrix must be what its constructor makes, a complex array of
    shape (2**k, 2**k) for its k qubits, even after either field is replaced.

    Each gate first meets one cheap test, picked by its exact type, that
    accepts only a gate of plain ``int``, ``float`` and ``tuple`` fields
    passing every check (:data:`_ACCEPTS`): the gates compile builds.  Only
    a gate it does not accept runs :func:`_require_gate`, which decides it
    and names its first fault.
    """
    if not isinstance(circuit, Circuit):
        raise IndexOutOfRangeError(f"expected a Circuit, got {type(circuit).__name__}")
    n = circuit.num_qubits
    if not _is_int(n) or n < 1:
        raise IndexOutOfRangeError(f"num_qubits must be an integer >= 1, got {_shown(n)}")
    if not isinstance(circuit.gates, list):
        raise IndexOutOfRangeError(f"gates must be a list, got {type(circuit.gates).__name__}")
    for pos, gate in enumerate(circuit.gates):
        accepts = _ACCEPTS.get(type(gate))
        if accepts is None or not accepts(gate, n):
            _require_gate(pos, gate, n)


def _require_gate(pos: int, gate, n: int) -> None:
    """Raise the first fault of gate ``pos`` on ``n`` wires, as :func:`_require_gates` names it."""
    qs = gate_qubits(gate)
    for q in qs:
        if not (_is_int(q) and 0 <= q < n):
            raise IndexOutOfRangeError(
                f"gate {pos} ({type(gate).__name__}) touches qubit {_shown(q)}, "
                f"not an integer in 0..{n - 1}"
            )
    if len(set(qs)) != len(qs):
        raise IndexOutOfRangeError(f"gate {pos} ({type(gate).__name__}) reuses a qubit: {qs}")
    if isinstance(gate, MultiControlledRy):
        for q, b in gate.controls:
            if not (_is_int(b) and b in (0, 1)):
                raise IndexOutOfRangeError(
                    f"gate {pos} control on qubit {q} has bit {_shown(b)}, expected 0 or 1")
    if isinstance(gate, (Ry, MultiControlledRy)) and not _is_finite_real(gate.theta):
        raise OutOfRangeError(
            f"gate {pos} angle {_shown(gate.theta)} is not finite or not a real number")
    if isinstance(gate, UnitaryBlock):
        _require_block_matrix(qs, gate.matrix)


# The cheap tests of _require_gates, one per exact gate type.  Each returns
# True only for a gate every check of _require_gate passes, and False for
# anything it does not read as plain: a False sends the gate to those checks.

def _accepts_ry(gate, n: int) -> bool:
    target, theta = gate.target, gate.theta
    return type(target) is int and 0 <= target < n and type(theta) is float and isfinite(theta)


def _accepts_cnot(gate, n: int) -> bool:
    control, target = gate.control, gate.target
    return (type(control) is int and type(target) is int and 0 <= control < n
            and 0 <= target < n and control != target)


def _accepts_mcry(gate, n: int) -> bool:
    """Controls on ascending qubits below the target, as compile builds them."""
    controls = gate.controls
    if not (_accepts_ry(gate, n) and type(controls) is tuple):
        return False
    below = -1
    for pair in controls:
        if type(pair) is not tuple or len(pair) != 2:
            return False
        q, b = pair
        if not (type(q) is int and below < q and type(b) is int and b in (0, 1)):
            return False
        below = q
    return below < gate.target


def _accepts_block(gate, n: int) -> bool:
    qubits, matrix = gate.qubits, gate.matrix
    return (type(qubits) is tuple and all(type(q) is int and 0 <= q < n for q in qubits)
            and len(set(qubits)) == len(qubits) and type(matrix) is np.ndarray
            and matrix.dtype == complex and matrix.shape == (2 ** len(qubits),) * 2)


_ACCEPTS = {Ry: _accepts_ry, Cnot: _accepts_cnot, MultiControlledRy: _accepts_mcry,
            UnitaryBlock: _accepts_block}
