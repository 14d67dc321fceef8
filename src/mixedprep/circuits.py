"""Gate and circuit data types.

A circuit is a flat, ordered list of gates acting on ``num_qubits`` wires.
Qubit 0 is the most significant bit of a basis-state index.  Gates are
plain frozen dataclasses so circuits can be compared, hashed into tests,
and serialized without ceremony.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (IndexOutOfRangeError, NotUnitaryError, OutOfRangeError, _as_complex,
                     _is_finite_real, _is_int, _qubit_tuple, _require_tol, _shown)
from .linalg import DEFAULT_TOL, is_unitary


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
        dim = 2 ** len(self.qubits)
        if self.matrix.shape != (dim, dim):
            raise IndexOutOfRangeError(
                f"unitary block on {len(self.qubits)} qubits needs a {dim}x{dim} "
                f"matrix, got {self.matrix.shape}"
            )

    def __eq__(self, other):
        if not isinstance(other, UnitaryBlock):
            return NotImplemented
        return self.qubits == other.qubits and np.array_equal(self.matrix, other.matrix)

    def __repr__(self):
        return f"UnitaryBlock(qubits={self.qubits}, dim={self.matrix.shape[0]})"


Gate = Union[Ry, Cnot, MultiControlledRy, UnitaryBlock]


@dataclass
class Circuit:
    num_qubits: int
    gates: list = field(default_factory=list)
    label: str = ""

    def __len__(self):
        return len(self.gates)


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    """The qubits a gate touches, controls first; unreadable wires raise IndexOutOfRangeError."""
    if isinstance(gate, Ry):
        return (gate.target,)
    if isinstance(gate, Cnot):
        return (gate.control, gate.target)
    if isinstance(gate, MultiControlledRy):
        try:
            return tuple(q for q, _ in gate.controls) + (gate.target,)
        except (TypeError, ValueError) as exc:
            raise IndexOutOfRangeError(
                f"MultiControlledRy has unreadable wires: controls {_shown(gate.controls)} "
                f"are not (qubit, bit) pairs") from exc
    if isinstance(gate, UnitaryBlock):
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
    is anything but a :class:`Circuit`.  An angle must be a finite real and
    not a ``bool`` (``OutOfRangeError``).
    """
    if not isinstance(circuit, Circuit):
        raise IndexOutOfRangeError(f"expected a Circuit, got {type(circuit).__name__}")
    n = circuit.num_qubits
    if not _is_int(n) or n < 1:
        raise IndexOutOfRangeError(f"num_qubits must be an integer >= 1, got {_shown(n)}")
    for pos, gate in enumerate(circuit.gates):
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
        if isinstance(gate, (Ry, MultiControlledRy)) and (
                isinstance(gate.theta, bool) or not _is_finite_real(gate.theta)):
            raise OutOfRangeError(
                f"gate {pos} angle {_shown(gate.theta)} is not finite or not a real number")
