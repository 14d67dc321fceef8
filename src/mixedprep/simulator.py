"""Exact statevector simulator.

States are plain 1-d complex numpy arrays of length 2**n, indexed with
qubit 0 as the most significant bit.  ``run`` allocates |0...0> once and
every gate updates that buffer in place through its (2,)*n view; a gate
with k controls touches only the 2**(n-k) amplitudes it changes, so the
2**m - 1 loader rotations of a 2m-qubit purification circuit cost
O(m * 4**m) in all.  The public functions never mutate their input:
``apply_gate`` and ``sample_pauli`` work on one copy.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuits import Circuit, Cnot, Gate, MultiControlledRy, UnitaryBlock, validate_circuit
from .errors import BadLabelError, IndexOutOfRangeError, OutOfRangeError
from .linalg import DEFAULT_TOL

MAX_QUBITS = 24

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
# Rotates the Y eigenbasis onto the Z basis: (H @ Sdg) Y (H @ Sdg)^dagger = Z.
_Y_TO_Z = _H @ np.diag([1.0, -1.0j])


@dataclass
class ShotResult:
    """Z-basis measurement record: bitstring -> count, plus the RNG seed used."""

    counts: dict
    shots: int
    seed: int


def zero_state(num_qubits: int) -> np.ndarray:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise OutOfRangeError(
            f"num_qubits {num_qubits} outside supported range 1..{MAX_QUBITS}"
        )
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


def num_qubits_of(state: np.ndarray) -> int:
    dim = state.shape[0]
    n = int(dim).bit_length() - 1
    if dim < 2 or 2 ** n != dim:
        raise IndexOutOfRangeError(f"statevector length {dim} is not a power of two >= 2")
    return n


def apply_gate(state: np.ndarray, gate: Gate, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return gate(state) as a new array; the input is left untouched."""
    state = np.array(state, dtype=complex)
    n = num_qubits_of(state)
    validate_circuit(Circuit(n, [gate]), tol)
    _apply(state.reshape((2,) * n), gate)
    return state.reshape(-1)


def _apply(ten: np.ndarray, gate: Gate) -> None:
    """Apply a gate already checked against the register to the (2,)*n ``ten`` in place."""
    if isinstance(gate, UnitaryBlock):
        _apply_block(ten, gate.qubits, gate.matrix)
    elif isinstance(gate, Cnot):
        a0, a1 = _pair(ten, gate.target, ((gate.control, 1),))
        a0[...], a1[...] = a1.copy(), a0.copy()
    else:
        controls = gate.controls if isinstance(gate, MultiControlledRy) else ()
        a0, a1 = _pair(ten, gate.target, controls)
        c, s = math.cos(gate.theta / 2.0), math.sin(gate.theta / 2.0)
        a0[...], a1[...] = c * a0 - s * a1, s * a0 + c * a1


def _pair(ten: np.ndarray, target: int, controls) -> tuple:
    """Views of the amplitudes with every control fixed and ``target`` = 0, 1."""
    idx = [slice(None)] * ten.ndim + [Ellipsis]  # still a view when every axis is fixed
    for q, b in controls:
        idx[q] = b
    idx[target] = 0
    a0 = ten[tuple(idx)]
    idx[target] = 1
    return a0, ten[tuple(idx)]


def _apply_block(ten: np.ndarray, qubits, matrix) -> None:
    """Apply ``matrix`` to ``qubits`` (the first is its most significant bit) in place."""
    k = len(qubits)
    view = np.moveaxis(ten, qubits, range(k))
    view[...] = (matrix @ view.reshape(2 ** k, -1)).reshape(view.shape)


def run(circuit: Circuit, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply the circuit's gates in order to |0...0>, all in one buffer."""
    validate_circuit(circuit, tol)
    state = zero_state(circuit.num_qubits)
    ten = state.reshape((2,) * circuit.num_qubits)
    for gate in circuit.gates:
        _apply(ten, gate)
    return state


def reduced_density(state: np.ndarray, keep) -> np.ndarray:
    """Density matrix of the kept qubits (ascending order), from amplitudes.

    Never materializes the full outer product: the statevector is viewed
    as (kept, dropped) and contracted against its own conjugate.
    """
    state = np.asarray(state, dtype=complex)
    n = num_qubits_of(state)
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise IndexOutOfRangeError("keep must name at least one qubit")
    if kept[0] < 0 or kept[-1] >= n:
        raise IndexOutOfRangeError(f"keep indices {kept} out of range for {n} qubits")
    m = np.moveaxis(state.reshape((2,) * n), kept, range(len(kept))).reshape(2 ** len(kept), -1)
    return m @ m.conj().T


def sample_pauli(state: np.ndarray, pauli_string: str, shots: int, seed: int):
    """Measure a Pauli string with finite shots.

    Returns ``(ShotResult, estimate)``.  Each qubit is rotated so its label's
    eigenbasis becomes the Z basis, the full register is sampled from the
    resulting Z-basis distribution, and the estimate is the shot-weighted
    parity over the non-identity positions.
    """
    rotated = np.array(state, dtype=complex)
    n = num_qubits_of(rotated)
    label = pauli_string.upper()
    if len(label) != n or any(ch not in "IXYZ" for ch in label):
        raise BadLabelError(
            f"pauli string {pauli_string!r} is not {n} characters over I, X, Y, Z"
        )
    if not isinstance(shots, numbers.Integral) or shots < 1:
        raise OutOfRangeError(f"shots must be an integer >= 1, got {shots!r}")

    ten = rotated.reshape((2,) * n)
    for q, ch in enumerate(label):
        if ch in "XY":
            _apply_block(ten, (q,), _H if ch == "X" else _Y_TO_Z)

    probs = np.abs(rotated) ** 2
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    hist = rng.multinomial(shots, probs)

    mask = 0
    for q, ch in enumerate(label):
        if ch != "I":
            mask |= 1 << (n - 1 - q)
    total = 0
    for idx in np.flatnonzero(hist):
        sign = -1 if (int(idx) & mask).bit_count() & 1 else 1
        total += sign * int(hist[idx])
    counts = {format(int(i), f"0{n}b"): int(hist[i]) for i in np.flatnonzero(hist)}
    return ShotResult(counts=counts, shots=shots, seed=seed), total / shots


def sample_pauli_expectations(state: np.ndarray, qubits, shots: int, seed: int) -> dict:
    """Shot-based estimates of every Pauli string over ``qubits``.

    Labels in the result run over the given qubits in order; all other
    qubits are measured as identity.  String number i uses seed ``seed + i``
    so individual estimates are reproducible in isolation.  The all-identity
    string is pinned to exactly 1.0 without sampling.
    """
    state = np.asarray(state, dtype=complex)
    n = num_qubits_of(state)
    qubits = tuple(int(q) for q in qubits)
    if not qubits or len(set(qubits)) != len(qubits) or not all(0 <= q < n for q in qubits):
        raise IndexOutOfRangeError(
            f"qubits {qubits} must be distinct indices in 0..{n - 1}, at least one"
        )
    out = {}
    for i, combo in enumerate(product("IXYZ", repeat=len(qubits))):
        label = "".join(combo)
        if set(label) == {"I"}:
            out[label] = 1.0
            continue
        full = ["I"] * n
        for q, ch in zip(qubits, combo):
            full[q] = ch
        _, est = sample_pauli(state, "".join(full), shots, seed + i)
        out[label] = est
    return out
