"""Exact statevector simulator.

States are plain 1-d complex numpy arrays of length 2**n, indexed with
qubit 0 as the most significant bit.  Gate application never mutates its
input; internally each gate works on a reshaped view plus one output
buffer, so a full run is O(gates * 2**n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuits import Circuit, Cnot, Gate, MultiControlledRy, Ry, UnitaryBlock, validate_circuit
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
    state = np.asarray(state, dtype=complex)
    n = num_qubits_of(state)
    validate_circuit(Circuit(n, [gate]), tol)
    return _apply(state, n, gate)


def _apply(state: np.ndarray, n: int, gate: Gate) -> np.ndarray:
    """gate(state) for a gate already checked against the n-qubit register."""
    if isinstance(gate, Ry):
        return _apply_ry(state, n, gate.target, gate.theta, ())
    if isinstance(gate, MultiControlledRy):
        return _apply_ry(state, n, gate.target, gate.theta, gate.controls)
    if isinstance(gate, Cnot):
        ten = state.reshape((2,) * n)
        out = ten.copy()
        i01 = _index(n, {gate.control: 1, gate.target: 0})
        i11 = _index(n, {gate.control: 1, gate.target: 1})
        out[i01] = ten[i11]
        out[i11] = ten[i01]
        return out.reshape(-1)
    return _apply_block(state, n, gate.qubits, gate.matrix)


def _index(n: int, fixed: dict) -> tuple:
    idx = [slice(None)] * n
    for q, b in fixed.items():
        idx[q] = b
    return tuple(idx)


def _apply_ry(state, n, target, theta, controls) -> np.ndarray:
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    ten = state.reshape((2,) * n)
    out = ten.copy()
    fixed = {q: b for q, b in controls}
    i0 = _index(n, {**fixed, target: 0})
    i1 = _index(n, {**fixed, target: 1})
    a0 = ten[i0]
    a1 = ten[i1]
    out[i0] = c * a0 - s * a1
    out[i1] = s * a0 + c * a1
    return out.reshape(-1)


def _apply_block(state, n, qubits, matrix) -> np.ndarray:
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    perm = list(qubits) + rest
    ten = state.reshape((2,) * n).transpose(perm).reshape(2 ** k, -1)
    ten = matrix @ ten
    inv = np.argsort(perm)
    return ten.reshape((2,) * n).transpose(inv).reshape(-1)


def run(circuit: Circuit, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply the circuit's gates in order to |0...0>."""
    validate_circuit(circuit, tol)
    state = zero_state(circuit.num_qubits)
    for gate in circuit.gates:
        state = _apply(state, circuit.num_qubits, gate)
    return state


def reduced_density(state: np.ndarray, keep) -> np.ndarray:
    """Density matrix of the kept qubits (ascending order), from amplitudes.

    Never materializes the full outer product: the statevector is reshaped
    to (kept, dropped) and contracted against its own conjugate.
    """
    state = np.asarray(state, dtype=complex)
    n = num_qubits_of(state)
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise IndexOutOfRangeError("keep must name at least one qubit")
    if kept[0] < 0 or kept[-1] >= n:
        raise IndexOutOfRangeError(f"keep indices {kept} out of range for {n} qubits")
    dropped = [q for q in range(n) if q not in kept]
    perm = kept + dropped
    m = state.reshape((2,) * n).transpose(perm).reshape(2 ** len(kept), -1)
    return m @ m.conj().T


def sample_pauli(state: np.ndarray, pauli_string: str, shots: int, seed: int):
    """Measure a Pauli string with finite shots.

    Returns ``(ShotResult, estimate)``.  Each qubit is rotated so its label's
    eigenbasis becomes the Z basis, the full register is sampled from the
    resulting Z-basis distribution, and the estimate is the shot-weighted
    parity over the non-identity positions.
    """
    state = np.asarray(state, dtype=complex)
    n = num_qubits_of(state)
    label = pauli_string.upper()
    if len(label) != n or any(ch not in "IXYZ" for ch in label):
        raise BadLabelError(
            f"pauli string {pauli_string!r} is not {n} characters over I, X, Y, Z"
        )
    if shots < 1:
        raise OutOfRangeError(f"shots must be >= 1, got {shots}")

    rotated = state
    for q, ch in enumerate(label):
        if ch == "X":
            rotated = _apply_block(rotated, n, (q,), _H)
        elif ch == "Y":
            rotated = _apply_block(rotated, n, (q,), _Y_TO_Z)

    probs = np.abs(rotated) ** 2
    probs = np.clip(probs, 0.0, None)
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
