"""Exact statevector simulator.

States are plain 1-d complex numpy arrays of length 2**n, indexed with
qubit 0 as the most significant bit.  ``run`` allocates |0...0> once and
every gate updates that buffer in place through its (2,)*n view; a gate
with k controls touches only the 2**(n-k) amplitudes it changes, so the
2**m - 1 loader rotations of a 2m-qubit purification circuit cost
O(m * 4**m) in all.  The public functions never mutate their input:
``apply_gate`` and ``sample_pauli`` work on one copy.

Finite-shot readout rotates a copy of the state into one measurement
setting's Z basis and draws a multinomial histogram; a Pauli estimate is
the histogram's parity balance.  ``sample_pauli_expectations`` computes
each of the 3**k settings' distributions once for its 4**k - 1 strings.
Shot counts (1..2**63 - 1), seeds and register sizes are checked as
integers (``bool`` excluded), so a bad one is an ``OutOfRangeError``, not a
numpy traceback; a qubit index that is not an integer is an
``IndexOutOfRangeError``, never truncated to another qubit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuits import Circuit, Cnot, Gate, MultiControlledRy, UnitaryBlock, validate_circuit
from .errors import BadLabelError, IndexOutOfRangeError, _is_int, _require_int, _require_qubits
from .linalg import DEFAULT_TOL

MAX_QUBITS = 24
_MAX_SHOTS = 2 ** 63 - 1  # the multinomial sampler draws int64 counts

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
    _require_int(num_qubits, "num_qubits", 1, MAX_QUBITS)
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
        # a0, a1 = c*a0 - s*a1, c*a1 + s*a0 in place: addition commutes, so the
        # rounding is that of s*a0 + c*a1, and only s*a0 and s*a1 are temporaries
        tmp = s * a0
        a0 *= c
        a0 -= s * a1
        a1 *= c
        a1 += tmp


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
    kept = _require_qubits(keep, n, IndexOutOfRangeError)
    m = np.moveaxis(state.reshape((2,) * n), kept, range(len(kept))).reshape(2 ** len(kept), -1)
    return m @ m.conj().T


def sample_pauli(state: np.ndarray, pauli_string: str, shots: int, seed: int):
    """Measure a Pauli string with finite shots.

    Returns ``(ShotResult, estimate)``.  Each qubit is rotated so its label's
    eigenbasis becomes the Z basis, the full register is sampled from the
    resulting Z-basis distribution with ``default_rng(seed)``, and the
    estimate is (even-parity counts - odd-parity counts) / shots, the parity
    taken over the non-identity positions.  ``shots`` must be an integer in
    1..2**63 - 1 and ``seed`` an integer >= 0.
    """
    state = np.asarray(state, dtype=complex)
    n = num_qubits_of(state)
    label = pauli_string.upper()
    if len(label) != n or any(ch not in "IXYZ" for ch in label):
        raise BadLabelError(
            f"pauli string {pauli_string!r} is not {n} characters over I, X, Y, Z"
        )
    _require_int(shots, "shots", 1, _MAX_SHOTS)
    _require_int(seed, "seed", 0)
    hist = np.random.default_rng(seed).multinomial(shots, _setting_probabilities(state, label))
    est = _parity_estimate(hist, _odd_parity(n, _z_mask(label)), shots)
    counts = {format(int(i), f"0{n}b"): int(hist[i]) for i in np.flatnonzero(hist)}
    return ShotResult(counts=counts, shots=shots, seed=seed), est


def sample_pauli_expectations(state: np.ndarray, qubits, shots: int, seed: int) -> dict:
    """Shot-based estimates of every Pauli string over ``qubits``.

    Labels in the result run over the given qubits in order; all other
    qubits are measured as identity.  String number i uses seed ``seed + i``
    so individual estimates are reproducible in isolation: each equals
    ``sample_pauli(state, full_label, shots, seed + i)[1]``.  The
    all-identity string is pinned to exactly 1.0 without sampling.

    The 4**k - 1 strings need only 3**k Z-basis distributions, one per
    measurement setting (the full label with I read as Z).  The strings are
    drawn grouped by setting, so each distribution is computed once and only
    one is held at a time; each parity mask is built once per call.
    """
    state = np.asarray(state, dtype=complex)
    n = num_qubits_of(state)
    qubits = tuple(qubits)
    if (not qubits or len(set(qubits)) != len(qubits)
            or not all(_is_int(q) and 0 <= q < n for q in qubits)):
        raise IndexOutOfRangeError(
            f"qubits {qubits} must be distinct integer indices in 0..{n - 1}, at least one"
        )
    _require_int(shots, "shots", 1, _MAX_SHOTS)
    _require_int(seed, "seed", 0)
    labels = ["".join(combo) for combo in product("IXYZ", repeat=len(qubits))]
    out, odd, setting = dict.fromkeys(labels), {}, None
    out[labels[0]] = 1.0
    for i in sorted(range(1, len(labels)), key=lambda j: labels[j].replace("I", "Z")):
        full = ["I"] * n
        for q, ch in zip(qubits, labels[i]):
            full[q] = ch
        full = "".join(full)
        key = full.replace("I", "Z")
        if key != setting:
            setting, probs = key, _setting_probabilities(state, key)
        mask = _z_mask(full)
        if mask not in odd:
            odd[mask] = _odd_parity(n, mask)
        hist = np.random.default_rng(seed + i).multinomial(shots, probs)
        out[labels[i]] = _parity_estimate(hist, odd[mask], shots)
    return out


def _setting_probabilities(state: np.ndarray, label: str) -> np.ndarray:
    """Z-basis distribution after rotating each X or Y qubit of ``label`` onto Z."""
    rotated = state.copy()
    ten = rotated.reshape((2,) * len(label))
    for q, ch in enumerate(label):
        if ch in "XY":
            _apply_block(ten, (q,), _H if ch == "X" else _Y_TO_Z)
    probs = np.abs(rotated) ** 2
    probs /= probs.sum()
    return probs


def _z_mask(label: str) -> int:
    """Basis-index bits of the non-identity positions (qubit 0 = most significant)."""
    n = len(label)
    return sum(1 << (n - 1 - q) for q, ch in enumerate(label) if ch != "I")


def _odd_parity(n: int, mask: int) -> np.ndarray:
    """Boolean vector over the 2**n basis indices: True where ``i & mask`` has odd weight.

    XOR-folding halves the width each pass, so bit 0 ends up holding the
    parity of every bit (no ``np.bitwise_count``, which needs numpy >= 2).
    The indices take the narrowest unsigned type that holds them.
    """
    bits = np.arange(2 ** n, dtype=np.min_scalar_type(2 ** n - 1)) & mask
    shift = 1
    while shift < n:
        bits ^= bits >> shift
        shift *= 2
    return (bits & 1).astype(bool)


def _parity_estimate(hist: np.ndarray, odd: np.ndarray, shots: int) -> float:
    """(even-parity counts - odd-parity counts) / shots, summed as Python ints.

    The counts add up to ``shots``, so even - odd = shots - 2 * odd.
    """
    return (int(shots) - 2 * int(hist[odd].sum())) / shots
