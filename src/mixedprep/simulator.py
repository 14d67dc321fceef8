"""Exact statevector simulator.

States are plain 1-d complex numpy arrays of length 2**n, indexed with
qubit 0 as the most significant bit.  ``run`` allocates |0...0> once and
every gate updates that buffer in place through its (2,)*n view; a gate
with k controls touches only the 2**(n-k) amplitudes it changes, so the
2**m - 1 loader rotations of a 2m-qubit purification circuit cost
O(m * 4**m) in all.  Work on exact zeros is skipped, with the same bytes
out: a rotation by exactly 0 is the identity and costs nothing, so the
loader of r nonzero weights applies at most r - 1 of its rotations; after
such a skip ``run`` multiplies the block into the state's nonzero rows
only (r of 2**m), and ``reduced_density`` contracts only the nonzero
dropped columns.  A full-rank target skips nothing and pays for no scan
but one whole-array count in the trace.  The public functions never
mutate their input: ``apply_gate`` works on one copy, and the readout
writes only new arrays.

Finite-shot readout rotates the state into a measurement setting's Z
basis and draws a multinomial histogram.  ``sample_pauli_expectations``
measures each of the 3**k settings of its k qubits once, with ``shots``
shots (the linear-inversion scheme of James et al., PRA 64, 052312
(2001)): the settings' distributions come from one batched rotation, a
(settings, 2**n) block that triples per measured qubit, built in chunks
of at most ``_CHUNK_BYTES`` (16 MiB: a k = 3 readout of up to 13 qubits
is one chunk; a larger one loops over its leading qubits), each with the
bytes of a single state rotated qubit by qubit, and each is reduced to its
2**k-outcome marginal before its draw.  Every one of the 4**k Pauli
estimates is then an exact integer balance of those counts.
``sample_pauli`` reads its one setting from the same rotation and draws
over the full register.  Both draw with every probability at or below the
state's rounding floor 2**n * eps set to zero, so a rounding-level change
in the state cannot move a count.
Shot counts (1..2**63 - 1), seeds and register sizes are checked as
integers (``bool`` excluded), so a bad one is an ``OutOfRangeError``, not a
numpy traceback; a qubit index that is not an integer, or a state that is
not 1-d, is an ``IndexOutOfRangeError``.  The sampler refuses a state with
no finite positive probability mass (``NotNormalizedError``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuits import Circuit, Cnot, Gate, MultiControlledRy, UnitaryBlock, validate_circuit
from .errors import (BadLabelError, IndexOutOfRangeError, NotNormalizedError, _as_complex,
                     _is_int, _qubits_of_dim, _require_int, _require_qubits)
from .linalg import _CHUNK_BYTES, DEFAULT_TOL

MAX_QUBITS = 24
MAX_TARGET_DIM = 2 ** (MAX_QUBITS // 2)  # the largest target whose purification fits
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
    """n for a 1-d state of 2**n amplitudes; any other shape is an ``IndexOutOfRangeError``."""
    if state.ndim != 1:
        raise IndexOutOfRangeError(f"a statevector is 1-d, got shape {state.shape}")
    return _qubits_of_dim(state.shape[0], IndexOutOfRangeError, "statevector length")


def apply_gate(state: np.ndarray, gate: Gate, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return gate(state) as a new array; the input is left untouched."""
    state = _as_complex(state, IndexOutOfRangeError).copy()
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
        if gate.theta == 0.0:  # Ry(0) = I; validate_circuit has refused NaN
            return
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


def _apply_block(ten: np.ndarray, qubits, matrix, live_rows: bool = False) -> None:
    """Apply ``matrix`` to ``qubits`` (the first is its most significant bit) in place.

    With ``live_rows`` the product reads only the rows of the block's
    (2**k, rest) view that hold a nonzero amplitude: an all-zero row adds
    nothing to any output entry.
    """
    k = len(qubits)
    view = np.moveaxis(ten, qubits, range(k))
    rows = view.reshape(2 ** k, -1)
    if live_rows:
        live = _live(rows)
        if not live.all():
            matrix, rows = matrix[:, live], rows[live]
    view[...] = (matrix @ rows).reshape(view.shape)


def _live(m: np.ndarray) -> np.ndarray:
    """Mask of the rows of the 2-d complex ``m`` with a nonzero entry.

    It reads the float views ``m.real`` and ``m.imag``, which exist for any
    strides: ``m.view(float)`` needs a contiguous last axis, which the view
    of a block on non-leading qubits does not have.
    """
    return m.real.any(axis=1) | m.imag.any(axis=1)


def run(circuit: Circuit, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply the circuit's gates in order to |0...0>, all in one buffer.

    A rotation by exactly 0 is the identity and is skipped.  A skipped
    rotation is what leaves exact-zero rows in a compiled circuit's state,
    so only after one does a block scan for them, and multiply only the
    live rows; a full-rank target's block never scans.
    """
    validate_circuit(circuit, tol)
    state = zero_state(circuit.num_qubits)
    ten = state.reshape((2,) * circuit.num_qubits)
    skipped = False
    for gate in circuit.gates:
        if isinstance(gate, UnitaryBlock):
            _apply_block(ten, gate.qubits, gate.matrix, skipped)
        else:
            skipped = skipped or (not isinstance(gate, Cnot) and gate.theta == 0.0)
            _apply(ten, gate)
    return state


def reduced_density(state: np.ndarray, keep) -> np.ndarray:
    """Density matrix of the kept qubits (ascending order), from amplitudes.

    Never materializes the full outer product: the statevector is viewed
    as (kept, dropped) and contracted against its own conjugate, over the
    dropped columns that hold a nonzero amplitude only.  Those are scanned
    for only when one whole-array count finds an exact zero.
    """
    state = _as_complex(state, IndexOutOfRangeError)
    n = num_qubits_of(state)
    kept = _require_qubits(keep, n, IndexOutOfRangeError)
    m = np.moveaxis(state.reshape((2,) * n), kept, range(len(kept))).reshape(2 ** len(kept), -1)
    if np.count_nonzero(m) < m.size:
        live = _live(m.T)
        if not live.all():
            m = m[:, live]
    return m @ m.conj().T


def sample_pauli(state: np.ndarray, pauli_string: str, shots: int, seed: int):
    """Measure a Pauli string with finite shots.

    Returns ``(ShotResult, estimate)``.  Each qubit is rotated so its label's
    eigenbasis becomes the Z basis, the full register is sampled from the
    resulting Z-basis distribution with ``default_rng(seed)``, after the
    probabilities at or below the rounding floor 2**n * eps are zeroed, and
    the estimate is (even-parity counts - odd-parity counts) / shots, the
    parity taken over the non-identity positions.  ``shots`` must be an
    integer in 1..2**63 - 1 and ``seed`` an integer >= 0.
    """
    state, n = _sampled(state)
    label = pauli_string.upper() if isinstance(pauli_string, str) else None
    if label is None or len(label) != n or any(ch not in "IXYZ" for ch in label):
        raise BadLabelError(
            f"pauli string {pauli_string!r} is not {n} characters over I, X, Y, Z"
        )
    _require_int(shots, "shots", 1, _MAX_SHOTS)
    _require_int(seed, "seed", 0)
    probs = next(_distributions(state, [(q, ch) for q, ch in enumerate(label) if ch in "XY"]))
    [hist] = _draws(probs, state.size, shots, seed)
    est = _parity_estimate(hist, _odd_parity(n, _z_mask(label)), shots)
    counts = {format(int(i), f"0{n}b"): int(hist[i]) for i in np.flatnonzero(hist)}
    return ShotResult(counts=counts, shots=shots, seed=seed), est


def sample_pauli_expectations(state: np.ndarray, qubits, shots: int, seed: int) -> dict:
    """Shot-based estimates of every Pauli string over ``qubits``.

    Labels in the result run over the given qubits in order; all other
    qubits are measured as identity.  The all-identity string is pinned to
    exactly 1.0.

    Each of the 3**k measurement settings (one letter X, Y or Z per
    measured qubit) is measured once with ``shots`` shots.  Setting s, in
    base 3 over the ascending qubits with X < Y < Z, is drawn with
    ``default_rng(seed + s)`` from its marginal distribution over the k
    measured qubits, after the probabilities at or below the rounding floor
    2**n * eps are zeroed.  A string with j identity letters is estimated
    from the 3**j settings that agree with it on its other letters: the sum
    of their even - odd parity balances over those letters, divided by
    3**j * shots.  Sum and quotient are Python-int arithmetic, so each
    estimate is the correctly rounded mean for any shot count; a string with
    no identity letter is (shots - 2 * odd) / shots of its own setting.

    The settings' distributions come in blocks of at most ``_CHUNK_BYTES``,
    and each block is drawn and folded into the 4**k sums before the next
    one is computed.
    """
    state, n = _sampled(state)
    qubits = tuple(qubits)
    if (not qubits or len(set(qubits)) != len(qubits)
            or not all(_is_int(q) and 0 <= q < n for q in qubits)):
        raise IndexOutOfRangeError(
            f"qubits {qubits} must be distinct integer indices in 0..{n - 1}, at least one"
        )
    _require_int(shots, "shots", 1, _MAX_SHOTS)
    _require_int(seed, "seed", 0)
    k = len(qubits)
    measured = sorted(map(int, qubits))
    sums, first = 0, 0
    for probs in _distributions(state, [(q, "XYZ") for q in measured]):
        counts = _draws(_marginal(probs, n, measured), state.size, shots, seed + first)
        sums = sums + _string_sums(_balances(counts, k), first, k)
        first += len(probs)
    # sums runs over the ascending qubits; the labels over the given order
    sums = sums.transpose([measured.index(q) for q in map(int, qubits)]).ravel().tolist()
    labels = ["".join(combo) for combo in product("IXYZ", repeat=k)]
    out = {label: total / (3 ** label.count("I") * shots) for label, total in zip(labels, sums)}
    out[labels[0]] = 1.0
    return out


def _sampled(state) -> tuple:
    """``state`` as a complex array and its qubit count, once it has a finite, nonzero norm."""
    state = _as_complex(state, IndexOutOfRangeError)
    n = num_qubits_of(state)
    norm = np.linalg.norm(state)
    if not 0.0 < norm < math.inf:  # NaN fails too
        raise NotNormalizedError(f"state has no finite positive probability mass: norm {norm}")
    return state, n


def _distributions(state: np.ndarray, measured):
    """Z-basis distributions of measurement settings, as (settings, 2**n) blocks.

    ``measured`` lists ``(qubit, letters)`` in ascending qubit order, the
    letters a string over X, Y, Z; the settings are every choice of one
    letter per qubit, the first qubit's letter the most significant, and
    their rows come in that order.  From the state, each measured qubit
    multiplies the block's rows by its letter count: an X or Y row is the
    2x2 product that rotates that qubit's eigenbasis onto Z, applied to the
    whole block at once, and a Z row is the block unchanged.  Each row is
    then divided by its own sum.

    The leading qubits whose expansion would not fit in ``_CHUNK_BYTES``
    (the block, its expansion and the probabilities stay under three
    blocks) are looped over, one yielded block per choice of their letters;
    only the trailing ones are expanded.  Every row sees the same products
    and sums either way.
    """
    lead, rows = len(measured), 1
    while lead and 3 * rows * len(measured[lead - 1][1]) * state.nbytes <= _CHUNK_BYTES:
        lead -= 1
        rows *= len(measured[lead][1])
    for prefix in product(*(letters for _, letters in measured[:lead])):
        block = state.reshape(1, -1)
        for (q, _), ch in zip(measured, prefix):
            block = _branches(block, q, ch)
        for q, letters in measured[lead:]:
            block = _branches(block, q, letters)
        probs = np.abs(block) ** 2
        del block  # not held while the caller draws from this chunk
        probs /= probs.sum(axis=1, keepdims=True)
        yield probs


def _branches(block: np.ndarray, q: int, letters: str) -> np.ndarray:
    """Each row of ``block`` once per letter, qubit ``q`` rotated onto Z for X and Y.

    Row i's copies are rows i * len(letters) + j, in letter order.  The
    rotation reads each row as (2, rest) with qubit ``q`` first, the rest in
    order, so its products are those a single state's rotation forms.
    """
    s, size = block.shape
    shape = (s, 2 ** q, 2, size >> (q + 1))
    out = np.empty((s, len(letters), size), dtype=complex)
    pairs = block.reshape(shape).swapaxes(1, 2).reshape(s, 2, -1)
    for j, ch in enumerate(letters):
        if ch == "Z":
            out[:, j] = block
        else:
            rotated = (_H if ch == "X" else _Y_TO_Z) @ pairs
            out[:, j].reshape(shape).swapaxes(1, 2)[...] = rotated.reshape(s, 2, *shape[1::2])
    return out.reshape(-1, size)


def _marginal(probs: np.ndarray, n: int, measured) -> np.ndarray:
    """Each row of ``probs`` summed over the qubits not in ``measured``, as (rows, 2**k).

    The qubits are summed out one at a time from the last, each as one
    elementwise addition of its two halves, so a row's marginal does not
    depend on the rows beside it.  The outcomes run over the ascending
    measured qubits, the first the most significant bit.
    """
    rows = len(probs)
    for q in reversed(range(n)):
        if q not in measured:
            halves = probs.reshape(rows, 2 ** q, 2, -1)
            probs = halves[:, :, 0] + halves[:, :, 1]
    return probs.reshape(rows, -1)


def _draws(probs: np.ndarray, dim: int, shots: int, seed: int) -> np.ndarray:
    """One multinomial histogram per row of ``probs``, row s from ``default_rng(seed + s)``.

    Every probability at or below the rounding floor ``dim * eps`` of a
    ``dim``-amplitude state is zeroed first, with no renormalization: numpy
    draws nothing for an exactly-zero category but a random number for a
    tiny one, so a rounding-level change would otherwise re-draw every later
    count.
    """
    probs = np.where(probs > dim * np.finfo(float).eps, probs, 0.0)
    return np.array([np.random.default_rng(seed + s).multinomial(shots, row)
                     for s, row in enumerate(probs)])


def _balances(counts: np.ndarray, k: int) -> np.ndarray:
    """Even - odd count of every outcome mask, per row of the (rows, 2**k) ``counts``, in place.

    Entry (s, m) sums count (s, o) with the sign of the parity of o & m: the
    Walsh-Hadamard transform along the k outcome bits.  Each partial sum is
    a signed sum of distinct counts of one row, at most ``shots`` in size,
    so int64 holds every step exactly.
    """
    for j in range(k):
        pairs = counts.reshape(len(counts), 2 ** j, 2, -1)
        even, odd = pairs[:, :, 0], pairs[:, :, 1]
        diff = even - odd
        even += odd
        odd[...] = diff
    return counts


def _string_sums(balances: np.ndarray, first: int, k: int) -> np.ndarray:
    """Each string's sum of balances over one block of settings, as a (4,)*k Python-int array.

    The block is settings ``first`` onward: every letter choice of the
    trailing t measured qubits (3**t = its row count) after the fixed
    letters of the leading ones that ``first`` spells.  A string's letter on
    a qubit is I, summed over that qubit's three setting letters with its
    mask bit 0, or X, Y, Z, the setting's letter with its mask bit 1.  Each
    qubit's axes are mapped to its four letters in turn, leading the array
    and then appended to its end, so the letters come out in qubit order.
    """
    t = 0
    while 3 ** t < len(balances):
        t += 1
    lead = k - t
    digits = [first // 3 ** (k - 1 - p) % 3 for p in range(lead)]
    # axes: each leading qubit's mask bit, then each trailing qubit's (letter, mask bit)
    order = [t + p for p in range(lead)] + [a for p in range(t) for a in (p, t + lead + p)]
    x = balances.reshape((3,) * t + (2,) * k).transpose(order).astype(object)
    for p in range(k):
        if p < lead:
            x = x.reshape(2, -1)
            letters = np.zeros((4, x.shape[1]), dtype=object)
            letters[0], letters[1 + digits[p]] = x
        else:
            x = x.reshape(6, -1)  # (X, 0), (X, 1), (Y, 0), (Y, 1), (Z, 0), (Z, 1)
            letters = np.empty((4, x.shape[1]), dtype=object)
            letters[0] = x[0] + x[2] + x[4]
            letters[1:] = x[1::2]
        x = letters.T
    return x.reshape((4,) * k)


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
