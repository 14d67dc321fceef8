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
but one whole-array count in the trace.  The block and the trace use the
register's view as it is when their qubits are already its leading axes,
in order, as a compiled block's and the kept system register's are; any
other qubits are read through one transpose.  The public functions never
mutate their input: ``apply_gate`` works on one copy, and the readout
writes only new arrays.

``sample_pauli_expectations`` measures each of the 3**k settings of its k
qubits once, with ``shots`` shots (the linear-inversion scheme of James et
al., PRA 64, 052312 (2001)), and rotates no amplitude: the measured
qubits' reduced state is folded qubit by qubit into its Pauli coefficients,
those into the settings' 2**k-outcome marginals, and the counts into the
4**k strings' sums, in chunks of at most ``_CHUNK_BYTES``.  Each call
draws from one ``default_rng(seed)``, its settings in order, after every
probability at or below the state's rounding floor 2**n * eps is zeroed, so
a rounding-level change cannot move a count.

Shot counts (1..2**63 - 1), seeds and register sizes are checked as
integers (``bool`` excluded), so a bad one is an ``OutOfRangeError``, not a
numpy traceback; a qubit index that is not an integer or is repeated, a
qubit set that cannot be iterated, or a state that is not 1-d, is an
``IndexOutOfRangeError``.  The sampler refuses a state with no finite
positive probability mass (``NotNormalizedError``).
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

from .circuits import Circuit, Cnot, Gate, MultiControlledRy, UnitaryBlock, validate_circuit
from .errors import (IndexOutOfRangeError, NotNormalizedError, _as_complex, _qubits_of_dim,
                     _require_int, _require_qubits)
from .linalg import _EPS, DEFAULT_TOL, _fold, _pauli_coefficients

MAX_QUBITS = 24
MAX_TARGET_DIM = 2 ** (MAX_QUBITS // 2)  # the largest target whose purification fits
_MAX_SHOTS = 2 ** 63 - 1  # the multinomial sampler draws int64 counts

# The readout's per-qubit maps on (setting letter X, Y, Z; outcome o), indexed
# 2 * letter + o: p(l, o) = (c_I + (-1)**o c_l) / 2 from a unit-trace state's
# Pauli coefficients, and the strings' sums of +-1 parity counts from them.
_TO_SETTINGS = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, -0.5, 0.0, 0.0],
                         [0.5, 0.0, 0.5, 0.0], [0.5, 0.0, -0.5, 0.0],
                         [0.5, 0.0, 0.0, 0.5], [0.5, 0.0, 0.0, -0.5]])
_TO_SUMS = (2 * _TO_SETTINGS.T).astype(np.int64)
# Every partial sum of a readout's counts is at most 3**k * shots in size;
# up to this bound int64 holds it exactly, past it Python ints do.
_INT64_MAX = np.iinfo(np.int64).max
# The most bytes one chunk of the readout holds (k <= 6 is one chunk).
_CHUNK_BYTES = 2 ** 24


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
    view = _leading(ten, qubits)
    rows = view.reshape(2 ** k, -1)
    if live_rows:
        live = _live(rows)
        if not live.all():
            matrix, rows = matrix[:, live], rows[live]
    view[...] = (matrix @ rows).reshape(view.shape)


def _leading(ten: np.ndarray, qubits) -> np.ndarray:
    """A view of ``ten`` whose leading axes are ``qubits``, in order, then the rest ascending.

    The axis order of ``np.moveaxis(ten, qubits, range(len(qubits)))``,
    without its argument handling; ``ten`` itself when ``qubits`` are
    already 0, 1, ..., as for a compiled block and a kept system register.
    """
    if list(qubits) == list(range(len(qubits))):
        return ten
    return ten.transpose([*qubits, *(a for a in range(ten.ndim) if a not in qubits)])


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
    kept = _require_qubits(keep, num_qubits_of(state), IndexOutOfRangeError)
    return _trace(state, sorted(kept))


def _trace(state: np.ndarray, kept: list) -> np.ndarray:
    """:func:`reduced_density` of a checked 1-d ``state`` and its sorted ``kept`` qubits."""
    n = state.size.bit_length() - 1
    m = _leading(state.reshape((2,) * n), kept).reshape(2 ** len(kept), -1)
    if np.count_nonzero(m) < m.size:
        live = _live(m.T)
        if not live.all():
            m = m[:, live]
    return m @ m.conj().T


def sample_pauli_expectations(state: np.ndarray, qubits, shots: int, seed: int) -> dict:
    """Shot-based estimates of every Pauli string over ``qubits``.

    Labels in the result run over the given qubits in order; all other
    qubits are measured as identity.  The all-identity string is pinned to
    exactly 1.0.

    Each of the 3**k measurement settings (one letter X, Y or Z per
    measured qubit) is measured once with ``shots`` shots, from its marginal
    distribution over the k measured qubits, after the probabilities at or
    below the rounding floor 2**n * eps are zeroed.  All settings draw from
    one ``default_rng(seed)``, in order: base 3 over the ascending qubits
    with X < Y < Z.  A string with j identity letters is estimated
    from the 3**j settings that agree with it on its other letters: the sum
    of their even - odd parity balances over those letters, divided by
    3**j * shots.  The sums are exact: int64 where 3**k * shots fits it,
    Python ints beyond; the quotient is Python-int division, so each
    estimate is the correctly rounded mean for any shot count.  A string
    with no identity letter is (shots - 2 * odd) / shots of its own setting.

    A table larger than ``_CHUNK_BYTES`` allows is folded, drawn and summed
    per choice of the leading qubits' letters, with that letter's two rows of
    the map, so every entry has the same bytes either way.  At most 12 qubits
    are measured (``OutOfRangeError``).
    """
    state = _as_complex(state, IndexOutOfRangeError)
    n = num_qubits_of(state)
    norm = np.linalg.norm(state)
    if not 0.0 < norm < math.inf:  # NaN fails too
        raise NotNormalizedError(f"state has no finite positive probability mass: norm {norm}")
    _require_int(shots, "shots", 1, _MAX_SHOTS)
    _require_int(seed, "seed", 0)
    qubits = _require_qubits(qubits, n, IndexOutOfRangeError)
    k = len(qubits)
    labels = _pauli_strings(k)  # bounds k before any draw
    measured = sorted(qubits)
    coefficients = _pauli_coefficients(_trace(state, measured))
    coefficients /= coefficients.flat[0]
    # a chunk holds ~8 tables of 8-byte entries: marginals, copies, counts, sums
    lead = 0
    while lead < k and 64 * 2 ** lead * 6 ** (k - lead) > _CHUNK_BYTES:
        lead += 1
    t = k - lead
    # each qubit's axes in the draws' (trailing letters, outcomes) layout
    axes = [(t + q,) if q < lead else (q - lead, t + q) for q in range(k)]
    forward = [a for qubit in axes for a in qubit]
    to_draws = sorted(range(len(forward)), key=forward.__getitem__)  # argsort(forward)
    backward = [a for qubit in reversed(axes) for a in qubit]
    exact = np.int64 if 3 ** k * shots <= _INT64_MAX else object
    rng, sums = np.random.default_rng(seed), 0
    for prefix in product(range(3), repeat=lead):
        rows = [slice(2 * letter, 2 * letter + 2) for letter in prefix] + [slice(None)] * t
        probs = _fold(coefficients, [_TO_SETTINGS[r] for r in rows])
        probs = probs.reshape((2,) * lead + (3, 2) * t).transpose(to_draws)
        counts = _draws(probs.reshape(3 ** t, 2 ** k), state.size, shots, rng)
        # summed from the last qubit, where the table only shrinks
        counts = counts.reshape((3,) * t + (2,) * k).transpose(backward).astype(exact)
        sums = sums + _fold(counts, [_TO_SUMS[:, r] for r in reversed(rows)]).T
    # sums runs over the ascending qubits; the labels over the given order
    sums = sums.transpose([measured.index(q) for q in qubits]).ravel().tolist()
    out = {label: total / (3 ** label.count("I") * shots) for label, total in zip(labels, sums)}
    out["I" * k] = 1.0
    return out


def _pauli_strings(n: int):
    """The 4**n strings on ``n`` qubits, lazily, I < X < Y < Z at every position.

    ``n`` is checked at the call: at most 12, the largest system register that compiles.
    """
    _require_int(n, "qubit count", 0, MAX_QUBITS // 2)
    return map("".join, product("IXYZ", repeat=n))


def _draws(probs: np.ndarray, dim: int, shots: int, rng: np.random.Generator) -> np.ndarray:
    """A multinomial histogram per row of ``probs``, in order, from ``rng``.

    Every probability at or below the rounding floor ``dim * eps`` of a
    ``dim``-amplitude state is zeroed first, with no renormalization: numpy
    draws nothing for an exactly-zero category but a random number for a
    tiny one, so a rounding-level change would otherwise re-draw every later
    count.
    """
    return rng.multinomial(shots, np.where(probs > dim * _EPS, probs, 0.0))
