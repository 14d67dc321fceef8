"""Verification metrics: fidelity, coherence, concurrence, Pauli analysis.

All functions take density matrices as plain complex numpy arrays.  The
two-qubit helpers follow the shared convention that qubit 0 (subsystem A)
is the most significant bit of the basis index.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from functools import reduce
from itertools import islice

import numpy as np

from .errors import (BadLabelError, DimensionMismatchError, MissingExpectationError,
                     NotAProbabilityVectorError, NotDensityMatrixError, OutOfRangeError,
                     _as_complex, _is_int, _qubits_of_dim, _require_real, _shown)
from .linalg import (_EPS, _PAULIS, DEFAULT_TOL, _eigh, _pauli_coefficients, _pauli_density,
                     _trace_down, density_factor, require_density)
from .simulator import _pauli_strings

__all__ = ["concurrence", "exact_pauli_expectations", "fidelity", "l1_coherence",
           "local_l1_coherence", "pauli_labels", "pauli_matrix", "tomography_reconstruct"]

PAULI_1Q = dict(zip("IXYZ", _PAULIS))


def pauli_matrix(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis; leftmost letter = qubit 0."""
    label = label.upper() if isinstance(label, str) else None
    if not label or any(ch not in PAULI_1Q for ch in label):
        raise BadLabelError(f"pauli label {label!r} must be a nonempty string over I, X, Y, Z")
    # the first letter is copied, so no result shares memory with PAULI_1Q
    return reduce(np.kron, [PAULI_1Q[ch] for ch in label[1:]], PAULI_1Q[label[0]].copy())


def pauli_labels(n: int) -> list:
    """All 4**n labels, I < X < Y < Z at every position; ``n`` an integer in 0..12."""
    return list(_pauli_strings(n))


def exact_pauli_expectations(rho, tol: float = DEFAULT_TOL) -> dict:
    """Tr(rho P) for every Pauli string on the matrix's qubit count, from one fold of rho."""
    rho = require_density(rho, tol)
    n = _qubits_of_dim(rho.shape[0], DimensionMismatchError, "dimension")
    return dict(zip(pauli_labels(n), _pauli_coefficients(rho).ravel().tolist()))


def fidelity(rho, sigma, tol: float = DEFAULT_TOL) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2, clipped to [0, 1].

    For factors rho = A A^dagger and sigma = B B^dagger from
    :func:`~mixedprep.linalg.density_factor` the trace is the sum of the
    singular values of A^dagger B (Uhlmann, Rep. Math. Phys. 9, 273 (1976);
    Jozsa, J. Mod. Opt. 41, 2315 (1994)), which the SVD resolves at absolute
    precision.  A pure state is a one-column factor.

    Before the SVD, t = |Tr A^dagger B|^2 over the columns the two factors
    share: vec(A) and vec(B) are purifications, so t <= F.  Where
    1 - t <= d * eps, as on a round trip, whose two factors agree column by
    column, t is returned: it never overstates F and is within the SVD's own
    rounding of it.

    Limit: an eigenvalue at the rounding level d * eps of a float matrix, a
    zero included, is noise; where the other state has weight on its
    eigenvector it moves F by about sqrt(d * eps) for any method (4.5e-9
    against a 50-digit reference at d <= 8).
    """
    rho = _as_complex(rho, NotDensityMatrixError)
    sigma = _as_complex(sigma, NotDensityMatrixError)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    (_, a), (_, b) = density_factor(rho, tol), density_factor(sigma, tol)
    k = min(a.shape[1], b.shape[1])
    bound = abs(np.vdot(a[:, :k], b[:, :k])) ** 2
    if 1.0 - bound <= rho.shape[0] * _EPS:
        return min(float(bound), 1.0)
    s = np.linalg.svd(a.conj().T @ b, compute_uv=False)
    return min(float(s.sum() ** 2), 1.0)


def l1_coherence(rho, tol: float = DEFAULT_TOL) -> float:
    """Sum of |off-diagonal| entries in the computational basis."""
    rho = require_density(rho, tol)
    mags = np.abs(rho)
    return float(mags.sum() - mags.trace())


def local_l1_coherence(rho, subsystem, tol: float = DEFAULT_TOL) -> float:
    """Coherence of one qubit's reduced state; subsystem 'A' = qubit 0, 'B' = qubit 1."""
    rho = require_density(rho, tol)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 two-qubit matrix, got {rho.shape}")
    qubit = _subsystem_qubit(subsystem)
    reduced = _trace_down(rho, [qubit], 2)  # rho is certified: partial_trace's checks would repeat
    mags = np.abs(reduced)
    return float(mags.sum() - mags.trace())


def _subsystem_qubit(subsystem) -> int:
    if isinstance(subsystem, str):
        key = subsystem.strip().upper()
        if key == "A":
            return 0
        if key == "B":
            return 1
    elif _is_int(subsystem) and subsystem in (0, 1):
        return int(subsystem)
    raise BadLabelError(f"subsystem must be 'A', 'B', 0, or 1; got {_shown(subsystem)}")


_YY = pauli_matrix("YY")


def concurrence(rho, tol: float = DEFAULT_TOL) -> float:
    """Two-qubit entanglement: max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)).

    The l's are the descending eigenvalues of rho * spin-flipped(rho).
    For any factor rho = L L^dagger, cycling the product shows their square
    roots equal the singular values of L^T (Y x Y) L (Wootters, PRL 80, 2245
    (1998)), which is how they are computed, with L from
    :func:`~mixedprep.linalg.density_factor`: the SVD resolves the small ones
    at absolute precision, where rooting a near-zero eigenvalue would lose
    half the digits.
    """
    rho = _as_complex(rho, NotDensityMatrixError)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 two-qubit matrix, got {rho.shape}")
    _, factor = density_factor(rho, tol)
    s = np.linalg.svd(factor.T @ _YY @ factor, compute_uv=False)
    val = float(s[0] - s[1:].sum())
    return min(max(val, 0.0), 1.0)


def tomography_reconstruct(expectations: dict, n: int) -> np.ndarray:
    """Linear-inversion estimate projected back onto the density-matrix set.

    ``expectations`` maps Pauli strings of length ``n``, an integer in 1..12, to
    finite real estimates; the all-identity entry may be omitted (implied 1),
    and anything but a mapping is a ``MissingExpectationError``.  Keys are
    read upper-cased; two keys that name one string, and a key that is not an
    ``n``-letter Pauli string (a key that is not a ``str`` included), are a
    ``BadLabelError``.  An estimate that is not finite, or lies beyond
    [-1, 1] by more than ``DEFAULT_TOL``, is an ``OutOfRangeError`` naming
    its string.
    The raw estimate 2**-n * sum(<P> P) has its negative eigenvalues clamped
    to zero, and the trace is rescaled to 1.

    The raw estimate is one fold of the 4**n coefficients, qubit by qubit:
    no Pauli matrix is built.  Each qubit's map sends real coefficients to
    conjugate entry pairs, so the estimate is exactly Hermitian, and needs
    no symmetrizing before ``eigh``.
    """
    if not _is_int(n) or n < 1:
        raise DimensionMismatchError(f"qubit count must be an integer >= 1, got {_shown(n)}")
    labels = _pauli_strings(n)  # bounds n before any string of length n is made
    if not isinstance(expectations, Mapping):
        raise MissingExpectationError(
            f"expectations must map Pauli strings to values, got {type(expectations).__name__}")
    values = _require_real(list(expectations.values()), OutOfRangeError,
                           "expectation values must be real")
    table = {}
    for key, value in zip(expectations, values.tolist()):
        if not isinstance(key, str):
            raise BadLabelError(f"expectation key {_shown(key)} is not a {n}-letter pauli string")
        table[key.upper()] = value
    if len(table) != len(expectations):
        raise BadLabelError("two expectation keys name the same pauli string once upper-cased")
    table.setdefault("I" * n, 1.0)
    # Checked lazily before any d x d array: a gap stops the scan within
    # len(table) + 1 labels, so a short table costs only its own size.
    coefficients = []
    for label in labels:
        if label not in table:
            raise MissingExpectationError(f"no expectation value for pauli string {label!r}")
        coefficients.append(table[label])
    if len(table) != len(coefficients):  # every label is in the table, and more
        extra = next(k for k in table if len(k) != n or k.strip("IXYZ"))
        raise BadLabelError(f"expectation key {_shown(extra)} is not a {n}-letter pauli string")
    coefficients = np.array(coefficients)
    within = np.abs(coefficients) <= 1.0 + DEFAULT_TOL  # False for NaN
    if not within.all():
        label = next(islice(_pauli_strings(n), int(within.argmin()), None))
        value = table[label]
        raise OutOfRangeError(f"expectation value for pauli string {label!r} is {value}, "
                              + ("outside [-1, 1]" if math.isfinite(value) else "not finite"))
    w, v = _eigh(_pauli_density(coefficients))
    w = np.maximum(w, 0.0)
    total = float(w.sum())
    if total <= 0.0:
        raise NotAProbabilityVectorError(
            "clamped eigenvalue mass is zero; expectations are inconsistent"
        )
    w /= total
    return (v * w) @ v.conj().T
