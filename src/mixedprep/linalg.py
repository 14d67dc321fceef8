"""Dense complex linear algebra shared by the whole package.

Matrices are plain numpy arrays with complex entries.  Qubit 0 is always
the most significant bit of a basis-state index, so the first tensor
factor of a Kronecker product owns the leading block of the matrix.

Density matrices are checked in one place: shape, finite entries,
Hermiticity and trace, then positivity.  :func:`density_factor` reads
positivity off a Cholesky factorization; where that fails or a pivot is
at the rounding level, off a pivoted Cholesky that stops at the numerical
rank and one residual that certifies it.  It solves only for a matrix that
fails the certificate, to name its least eigenvalue.  It is the check of
every caller, compile included, and compile solves for the spectrum on its
factor's support: one d x d ``eigh`` for a full-rank matrix, one r x r
``eigh`` for a rank-r one.

One pipeline verifies the same matrix more than once (compile and then
``fidelity`` the target, ``fidelity``, ``concurrence`` and the coherences
the prepared state), so :func:`density_factor` keeps the factors of its last
``_MEMO_ENTRIES`` = 8 accepted inputs, within the process only.  The key is
the content: shape, ``tol`` and the bytes of the complex array, so a changed
input is a new key and is checked again, and a rejected one is never stored.
Memoized factors are read-only, on a miss too, so no caller can alter a
stored one.  An input over ``_MEMO_BYTES`` = 64 KiB (d > 64) bypasses the
memo and gets a writable factor.

The canonical eigenbasis is built, by :func:`canonical_eigenvectors`, only
where a basis leaves the library: :func:`eig_hermitian` and the compiled
block, whose every column is an eigenvector from compile's one solve: the
support groups canonical, the rest as the solve returned them.  The block is
not measured at compile: ``validate_circuit`` checks it once, when it runs.
It is whole-array work but for the Gram-Schmidt of tied groups: one
comparison finds the groups and one product fixes every column's phase.
Square roots read the raw ``eigh``.

Every Pauli-basis transform acts qubit by qubit, so each is one
:func:`_fold` of a small per-qubit map; no stack of Pauli matrices is built.

Every threshold of the package is a constant here:

==================  =====  ===================================================
constant            value  reason
==================  =====  ===================================================
DEFAULT_TOL         1e-10  validation slack of library calls on computed data
FILE_VALIDATE_TOL   1e-8   slack for matrices read from files and the CLI
TIE_TOL             1e-12  eigenvalues this close form one degenerate group
RANK_TOL            1e-12  tie groups wholly above it get the canonical basis
RENORM_TOL          1e-12  clamping that moves the eigenvalue sum more renorms
GS_DROP_TOL         1e-8   Gram-Schmidt drops residuals shorter than this
PROB_TOL            1e-12  rounding slack of family probabilities/eigenvalues
==================  =====  ===================================================

The floor of :func:`density_factor` is not in the table: it is d * eps, the
rounding level of a trace-1 matrix, so it scales with the dimension.  It
stops the pivoted Cholesky, and ``fidelity`` takes its trace bound when
that is within the same d * eps of 1.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotDensityMatrixError,
    NotHermitianError,
    NotOrthonormalError,
    NotPSDError,
    NotUnitaryError,
    _as_complex,
    _is_int,
    _require_qubits,
    _require_tol,
    _shown,
)

DEFAULT_TOL = 1e-10
FILE_VALIDATE_TOL = 1e-8
TIE_TOL = 1e-12
RANK_TOL = 1e-12
RENORM_TOL = 1e-12
GS_DROP_TOL = 1e-8
PROB_TOL = 1e-12
_EPS = float(np.finfo(float).eps)  # 2**-52, the eps of every d * eps rounding floor

# Pauli I, X, Y, Z, and the per-qubit maps between rho's entries (2 * row +
# column) and Tr(rho P) = sum_ij rho_ij P_ji, and back: rho = sum_P Tr(rho P) P / 2.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_TO_PAULI = _PAULIS.transpose(0, 2, 1).reshape(4, 4)
_FROM_PAULI = _PAULIS.reshape(4, 4).T / 2

# density_factor's memo: the factors of the last accepted inputs of at most
# _MEMO_BYTES, oldest first; the lock makes insert-and-evict one step.
_MEMO_ENTRIES = 8
_MEMO_BYTES = 2 ** 16
_memo: dict = {}
_memo_lock = threading.Lock()


def _require_hermitian(m, tol: float, error: type) -> np.ndarray:
    """``m`` as a complex array once it is square, finite and Hermitian within ``tol``."""
    m = _as_complex(m, error)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise error(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise error("matrix has NaN or infinite entries")
    asym = float(np.abs(m - m.conj().T).max())
    if asym > tol:
        raise error(f"matrix is not Hermitian: max |m - m^dagger| = {asym:.3e} > {tol:g}")
    return m


def _eigh(m: np.ndarray) -> tuple:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc


def _require_unit_trace(m, tol: float) -> np.ndarray:
    """``m`` as a complex array once it is square, finite, Hermitian and of trace 1."""
    m = _require_hermitian(m, tol, NotDensityMatrixError)
    dev = abs(complex(m.trace()) - 1.0)
    if dev > tol:
        raise NotDensityMatrixError(f"trace deviates from 1 by {dev:.3e} > {tol:g}")
    return m


def density_factor(m, tol: float = DEFAULT_TOL) -> tuple:
    """Validate a density matrix; return ``(m, a)`` with ``m = a a^dagger``.

    ``m`` comes back as a complex array.  A failure raises
    :class:`NotDensityMatrixError` naming the first violated invariant:
    shape, finite entries, Hermiticity, trace, or positivity.

    ``a`` is the Cholesky factor when its pivots all exceed the floor d * eps:
    no eigensolve, and a completed Cholesky of a trace-1 matrix certifies
    eigenvalues >= -(d + 1) * eps (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 10), far inside any tolerance.  Otherwise the
    matrix is numerically singular or indefinite, and a pivoted Cholesky
    (Higham, "Analysis of the Cholesky decomposition of a semi-definite
    matrix", 1990; LAPACK ``?pstrf``) stops at the first pivot at or below
    the floor: ``a`` is its d x r support columns, r the numerical rank, one
    column for a pure state.  One residual S = m - a a^dagger certifies it:
    ||S||_2 <= d * max |S_ij| <= ``tol`` puts every eigenvalue of ``m`` at or
    above -``tol``.  Only a matrix that fails this certificate, an indefinite
    one, is solved, to name its least eigenvalue; if that is still within
    ``tol``, ``a`` is the support columns ``v * sqrt(w)`` of ``eigh``.
    ``tol`` must be a finite real >= 0 (``OutOfRangeError``).

    Up to 64 KiB the factor is memoized and read-only (see the module
    docstring): a repeated input is checked and factored once.
    """
    _require_tol(tol)
    m = _as_complex(m, NotDensityMatrixError)
    if m.nbytes > _MEMO_BYTES:
        return m, _factor(m, tol)
    key = (m.shape, tol, m.tobytes())
    a = _memo.get(key)
    if a is None:
        a = _factor(m, tol)
        a.flags.writeable = False
        with _memo_lock:
            _memo[key] = a
            while len(_memo) > _MEMO_ENTRIES:
                del _memo[next(iter(_memo))]
    return m, a


def _factor(m: np.ndarray, tol: float) -> np.ndarray:
    """The factor ``a`` of :func:`density_factor`, with every check, for a complex ``m``."""
    m = _require_unit_trace(m, tol)
    d = m.shape[0]
    floor = d * _EPS
    try:
        a = np.linalg.cholesky(m)
        if a.diagonal().real.min() ** 2 > floor:
            return a
    except np.linalg.LinAlgError:
        pass
    a = _pivoted_cholesky(m, floor)
    resid = a @ a.conj().T
    resid -= m
    if d * float(np.abs(resid).max()) <= tol:
        return a
    w, v = _eigh(m)
    if w[0] < -tol:
        raise NotDensityMatrixError(
            f"matrix is not positive semidefinite: minimum eigenvalue {w[0]:.3e} < -{tol:g}"
        )
    keep = w > floor
    return v[:, keep] * np.sqrt(w[keep])


def _pivoted_cholesky(m: np.ndarray, floor: float) -> np.ndarray:
    """d x r columns ``a`` with ``m = a a^dagger`` up to the remainder at or below ``floor``.

    Left-looking with complete pivoting: each step takes the largest
    remaining diagonal entry as the pivot and forms its column from the
    columns before it, O(d r^2) in all.  It stops when no remaining diagonal
    entry exceeds ``floor``, so r is the numerical rank.
    """
    d = m.shape[0]
    rows = np.empty((d, d), dtype=complex)  # row k is column k of the factor
    diag = m.diagonal().real.copy()
    r = 0
    while r < d:
        j = diag.argmax()
        if not diag[j] > floor:
            break
        col = rows[r]
        np.matmul(rows[:r, j].conj(), rows[:r], out=col)
        np.subtract(m[:, j], col, out=col)
        col /= math.sqrt(diag[j])
        diag -= (col * col.conj()).real
        diag[j] = 0.0
        r += 1
    return rows[:r].T


def require_density(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return ``m`` as a complex array, raising as :func:`density_factor` does."""
    return density_factor(m, tol)[0]


def is_density(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether :func:`require_density` accepts ``m``; raises ``OutOfRangeError``
    for a ``tol`` that is not a finite number >= 0."""
    try:
        density_factor(m, tol)
    except NotDensityMatrixError:
        return False
    return True


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``m`` is a square matrix with orthonormal columns; False for an unreadable one.

    A ``tol`` that is not a finite number >= 0 raises ``OutOfRangeError``.
    """
    _require_tol(tol)
    try:
        m = _as_complex(m, NotUnitaryError)
    except NotUnitaryError:
        return False
    return m.ndim == 2 and m.shape[0] == m.shape[1] and _gram_deviation(m) <= tol


def _gram_deviation(q: np.ndarray) -> float:
    """max |Q^dagger Q - I| over ``q``'s columns: 0 for none, unwarned NaN or inf past floats."""
    with np.errstate(invalid="ignore", over="ignore"):
        gram = q.conj().T @ q
        gram.reshape(-1)[:: q.shape[1] + 1] -= 1  # without an identity array
        return float(np.abs(gram).max(initial=0.0))


@dataclass
class SpectralDecomposition:
    """Eigenvalues sorted descending with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray   # (d,) real, non-increasing
    eigenvectors: np.ndarray  # (d, d) complex, column j pairs with eigenvalues[j]


def eig_hermitian(m, tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with a deterministic basis.

    Eigenvalues come out non-increasing and eigenvectors are fixed as in
    :func:`canonical_eigenvectors`, so the result depends only on the input
    matrix, not on solver internals.
    """
    _require_tol(tol)
    m = _require_hermitian(m, tol, NotHermitianError)
    return SpectralDecomposition(*canonical_eigenvectors(*_eigh(m), m.shape[0]))


def canonical_eigenvectors(w: np.ndarray, v: np.ndarray, count: int) -> tuple:
    """Deterministic basis from an ascending ``np.linalg.eigh`` result ``(w, v)``.

    Returns the eigenvalues in non-increasing order and all matching
    eigenvector columns.  Within any group of eigenvalues that agree to
    :data:`TIE_TOL` and lies wholly inside the first ``count`` columns, the
    eigenvectors are rebuilt by Gram-Schmidt on the projections of the
    canonical basis vectors (taken in index order); the first group that
    reaches past ``count``, and every column after it, keeps the column of
    ``v``.  Every eigenvector's global phase is fixed so that its first
    component above :data:`DEFAULT_TOL` in modulus is real positive.
    """
    w = np.ascontiguousarray(w[::-1].real)
    v = v[:, ::-1].copy()  # the tie groups are rebuilt in place
    edges = [0, *((w[:-1] - w[1:] > TIE_TOL).nonzero()[0] + 1).tolist(), w.shape[0]]
    for start, stop in zip(edges[:-1], edges[1:]):
        if stop > count:
            break
        if stop - start > 1:  # Gram-Schmidt on the projections of e_0, e_1, ... onto the group
            proj = v[:, start:stop] @ v[:, start:stop].conj().T
            v[:, start:stop] = _gram_schmidt(proj.T.copy(), stop - start)
    # A unit column has an entry of modulus >= 1/sqrt(d) > DEFAULT_TOL, so every
    # column has a lead.  hypot gives the bits of abs() on a complex scalar, and
    # the 2-d phase row the bits of a per-column product (numpy rounds a 1x1
    # array times a 1-vector differently).
    lead = v[(np.abs(v) > DEFAULT_TOL).argmax(axis=0), np.arange(v.shape[1])]
    return w, v * (lead.conj() / np.hypot(lead.real, lead.imag))[None, :]


def _gram_schmidt(candidates, size: int) -> np.ndarray:
    """Orthonormalize the ``candidates`` in order until there are ``size`` columns.

    Each candidate is orthogonalized twice (the second pass restores
    precision); residuals no longer than :data:`GS_DROP_TOL` are skipped.
    """
    basis = []
    for vec in candidates:
        if len(basis) == size:
            break
        for _ in range(2):
            for b in basis:
                vec = vec - b * (b.conj() @ vec)
        nrm = float(np.linalg.norm(vec))
        if nrm > GS_DROP_TOL:
            basis.append(vec / nrm)
    if len(basis) != size:  # pragma: no cover - the candidates span the space
        raise NotOrthonormalError("failed to complete an orthonormal basis")
    return np.column_stack(basis)


def matrix_sqrt_psd(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix, from the raw ``eigh``.

    Eigenvalues in ``[-tol, 0)`` are clamped to 0; anything below ``-tol``
    raises :class:`NotPSDError`.
    """
    _require_tol(tol)
    m = _require_hermitian(m, tol, NotHermitianError)
    w, v = _eigh(m)
    if w[0] < -tol:
        raise NotPSDError(f"matrix is not PSD: minimum eigenvalue {w[0]:.3e} < -{tol:g}")
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (s + s.conj().T) / 2


def partial_trace(state, keep, total_qubits: int) -> np.ndarray:
    """Trace a ``2**total_qubits`` density matrix down to the qubits in ``keep``.

    ``keep`` is a nonempty set of distinct integer qubit indices; the output
    orders them ascending.  The trace of the input is preserved.  ``total_qubits``
    must be an integer >= 1 (a ``bool`` is not one).
    """
    if not _is_int(total_qubits) or total_qubits < 1:
        raise DimensionMismatchError(
            f"total_qubits must be an integer >= 1, got {_shown(total_qubits)}"
        )
    m = _as_complex(state, DimensionMismatchError)
    dim = 2 ** total_qubits if total_qubits < 63 else None  # no array has 2**63 rows
    if m.shape != (dim, dim):
        raise DimensionMismatchError(
            f"expected a 2**{_shown(total_qubits)} square matrix, got shape {m.shape}"
        )
    kept = sorted(_require_qubits(keep, total_qubits, DimensionMismatchError))
    dropped = [q for q in range(total_qubits) if q not in kept]
    t = m.reshape([2] * (2 * total_qubits))
    order = kept + dropped
    perm = order + [total_qubits + q for q in order]
    dk = 2 ** len(kept)
    dd = 2 ** len(dropped)
    t = t.transpose(perm).reshape(dk, dd, dk, dd)
    return t.trace(axis1=1, axis2=3)


def _fold(x, mats) -> np.ndarray:
    """Contract axis q of ``x`` (one axis per matrix, read in C order) with ``mats[q]``.

    Each step multiplies the leading axis by its matrix and moves the
    product's axis to the end, so after the last step the axes are back in
    order: O(k * 4**k) work on 4**k coefficients and 4 x 4 maps.
    """
    for m in mats:
        x = (m @ x.reshape(m.shape[1], -1)).T
    return x.reshape([m.shape[0] for m in mats])


def _pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """Tr(rho P) for every k-qubit Pauli string P, as a real (4,)*k array in label order."""
    k = rho.shape[0].bit_length() - 1
    pairs = rho.reshape((2,) * 2 * k).transpose([a for q in range(k) for a in (q, k + q)])
    return _fold(pairs, [_TO_PAULI] * k).real


def _pauli_density(coefficients: np.ndarray) -> np.ndarray:
    """2**-k sum_P c_P P from the 4**k coefficients c_P of the k-qubit strings in label order."""
    k = (coefficients.size.bit_length() - 1) // 2
    pairs = _fold(coefficients, [_FROM_PAULI] * k).reshape((2,) * 2 * k)
    # axes (row, column) per qubit, to the rows of every qubit, then the columns
    return pairs.transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)]).reshape(2 ** k, 2 ** k)


def orthonormal_completion(partial_cols, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Extend orthonormal columns to a full unitary.

    The input columns are kept verbatim as the leading columns; the missing
    ones are the trailing columns of a complete Householder QR of the input,
    deterministic for a given LAPACK.  An empty ``(d, 0)`` input yields the
    identity; NaN or infinite entries raise :class:`NotOrthonormalError`.
    """
    _require_tol(tol)
    q = _as_complex(partial_cols, DimensionMismatchError)
    if q.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array of columns, got ndim={q.ndim}")
    d, k = q.shape
    if k > d:
        raise DimensionMismatchError(f"cannot fit {k} orthonormal columns in dimension {d}")
    if not np.isfinite(q).all():
        raise NotOrthonormalError("columns have NaN or infinite entries")
    err = _gram_deviation(q)
    if not err <= tol:
        raise NotOrthonormalError(
            f"columns are not orthonormal: max Gram deviation {err:.3e} > {tol:g}"
        )
    return q.copy() if k == d else np.hstack([q, np.linalg.qr(q, mode="complete")[0][:, k:]])
