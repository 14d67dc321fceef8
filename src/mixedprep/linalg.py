"""Dense complex linear algebra shared by the whole package.

Matrices are plain numpy arrays with complex entries.  Qubit 0 is always
the most significant bit of a basis-state index, so the first tensor
factor of a Kronecker product owns the leading block of the matrix.

Density matrices are checked in one place, :func:`density_factor`, and a
refusal names the first violated invariant of shape, finite entries,
Hermiticity, trace and positivity, in that order.  The checks run in
another order, so that the matrix is read as few times as possible: shape,
then the trace from the diagonal alone, then the factorization.  The d x d
Hermitian test runs before the calls that read one triangle, the full
Cholesky and ``eigh``, and on every refusal; a failed shape or trace check
runs the named order and raises its first failure.  On the pivoted path a
certified residual S = G - m, G = fl(a a^dagger), stands in for the test:
m - m^dagger = (G - G^dagger) - (S - S^dagger), and where the rounding of
G is within a quarter of ``tol`` (see :func:`density_factor`) that is at
most 3/8 of ``tol``.  A rank-deficient matrix the leading-block probe
refuses is then read in full once, by the residual.

:func:`density_factor` reads positivity off a Cholesky factorization;
where that fails or a pivot is at the rounding level, off a pivoted
Cholesky that stops at the numerical rank and one residual that certifies
it.  It solves only for a matrix that fails the certificate, to name its
least eigenvalue.  It is the check of every caller, compile included, and
compile reads the spectrum off its factor: one d x d ``eigh`` for a
full-rank matrix, one SVD of the d x r factor for a rank-r one.

Each matrix is certified at its own rank and size.  From d = 16 on, the
leading (d // 8) x (d // 8) block is factored first, at most 1/512 of the
full Cholesky's flops: every leading block of a positive definite matrix is
positive definite, and its pivots are the full matrix's first ones, so
where the block fails or has a pivot squared at or below its own floor
k * eps, k = d // 8, the d x d Cholesky would be refused too, and is not
run.  The block's floor is an eighth of the full one so that the rounding
by which the two calls' pivots differ cannot send a matrix the full
Cholesky accepts to the pivoted one (at d = 256 the floor d * eps did so
for 18 of 3080 matrices with a pivot near it).  A rank-r < d // 8 matrix
goes straight to the pivoted Cholesky, and a full-rank one makes the same
full call as without the probe, with the same bytes.  A matrix that is exactly
rho (+) 0, rho p x p, as a padded target is, is checked and factored as
rho, and its factor gains the d - p zero rows.

Each certificate costs less than the answer it certifies, and keeps its
decision.  Three of them are whole-array passes:

- The Hermitian test writes conj(m^T) - m into one d x d scratch array in
  ``m``'s memory order, and
  :func:`_deviation` measures it in place: the largest |Re| or |Im| of its
  entries first.  |z| <= sqrt(2) * max(|Re z|, |Im z|), so 1.5 times that
  largest part at or below ``tol`` accepts (the 1.5 leaves room for the
  rounding of ``hypot``).  For any other matrix the moduli are taken from
  the same scratch array, which by then holds |Re z| + i |Im z|: they have
  the bits of |m - m^dagger|.  A refusal checks finite entries, then names
  max |m - m^dagger|.  A NaN or inf entry makes the deviation NaN or inf, so
  it is never accepted, and every refusal keeps its message and order.
- The Cholesky residual S = a a^dagger - m is measured by the same
  :func:`_deviation`, scaled by d: 1.5 * d * max(|Re S|, |Im S|) <= ``tol``
  accepts, and d * max |S| decides the rest.  Only a deviation at or below
  ``tol`` certifies: a factor column that overflows makes S inf or, through
  inf * 0, NaN, and such a matrix is solved and refused, unwarned.
- The Gram Q^dagger Q of ``is_unitary`` and ``orthonormal_completion`` is
  Hermitian, so a column range wider than 128 is halved: the product of its
  halves is the off-diagonal block, its mirror has the same moduli, and each
  half recurses: 3/4 of the one product's flops at d = 256 and 5/8 at
  d = 512.  A d <= 128 input still makes the one product.

One pipeline verifies the same matrix more than once (compile and then
``fidelity`` the target, ``fidelity``, ``concurrence`` and the coherences
the prepared state), so :func:`density_factor` keeps the factors of its
``_MEMO_ENTRIES`` = 8 most recently used accepted inputs in a
``functools.lru_cache``, within the process only.  The key is the content:
shape, ``tol`` and the bytes of the complex array, so a changed input is a
new key and is checked again, and a rejected one is never stored (a raise is
not cached).  Memoized factors are read-only, on a miss too, so no caller can
alter a stored one.  An input over ``_MEMO_BYTES`` = 64 KiB (d > 64) bypasses
the memo and gets a writable factor.

The canonical eigenbasis is built, by :func:`canonical_eigenvectors`, only
where a basis leaves the library: :func:`eig_hermitian` and the compiled
block, whose every column is an eigenvector from compile's one solve: the
support groups canonical, the rest as the solve returned them.  The block is
not measured at compile: ``validate_circuit`` checks it once, when it runs.
It is whole-array work but for the Gram-Schmidt of tied groups: one
comparison finds the groups and one product fixes every column's phase.  A
g-fold group is rebuilt in its own g coordinates, not in C^d: with V its
d x g columns, the projection of e_i onto the group is V times row i of
conj(V), so the Gram-Schmidt runs on those g-vectors into one g x g array,
one projection against the accepted block per pass, and one d x g by g x g
product gives the group's columns.  No d x d projector is formed.
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

import functools
import math
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
    _require_tol,
)

__all__ = ["DEFAULT_TOL", "SpectralDecomposition", "eig_hermitian", "is_unitary", "matrix_sqrt_psd",
           "orthonormal_completion", "require_density"]

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

# density_factor's memo: the factors of the most recently used accepted
# inputs of at most _MEMO_BYTES
_MEMO_ENTRIES = 8
_MEMO_BYTES = 2 ** 16

# _gram_deviation forms one product for at most this many columns, and halves
# a wider range
_GRAM_LEAF = 128


def _require_hermitian(m, tol: float, error: type) -> np.ndarray:
    """``m`` as a complex array once it is square, finite and Hermitian within ``tol``.

    One d x d scratch array, in ``m``'s memory order, holds m^dagger - m, and
    :func:`_deviation` measures it in place; a refusal names the finite test
    or max |m - m^dagger|, as the module docstring says.  A ufunc that reads
    two operands of different layouts allocates a buffer of up to 128 KiB,
    so m^T is copied, not conjugated, into it, and a matrix that is neither
    C- nor Fortran-contiguous, such as a slice, is subtracted a row at a time.
    """
    m = _as_complex(m, error)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise error(f"expected a nonempty square matrix, got shape {m.shape}")
    diff = m.T.copy(order="F" if m.flags.f_contiguous else "C")  # the one d x d scratch array
    # z is the scratch array as a C-ordered view, x is m in the same axes
    z, x = (diff, m) if diff.flags.c_contiguous else (diff.T, m.T)
    with np.errstate(invalid="ignore", over="ignore"):
        np.conjugate(z, out=z)
        if z.strides == x.strides:
            np.subtract(z, x, out=z)
        else:  # a slice: one contiguous row pair at a time
            for out, row in zip(z, x):
                np.subtract(out, row, out=out)
        asym = _deviation(z, tol)  # NaN or inf for a NaN or inf entry
    if asym <= tol:
        return m
    del diff, z  # freed before the finite test's d x d mask is allocated
    if not np.isfinite(m).all():
        raise error("matrix has NaN or infinite entries")
    raise error(f"matrix is not Hermitian: max |m - m^dagger| = {asym:.3e} > {tol:g}")


def _deviation(z: np.ndarray, tol: float, scale: int = 1) -> float:
    """``scale`` * max |z_ij| of a C-ordered complex ``z``, or a bound of it at or below ``tol``.

    Parts first: |z_ij| <= sqrt(2) * max(|Re z_ij|, |Im z_ij|), so where 1.5
    times ``scale`` times the largest part is within ``tol`` (the 1.5 leaves
    room for the rounding of ``hypot``), that bound is the answer.  Only
    otherwise are the moduli taken, in place over the real parts, with the
    bits of ``np.abs(z)``.  ``z`` is overwritten, and a NaN entry gives NaN.
    """
    part = z.view(float)
    bound = 1.5 * scale * float(np.abs(part, out=part).max())
    if bound <= tol:
        return bound
    return scale * float(np.hypot(z.real, z.imag, out=z.real).max())


def _eigh(m: np.ndarray) -> tuple:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc


def _require_unit_trace(m, tol: float) -> np.ndarray:
    """``m`` as a complex array once it is square, finite, Hermitian and of trace 1."""
    m = _require_hermitian(m, tol, NotDensityMatrixError)
    dev = _trace_deviation(m)
    if not dev <= tol:
        raise NotDensityMatrixError(f"trace deviates from 1 by {dev:.3e} > {tol:g}")
    return m


def _trace_deviation(m: np.ndarray) -> float:
    """|Tr m - 1| of a square ``m``, from its diagonal only; NaN for a NaN there."""
    # Python's complex sum goes past the float range to inf or NaN with no warning, and is refused
    return abs(sum(m.diagonal().tolist()) - 1.0)


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
    ``tol`` must be a finite real >= 0 (``OutOfRangeError``).  A matrix with
    no eigenvalue above the floor has no weight, and is refused, whatever
    ``tol``: its factor would have no columns.

    From d = 16 on, a Cholesky of the leading k x k block, k = d // 8, comes
    first; if it fails or a pivot squared is at or below the block's own
    floor k * eps, the d x d one would be refused too, and the pivoted
    Cholesky is next.  An exactly padded
    m = rho (+) 0 is checked and factored at rho's size p, and ``a`` gains
    d - p zero rows; a NaN in the zero block makes it not padded, and it is
    refused whole.

    The checks run in the order shape, trace (from the diagonal), probe,
    then factorization; a failed shape or trace check runs the named order
    above and raises its first failure.  The d x d Hermitian test runs
    before the full Cholesky and ``eigh``, which read one triangle, and
    wherever the pivoted residual does not stand in for it.  It stands in
    where the residual is certified and the rounding margin is small: with
    G = fl(a a^dagger) and S = fl(G - m), m - m^dagger = (G - G^dagger) -
    (S - S^dagger) up to the rounding of the subtraction, u * |S|.  The
    certificate bounds max |S_ij| by tol / d, so the second term is at most
    2 tol / d <= tol / 8, d >= 16 wherever a probe runs.  a a^dagger is
    Hermitian, so the first term is the rounding of two entries of G, each
    a length-r complex inner product within gamma_{r+2} ||a_i|| ||a_j|| of
    the exact one (Higham, ch. 3), a_i row i of ``a``: at most 2 gamma_{r+2}
    max_i ||a_i||^2, to first order the margin (r + 2) * eps * max_i G_ii.
    Where the margin is at most tol / 4, max |m - m^dagger| <= 3 tol / 8,
    which the test, to within its own few ulps of rounding, accepts, and it
    is skipped.  At a smaller ``tol``, below 4 (r + 2) eps max_i G_ii (at
    most 5.3e-15 for a rank-4 matrix of trace 1), it runs.  Neither the
    order nor the skip changes a decision, a factor's bytes or a message.

    Up to 64 KiB the factor is memoized and read-only (see the module
    docstring): a repeated input is checked and factored once.
    """
    _require_tol(tol)
    m = _as_complex(m, NotDensityMatrixError)
    if m.nbytes > _MEMO_BYTES:
        return m, _factor(m, tol)
    return m, _memo(m.shape, tol, m.tobytes())


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _memo(shape: tuple, tol: float, data: bytes) -> np.ndarray:
    """The read-only :func:`_factor` of the complex matrix with these bytes."""
    a = _factor(np.frombuffer(data, dtype=complex).reshape(shape), tol)
    a.flags.writeable = False
    return a


def _factor(m: np.ndarray, tol: float) -> np.ndarray:
    """The factor ``a`` of :func:`density_factor`, with every check, for a complex ``m``.

    An exactly padded m = rho (+) 0 is checked and factored as its p x p
    block rho, and the factor gains the d - p zero rows.
    """
    p = _padding_start(m)
    if not p:
        return _certified_factor(m, tol)
    b = _certified_factor(m[:p, :p], tol)
    a = np.zeros((m.shape[0], b.shape[1]), dtype=complex)
    a[:p] = b
    return a


def _padding_start(m: np.ndarray) -> int:
    """p where ``m`` is exactly 0 outside its leading p x p block, 0 < p < d; else 0.

    Only a square ``m`` whose last diagonal entry is exactly 0 is looked at:
    its last nonzero diagonal entry gives p, and one ``.any()`` over the rows
    and columns past p, where a NaN counts as nonzero, confirms it.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2 or m[-1, -1] != 0:
        return 0
    d = m.shape[0]
    p = d - int((m.diagonal() != 0)[::-1].argmax())  # d when the diagonal is all 0
    if p == d or m[p:].any() or m[:p, p:].any():
        return 0
    return p


def _certified_factor(m: np.ndarray, tol: float) -> np.ndarray:
    """:func:`_factor` for a matrix that is not exactly padded.

    The Hermitian test runs before the full Cholesky and ``eigh``, which read
    one triangle, and on every refusal, so the first violated invariant is
    named; a rank-deficient matrix whose residual certifies it skips the test
    (see :func:`density_factor`).
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size or not _trace_deviation(m) <= tol:
        _require_unit_trace(m, tol)  # raises: shape, finite entries, Hermiticity, then trace
    d = m.shape[0]
    floor = d * _EPS
    k = d // 8  # a leading block: at most 1/512 of the full Cholesky's flops
    checked = k < 2 or _cholesky(m[:k, :k], k * _EPS) is not None  # the probe reads m unchecked
    if checked:
        _require_hermitian(m, tol, NotDensityMatrixError)
        a = _cholesky(m, floor)
        if a is not None:
            return a
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the residual
        a = _pivoted_cholesky(m, floor)
        resid = a @ a.conj().T
        # max |G - G^dagger| of G = fl(a a^dagger) <= 2 gamma_{r+2} max_i ||a_i||^2, to first order
        margin = (a.shape[1] + 2) * _EPS * resid.diagonal().real.max()
        certified = _deviation(np.subtract(resid, m, out=resid), tol, d) <= tol  # not for NaN
    if not (checked or (certified and margin <= tol / 4)):  # else the residual stands in
        _require_hermitian(m, tol, NotDensityMatrixError)
    if not certified:
        w, v = _eigh(m)
        if w[0] < -tol:
            raise NotDensityMatrixError(
                f"matrix is not positive semidefinite: minimum eigenvalue {w[0]:.3e} < -{tol:g}"
            )
        keep = w > floor
        a = v[:, keep] * np.sqrt(w[keep])
    if not a.shape[1]:
        raise NotDensityMatrixError(
            f"matrix has no weight: no eigenvalue exceeds the floor d * eps = {floor:.3e}"
        )
    return a


def _cholesky(m: np.ndarray, floor: float):
    """The Cholesky factor of ``m`` if every pivot squared exceeds ``floor``, else None."""
    try:
        a = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return a if a.diagonal().real.min() ** 2 > floor else None


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


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``m`` is a square matrix with orthonormal columns; False for an unreadable one.

    The test is max |M^dagger M - I| <= ``tol``, from the Gram's upper blocks
    only (:func:`_gram_deviation`); a NaN or inf entry answers False, unwarned.
    A ``tol`` that is not a finite number >= 0 raises ``OutOfRangeError``.
    """
    _require_tol(tol)
    try:
        m = _as_complex(m, NotUnitaryError)
    except NotUnitaryError:
        return False
    return m.ndim == 2 and m.shape[0] == m.shape[1] and _gram_deviation(m) <= tol


def _gram_deviation(q: np.ndarray) -> float:
    """max |Q^dagger Q - I| over ``q``'s columns: 0 for none, unwarned NaN or inf past floats.

    Q^dagger Q is Hermitian, so only its upper triangle of blocks is formed:
    a column range wider than ``_GRAM_LEAF`` = 128 is halved, the product of
    its two halves is the off-diagonal block (its mirror has the same
    moduli), and each half recurses: 3/4 of the full product's flops at 256
    columns, 5/8 at 512.  Up to 128 columns it is the one product
    Q^dagger Q; past them an entry may differ from the full product's in its
    rounding only.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return float(_gram_blocks(q))


def _gram_blocks(q: np.ndarray):
    """:func:`_gram_deviation` of the columns ``q``, without its ``errstate``; keeps a NaN."""
    k = q.shape[1]
    if k <= _GRAM_LEAF:
        gram = q.conj().T @ q
        gram.reshape(-1)[:: k + 1] -= 1  # without an identity array
        return np.abs(gram).max(initial=0.0)
    left, right = q[:, : k // 2], q[:, k // 2:]
    return np.max([np.abs(left.conj().T @ right).max(), _gram_blocks(left), _gram_blocks(right)])


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
    canonical basis vectors (taken in index order), as V times the g x g
    coefficients of :func:`_gram_schmidt`, V the group's d x g columns; the
    first group that reaches past ``count``, and every column after it,
    keeps the column of ``v``.  Every eigenvector's global phase is fixed so
    that its first component above :data:`DEFAULT_TOL` in modulus is real
    positive.
    """
    w = np.ascontiguousarray(w[::-1].real)
    v = v[:, ::-1].copy()  # the tie groups are rebuilt in place
    edges = [0, *((w[:-1] - w[1:] > TIE_TOL).nonzero()[0] + 1).tolist(), w.shape[0]]
    for start, stop in zip(edges[:-1], edges[1:]):
        if stop - start > 1 and stop <= count:  # a tie group within the first count columns
            v[:, start:stop] = v[:, start:stop] @ _gram_schmidt(v[:, start:stop].conj())
    # A unit column has an entry of modulus >= 1/sqrt(d) > DEFAULT_TOL, so every
    # column has a lead.  hypot gives the bits of abs() on a complex scalar, and
    # the 2-d phase row the bits of a per-column product (numpy rounds a 1x1
    # array times a 1-vector differently).
    lead = v[(np.abs(v) > DEFAULT_TOL).argmax(axis=0), np.arange(v.shape[1])]
    return w, v * (lead.conj() / np.hypot(lead.real, lead.imag))[None, :]


def _gram_schmidt(coords: np.ndarray) -> np.ndarray:
    """The g x g coefficients of the Gram-Schmidt basis of a tie group, from its d x g coordinates.

    Row i of ``coords`` is c_i = conj(V[i, :]), V the group's d x g
    orthonormal columns, so the projection P e_i = V V^dagger e_i is V c_i,
    and V is an isometry: Gram-Schmidt of the c_i in index order, times V,
    is the Gram-Schmidt of P e_0, P e_1, ..., with the same residual norms.
    Each candidate is projected off the whole accepted block twice, one
    matrix-vector product for its coefficients and one for their sum per
    pass (classical Gram-Schmidt twice keeps orthogonality as the modified
    form does: Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 1069
    (2005)).  Residuals no longer than :data:`GS_DROP_TOL` are skipped, and
    the g-th accepted column ends the loop.
    """
    g = coords.shape[1]
    rows = np.empty((g, g), dtype=coords.dtype)  # row k is accepted column k
    k = 0
    for vec in coords:
        for _ in range(2):  # contiguous rows and a conjugated vector: no k x g copy
            vec = vec - (rows[:k] @ vec.conj()).conj() @ rows[:k]
        nrm = float(np.linalg.norm(vec))
        if nrm > GS_DROP_TOL:
            rows[k] = vec / nrm
            k += 1
            if k == g:
                return rows.T
    raise NotOrthonormalError("failed to complete an orthonormal basis")  # pragma: no cover


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


def _trace_down(m: np.ndarray, kept: list, total_qubits: int) -> np.ndarray:
    """Trace ``m`` down to the qubits in ``kept``, with no check: ``m`` is a
    ``2**total_qubits`` square complex array and ``kept`` its qubits to keep,
    distinct and ascending; the output orders them ascending.

    The caller, ``metrics.local_l1_coherence``, has certified ``m`` as a density
    matrix: its entries are at most 1 in size, so no sum overflows.
    """
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
