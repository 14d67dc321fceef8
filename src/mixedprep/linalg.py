"""Dense complex linear algebra shared by the whole package.

Matrices are plain numpy arrays with complex entries.  Qubit 0 is always
the most significant bit of a basis-state index, so the first tensor
factor of a Kronecker product owns the leading block of the matrix.

Density matrices are checked in one place: shape, finite entries,
Hermiticity and trace, then positivity.  :func:`density_factor` reads
positivity off a Cholesky factorization and solves only when that fails;
it is the check of every caller that does not need the spectrum.
:func:`density_eigh` reads positivity off the one ``eigh`` it returns, so
compile, the one caller that needs the spectrum, never solves twice.

The canonical eigenbasis is built, by :func:`canonical_eigenvectors`, only
where a basis leaves the library: :func:`eig_hermitian` and the support
columns of the compiled block, which :func:`orthonormal_completion` fills up
from one complete Householder QR.  It is whole-array work but for the
Gram-Schmidt of tied groups: one comparison finds the groups and one product
fixes every column's phase.  Square roots read the raw ``eigh``.

Every threshold of the package is a constant here:

==================  =====  ===================================================
constant            value  reason
==================  =====  ===================================================
DEFAULT_TOL         1e-10  validation slack of library calls on computed data
FILE_VALIDATE_TOL   1e-8   slack for matrices read from files and the CLI
TIE_TOL             1e-12  eigenvalues this close form one degenerate group
RANK_TOL            1e-12  eigenvalues above it get an eigenvector column
RENORM_TOL          1e-12  clamping that moves the eigenvalue sum more renorms
GS_DROP_TOL         1e-8   Gram-Schmidt drops residuals shorter than this
EIGVEC_ORTHO_TOL    1e-8   Gram deviation accepted of solver eigenvectors
PROB_TOL            1e-12  rounding slack of family probabilities/eigenvalues
==================  =====  ===================================================

The floor of :func:`density_factor` is not in the table: it is d * eps, the
rounding level of a trace-1 matrix, so it scales with the dimension.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotDensityMatrixError,
    NotHermitianError,
    NotOrthonormalError,
    NotPSDError,
)

DEFAULT_TOL = 1e-10
FILE_VALIDATE_TOL = 1e-8
TIE_TOL = 1e-12
RANK_TOL = 1e-12
RENORM_TOL = 1e-12
GS_DROP_TOL = 1e-8
EIGVEC_ORTHO_TOL = 1e-8
PROB_TOL = 1e-12


def _require_hermitian(m, tol: float, error: type) -> np.ndarray:
    """``m`` as a complex array once it is square, finite and Hermitian within ``tol``."""
    m = np.asarray(m, dtype=complex)
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
    dev = abs(complex(np.trace(m)) - 1.0)
    if dev > tol:
        raise NotDensityMatrixError(f"trace deviates from 1 by {dev:.3e} > {tol:g}")
    return m


def _positive_eigh(m: np.ndarray, tol: float) -> tuple:
    w, v = _eigh(m)
    if w[0] < -tol:
        raise NotDensityMatrixError(
            f"matrix is not positive semidefinite: minimum eigenvalue {w[0]:.3e} < -{tol:g}"
        )
    return w, v


def density_eigh(m, tol: float = DEFAULT_TOL) -> tuple:
    """Validate a density matrix; return ``(m, w, v)`` with ``w, v = eigh(m)``.

    ``m`` comes back as a complex array, ``w`` ascending.  A failure raises
    :class:`NotDensityMatrixError` naming the first violated invariant:
    shape, finite entries, Hermiticity, trace, or positivity.
    """
    m = _require_unit_trace(m, tol)
    return (m, *_positive_eigh(m, tol))


def density_factor(m, tol: float = DEFAULT_TOL) -> tuple:
    """Validate ``m`` as :func:`density_eigh` does; return ``(m, a)`` with ``m = a a^dagger``.

    ``a`` is the Cholesky factor when its pivots all exceed the floor d * eps:
    no eigensolve, and a completed Cholesky of a trace-1 matrix certifies
    eigenvalues >= -(d + 1) * eps (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 10), far inside any tolerance.  Otherwise the
    matrix is indefinite or numerically singular: positivity is read off
    ``eigh`` and ``a`` is the support columns ``v * sqrt(w)``, ``w`` above
    the floor, one column for a pure state.
    """
    m = _require_unit_trace(m, tol)
    floor = m.shape[0] * np.finfo(float).eps
    try:
        a = np.linalg.cholesky(m)
        if np.diagonal(a).real.min() ** 2 > floor:
            return m, a
    except np.linalg.LinAlgError:
        pass
    w, v = _positive_eigh(m, tol)
    keep = w > floor
    return m, v[:, keep] * np.sqrt(w[keep])


def require_density(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return ``m`` as a complex array, raising as :func:`density_factor` does."""
    return density_factor(m, tol)[0]


def is_density(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether :func:`require_density` accepts ``m``."""
    try:
        density_factor(m, tol)
    except NotDensityMatrixError:
        return False
    return True


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    try:
        _require_hermitian(m, tol, NotHermitianError)
    except NotHermitianError:
        return False
    return True


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and _gram_deviation(m) <= tol


def _gram_deviation(q: np.ndarray) -> float:
    """max |Q^dagger Q - I| over the columns of ``q``: 0 for none, NaN for a NaN entry."""
    gram = q.conj().T @ q
    gram.reshape(-1)[:: q.shape[1] + 1] -= 1  # without an identity array
    return float(np.abs(gram).max(initial=0.0))


@dataclass
class SpectralDecomposition:
    """Eigenvalues sorted descending with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray   # (d,) real, non-increasing
    eigenvectors: np.ndarray  # (d, d) complex, column j pairs with eigenvalues[j]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(m, tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with a deterministic basis.

    Eigenvalues come out non-increasing and eigenvectors are fixed as in
    :func:`canonical_eigenvectors`, so the result depends only on the input
    matrix, not on solver internals.
    """
    m = _require_hermitian(m, tol, NotHermitianError)
    return SpectralDecomposition(*canonical_eigenvectors(*_eigh(m), m.shape[0]))


def canonical_eigenvectors(w: np.ndarray, v: np.ndarray, count: int) -> tuple:
    """Deterministic basis from an ascending ``np.linalg.eigh`` result ``(w, v)``.

    Returns the eigenvalues in non-increasing order and the first ``count``
    matching eigenvector columns.  Within any group of eigenvalues that
    agree to :data:`TIE_TOL`, the eigenvectors are rebuilt by Gram-Schmidt
    on the projections of the canonical basis vectors (taken in index
    order), and every eigenvector's global phase is fixed so that its first
    component above :data:`DEFAULT_TOL` in modulus is real positive.  Groups
    that start at or past column ``count`` are never built; a column does
    not depend on ``count``.
    """
    w = np.ascontiguousarray(w[::-1].real)
    v = np.ascontiguousarray(v[:, ::-1])
    out = v[:, :count].copy()
    edges = [0, *(np.flatnonzero(w[:-1] - w[1:] > TIE_TOL) + 1).tolist(), w.shape[0]]
    for start, stop in zip(edges[:-1], edges[1:]):
        if start >= count:
            break
        if stop - start > 1:  # Gram-Schmidt on the projections of e_0, e_1, ... onto the group
            proj = v[:, start:stop] @ v[:, start:stop].conj().T
            out[:, start:stop] = _gram_schmidt(proj.T.copy(), min(stop, count) - start)
    # A unit column has an entry of modulus >= 1/sqrt(d) > DEFAULT_TOL, so every
    # column has a lead.  hypot gives the bits of abs() on a complex scalar, and
    # the 2-d phase row the bits of a per-column product (numpy rounds a 1x1
    # array times a 1-vector differently).
    lead = out[(np.abs(out) > DEFAULT_TOL).argmax(axis=0), np.arange(count)]
    return w, out * (lead.conj() / np.hypot(lead.real, lead.imag))[None, :]


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
    m = _require_hermitian(m, tol, NotHermitianError)
    w, v = _eigh(m)
    if w[0] < -tol:
        raise NotPSDError(f"matrix is not PSD: minimum eigenvalue {w[0]:.3e} < -{tol:g}")
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (s + s.conj().T) / 2


def partial_trace(state, keep, total_qubits: int) -> np.ndarray:
    """Trace a ``2**total_qubits`` density matrix down to the qubits in ``keep``.

    ``keep`` is a nonempty set of qubit indices; the output orders them
    ascending.  The trace of the input is preserved.
    """
    m = np.asarray(state, dtype=complex)
    dim = 2 ** total_qubits
    if m.shape != (dim, dim):
        raise DimensionMismatchError(
            f"expected a {dim}x{dim} matrix for {total_qubits} qubits, got {m.shape}"
        )
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise DimensionMismatchError("keep must be a nonempty set of qubit indices")
    if kept[0] < 0 or kept[-1] >= total_qubits:
        raise DimensionMismatchError(
            f"keep indices {kept} out of range for {total_qubits} qubits"
        )
    dropped = [q for q in range(total_qubits) if q not in kept]
    t = m.reshape([2] * (2 * total_qubits))
    order = kept + dropped
    perm = order + [total_qubits + q for q in order]
    dk = 2 ** len(kept)
    dd = 2 ** len(dropped)
    t = t.transpose(perm).reshape(dk, dd, dk, dd)
    return np.trace(t, axis1=1, axis2=3)


def kron(a, b) -> np.ndarray:
    """Kronecker product; the left factor owns the most significant index bits."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def orthonormal_completion(partial_cols, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Extend orthonormal columns to a full unitary.

    The input columns are kept verbatim as the leading columns; the missing
    ones are the trailing columns of a complete Householder QR of the input,
    deterministic for a given LAPACK.  An empty ``(d, 0)`` input yields the
    identity; NaN or infinite entries raise :class:`NotOrthonormalError`.
    """
    q = np.asarray(partial_cols, dtype=complex)
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
    if k == d:
        return q.copy()
    return np.hstack([q, np.linalg.qr(q, mode="complete")[0][:, k:]])
