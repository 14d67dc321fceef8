"""Mixed-state preparation by purification.

A d x d target density matrix is spectrally decomposed in its own
dimension, padded to D = 2**n with D - d eigenvectors of weight exactly 0,
and compiled into a 2n-qubit circuit in three stages:

1. load the square roots of the eigenvalues as real amplitudes on the
   system register (qubits 0..n-1),
2. copy the register onto the ancillas with a CNOT ladder (qubit s
   controls qubit s+n), entangling each eigenvalue branch with a distinct
   ancilla basis state,
3. rotate the system register from the computational basis into the
   eigenvector basis with one opaque unitary block.

Tracing the ancillas off the simulated state returns the padded target.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Cnot, UnitaryBlock
from .errors import (NotAProbabilityVectorError, NotDensityMatrixError, OutOfRangeError,
                     _as_complex, _require_real, _require_tol)
from .linalg import (
    DEFAULT_TOL,
    RANK_TOL,
    RENORM_TOL,
    SpectralDecomposition,
    _eigh,
    canonical_eigenvectors,
    density_factor,
    require_density,
)
from .realamp import _ry_tree
from .simulator import MAX_TARGET_DIM, reduced_density, run


@dataclass
class PreparedCircuitBundle:
    """A 2n-qubit preparation circuit plus the data it was compiled from.

    ``spectral`` is the eigendecomposition of ``target`` and its
    ``eigenvectors`` the basis-change block: canonical eigenvectors for the
    support, the remaining columns as compile's solve returned them, then
    the identity's columns for the basis states that pad d to D = 2**n.
    The null columns, of a rank-deficient solve and of the padding, have
    eigenvalues exactly 0.
    """

    circuit: Circuit
    system_qubits: tuple
    ancilla_qubits: tuple
    spectral: SpectralDecomposition
    target: np.ndarray  # the target zero-padded to D x D


def pad_to_qubit_dimension(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a density matrix in the next power-of-two dimension (minimum 2).

    ``rho`` is validated by :func:`~mixedprep.linalg.require_density` before
    padding, so a full-rank input needs no eigensolve.  Already power-of-two
    inputs pass through unchanged; otherwise the matrix lands in the top-left
    block and the rest is zero, which only adds zero eigenvalues.
    """
    return _padded(require_density(rho, tol))


def _padded(x: np.ndarray, identity: bool = False) -> np.ndarray:
    """A validated vector or square matrix zero-padded to the next power of two (minimum 2).

    ``identity`` puts ones on the added part of the diagonal.  A power-of-two
    ``x`` comes back as is.
    """
    d = x.shape[0]
    pad = 2 ** max(1, (d - 1).bit_length()) - d
    if not pad:
        return x
    out = np.pad(x, (0, pad))
    if identity:
        out[range(d, d + pad), range(d, d + pad)] = 1.0
    return out


def eigenvalue_amplitudes(spectral: SpectralDecomposition, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Square roots of the eigenvalues, cleaned up for the amplitude compiler.

    Eigenvalues in [-tol, 0) are clamped to zero; anything lower, a sum away
    from 1 beyond tol, or a nonzero imaginary part is rejected.  If clamping
    moved the sum by more than :data:`~mixedprep.linalg.RENORM_TOL` the vector
    is renormalized.  Anything but a ``SpectralDecomposition`` is refused.
    """
    _require_tol(tol)
    if not isinstance(spectral, SpectralDecomposition):
        raise NotAProbabilityVectorError(
            f"expected a SpectralDecomposition, got {type(spectral).__name__}")
    w = _require_real(spectral.eigenvalues, NotAProbabilityVectorError,
                      "eigenvalues must be real")
    if float(w.min()) < -tol:
        raise NotAProbabilityVectorError(
            f"eigenvalue {w.min():.3e} is negative beyond tol={tol:g}"
        )
    if not abs(float(w.sum()) - 1.0) <= tol:
        raise NotAProbabilityVectorError(
            f"eigenvalues sum to {w.sum()!r}, expected 1 within {tol:g}"
        )
    return _amplitudes(w)


def _amplitudes(w: np.ndarray) -> np.ndarray:
    """Square roots of ``w`` clamped at 0, renormalized if the sum is off 1 by > RENORM_TOL."""
    clamped = np.maximum(w, 0.0)
    total = float(clamped.sum())
    if abs(total - 1.0) > RENORM_TOL:
        clamped = clamped / total
    return np.sqrt(clamped)


def build_preparation_circuit(rho, tol: float = DEFAULT_TOL) -> PreparedCircuitBundle:
    """Compile a d x d density matrix into its 2n-qubit purification circuit.

    ``rho`` is validated and solved as given, once its size is known to fit
    (d <= :data:`~mixedprep.simulator.MAX_TARGET_DIM`, checked before any
    d x d work).  Its :func:`~mixedprep.linalg.density_factor` decides the
    solve: one d x d ``eigh`` at full rank, otherwise one r x r ``eigh`` on
    the factor's range, whose null columns carry weight exactly 0.  The tie
    groups above ``RANK_TOL`` get the canonical basis, and the columns from
    the first group that reaches down to it keep their solved eigenvectors,
    so the loaded weights, sub-``RANK_TOL`` ones included, each meet their
    own eigenvector.  Then the result is padded to D = 2**n: weight 0 and
    the identity's columns for the added basis states, and a solved weight
    rounded below them clamped to 0, as the loader would load it.  The
    loader takes their square roots as :func:`eigenvalue_amplitudes` does,
    with no second check of the spectrum ``density_factor`` certified.  The
    block's Gram is not measured here: ``run`` checks it through
    ``validate_circuit``, and ``simulate`` does so for a circuit file.
    """
    if not isinstance(rho, np.ndarray):  # an array's shape is read before any conversion
        rho = _as_complex(rho, NotDensityMatrixError)
    if rho.ndim and rho.shape[0] > MAX_TARGET_DIM:
        raise OutOfRangeError(f"a {rho.shape[0]} x {rho.shape[0]} target exceeds the largest "
                              f"that compiles, {MAX_TARGET_DIM} x {MAX_TARGET_DIM}")
    rho, a = density_factor(rho, tol)
    w, v = _support_eigh(rho, a)
    values, vectors = canonical_eigenvectors(w, v, np.count_nonzero(w > RANK_TOL))
    target = _padded(rho)
    if target is not rho:
        values, vectors = _padded(np.maximum(values, 0.0)), _padded(vectors, identity=True)
    spectral = SpectralDecomposition(values, vectors)
    amps = _amplitudes(values)
    d = amps.shape[0]
    n = d.bit_length() - 1

    circuit = _ry_tree(amps)
    circuit.num_qubits = 2 * n
    circuit.label = f"mixed-state preparation ({d}x{d} target)"
    for s in range(n):
        circuit.gates.append(Cnot(control=s, target=s + n))
    circuit.gates.append(UnitaryBlock(range(n), spectral.eigenvectors))

    return PreparedCircuitBundle(
        circuit=circuit,
        system_qubits=tuple(range(n)),
        ancilla_qubits=tuple(range(n, 2 * n)),
        spectral=spectral,
        target=target,
    )


def _support_eigh(m: np.ndarray, a: np.ndarray) -> tuple:
    """Ascending eigenvalues and eigenvectors of ``m = a a^dagger``, solved on the range of ``a``.

    A square ``a`` means full rank and one ``eigh`` of ``m``.  Otherwise the
    complete QR of ``a`` gives an orthonormal basis S of its range and one of
    the null space.  The null columns come first, with weight exactly 0, then
    S times the eigenvectors of S^dagger m S, whose eigenvalues are clamped
    at 0 so that none sorts below the null weights.  By Cauchy interlacing
    they lie at or above the least eigenvalue of ``m``, which
    ``density_factor`` certified to be at or above -tol, so the clamp moves
    none further than the loader's own clamp would.
    """
    d, r = a.shape
    if r == d:
        return _eigh(m)
    q = np.linalg.qr(a, mode="complete")[0]
    s = q[:, :r]
    w, u = _eigh(s.conj().T @ m @ s)
    return (np.concatenate([np.zeros(d - r), np.maximum(w, 0.0)]),
            np.hstack([q[:, r:], s @ u]))


def prepare_density(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Compile, simulate, and trace out the ancillas: the round-trip check."""
    bundle = build_preparation_circuit(rho, tol)
    state = run(bundle.circuit)
    return reduced_density(state, bundle.system_qubits)
