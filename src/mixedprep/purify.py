"""Mixed-state preparation by purification.

A target density matrix of any dimension is padded to 2**n, spectrally
decomposed, and compiled into a 2n-qubit circuit in three stages:

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
from .errors import NotAProbabilityVectorError, _require_real
from .linalg import (
    DEFAULT_TOL,
    RANK_TOL,
    RENORM_TOL,
    SpectralDecomposition,
    canonical_eigenvectors,
    density_eigh,
    require_density,
)
from .realamp import compile_real_state
from .simulator import reduced_density, run


@dataclass
class PreparedCircuitBundle:
    """A 2n-qubit preparation circuit plus the data it was compiled from.

    ``spectral`` is the eigendecomposition of ``target`` and its
    ``eigenvectors`` the basis-change block: canonical eigenvectors for the
    support, the remaining columns as compile's ``eigh`` returned them.
    """

    circuit: Circuit
    system_qubits: tuple
    ancilla_qubits: tuple
    spectral: SpectralDecomposition
    target: np.ndarray  # padded target density matrix


def pad_to_qubit_dimension(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a density matrix in the next power-of-two dimension (minimum 2).

    ``rho`` is validated by :func:`~mixedprep.linalg.require_density` before
    padding, so a full-rank input needs no eigensolve.  Already power-of-two
    inputs pass through unchanged; otherwise the matrix lands in the top-left
    block and the rest is zero, which only adds zero eigenvalues.
    """
    return _padded(require_density(rho, tol))


def _padded(rho: np.ndarray) -> np.ndarray:
    """A nonempty square ``rho`` zero-padded to the next power of two; other shapes as given."""
    if rho.ndim == 2 and 0 < rho.shape[0] == rho.shape[1]:
        d = rho.shape[0]
        full = 2 ** max(1, (d - 1).bit_length())
        if full != d:
            out = np.zeros((full, full), dtype=complex)
            out[:d, :d] = rho
            return out
    return rho


def eigenvalue_amplitudes(spectral: SpectralDecomposition, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Square roots of the eigenvalues, cleaned up for the amplitude compiler.

    Eigenvalues in [-tol, 0) are clamped to zero; anything lower, a sum away
    from 1 beyond tol, or a nonzero imaginary part is rejected.  If clamping
    moved the sum by more than :data:`~mixedprep.linalg.RENORM_TOL` the vector
    is renormalized.
    """
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
    clamped = np.clip(w, 0.0, None)
    total = float(clamped.sum())
    if abs(total - 1.0) > RENORM_TOL:
        clamped = clamped / total
    return np.sqrt(clamped)


def build_preparation_circuit(rho, tol: float = DEFAULT_TOL) -> PreparedCircuitBundle:
    """Compile a density matrix into its 2n-qubit purification circuit.

    The block is the one ``eigh`` of the padded target: the tie groups above
    ``RANK_TOL`` get the canonical basis, and the columns from the first group
    that reaches down to it keep their ``eigh`` eigenvectors, so the loaded
    weights, sub-``RANK_TOL`` ones included, each meet their own eigenvector.
    The block's Gram is not measured here: ``run`` checks it through
    ``validate_circuit``, and ``simulate`` does so for a circuit file.
    """
    # zero padding neither makes nor breaks a density matrix, so this checks rho
    padded, w, v = density_eigh(_padded(np.asarray(rho, dtype=complex)), tol)
    d = padded.shape[0]
    n = d.bit_length() - 1
    spectral = SpectralDecomposition(*canonical_eigenvectors(w, v, int(np.sum(w > RANK_TOL))))
    amps = eigenvalue_amplitudes(spectral, tol)

    circuit = compile_real_state(amps)
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
        target=padded,
    )


def prepare_density(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Compile, simulate, and trace out the ancillas: the round-trip check."""
    bundle = build_preparation_circuit(rho, tol)
    state = run(bundle.circuit)
    return reduced_density(state, bundle.system_qubits)
