"""Compile mixed quantum states into purification circuits and verify them.

The pipeline: a target density matrix is eigendecomposed, the square roots
of its eigenvalues are loaded as real amplitudes on a system register, a
CNOT ladder copies the register onto ancillas, and a basis-change unitary
rotates the system into the eigenvector basis.  Tracing the ancillas off
the simulated 2n-qubit state returns the target.  Everything here is exact
dense numpy; the heaviest supported register is 24 qubits.
"""

__version__ = "0.1.0"

from .circuits import (
    Circuit,
    Cnot,
    Gate,
    MultiControlledRy,
    Ry,
    UnitaryBlock,
    gate_qubits,
    validate_circuit,
)
from .errors import (
    BadLabelError,
    BadProbabilitiesError,
    DimensionMismatchError,
    FormatError,
    IndexOutOfRangeError,
    LevelOutOfRangeError,
    MissingExpectationError,
    NegativeAmplitudeError,
    NoConvergenceError,
    NotAProbabilityVectorError,
    NotDensityMatrixError,
    NotHermitianError,
    NotNormalizedError,
    NotOrthonormalError,
    NotPSDError,
    NotUnitaryError,
    OutOfRangeError,
    StatePrepError,
)
from .linalg import (
    DEFAULT_TOL,
    SpectralDecomposition,
    eig_hermitian,
    is_density,
    is_unitary,
    matrix_sqrt_psd,
    orthonormal_completion,
    partial_trace,
    require_density,
)
from .metrics import (
    concurrence,
    exact_pauli_expectations,
    fidelity,
    l1_coherence,
    local_l1_coherence,
    pauli_labels,
    pauli_matrix,
    tomography_reconstruct,
)
from .purify import (
    PreparedCircuitBundle,
    build_preparation_circuit,
    eigenvalue_amplitudes,
    pad_to_qubit_dimension,
    prepare_density,
)
from .realamp import branch_norms, compile_real_state, rotation_angle
from .serialize import (
    circuit_from_dict,
    circuit_to_dict,
    density_from_dict,
    density_to_dict,
    read_circuit_file,
    read_density_file,
    write_circuit_file,
    write_density_file,
)
from .simulator import (
    MAX_QUBITS,
    apply_gate,
    reduced_density,
    run,
    sample_pauli_expectations,
    zero_state,
)
from .states import (
    XStateParams,
    c1_state,
    c1_valid_range,
    ginibre_density,
    p00_family,
    p00_family_probs,
    x_state,
    x_state_eigenvectors,
)

__all__ = [
    "__version__",
    # errors
    "StatePrepError",
    "NotHermitianError",
    "NoConvergenceError",
    "NotPSDError",
    "DimensionMismatchError",
    "NotOrthonormalError",
    "NotNormalizedError",
    "NegativeAmplitudeError",
    "NotDensityMatrixError",
    "NotAProbabilityVectorError",
    "BadProbabilitiesError",
    "LevelOutOfRangeError",
    "OutOfRangeError",
    "IndexOutOfRangeError",
    "NotUnitaryError",
    "BadLabelError",
    "MissingExpectationError",
    "FormatError",
    # linear algebra
    "DEFAULT_TOL",
    "SpectralDecomposition",
    "eig_hermitian",
    "is_density",
    "is_unitary",
    "matrix_sqrt_psd",
    "orthonormal_completion",
    "partial_trace",
    "require_density",
    # circuits
    "Circuit",
    "Cnot",
    "Gate",
    "MultiControlledRy",
    "Ry",
    "UnitaryBlock",
    "gate_qubits",
    "validate_circuit",
    # pure-state compiler
    "branch_norms",
    "compile_real_state",
    "rotation_angle",
    # simulator
    "MAX_QUBITS",
    "apply_gate",
    "reduced_density",
    "run",
    "sample_pauli_expectations",
    "zero_state",
    # purification
    "PreparedCircuitBundle",
    "build_preparation_circuit",
    "eigenvalue_amplitudes",
    "pad_to_qubit_dimension",
    "prepare_density",
    # state families
    "XStateParams",
    "c1_state",
    "c1_valid_range",
    "ginibre_density",
    "p00_family",
    "p00_family_probs",
    "x_state",
    "x_state_eigenvectors",
    # metrics
    "concurrence",
    "exact_pauli_expectations",
    "fidelity",
    "l1_coherence",
    "local_l1_coherence",
    "pauli_labels",
    "pauli_matrix",
    "tomography_reconstruct",
    # serialization
    "circuit_from_dict",
    "circuit_to_dict",
    "density_from_dict",
    "density_to_dict",
    "read_circuit_file",
    "read_density_file",
    "write_circuit_file",
    "write_density_file",
]
