"""Every public entry point ends a hostile argument in a result or a ``StatePrepError``.

The CLI half: every subcommand that reads a file ends a malformed one in
exit code 2 and an ``error:`` line, with no traceback, and so does every
subcommand that takes ``--tol`` given one that is not a finite number >= 0.
"""
import json

import numpy as np
import pytest

from mixedprep import (
    Circuit,
    Cnot,
    FormatError,
    MultiControlledRy,
    Ry,
    StatePrepError,
    UnitaryBlock,
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
    gate_qubits,
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
    sample_pauli_expectations,
    tomography_reconstruct,
    validate_circuit,
    x_state,
    x_state_eigenvectors,
    zero_state,
)
from mixedprep.cli import main

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
    "too-long-to-print": 10 ** 5000,
    "string": "abc",
}

# the hostile value goes into the first argument, or into the one a suffix
# names (-n, -qubits, -level, -shots, -subsystem); the others are valid
ENTRY_POINTS = {
    "eig_hermitian": eig_hermitian,
    "is_density": is_density,
    "is_unitary": is_unitary,
    "matrix_sqrt_psd": matrix_sqrt_psd,
    "orthonormal_completion": orthonormal_completion,
    "partial_trace": lambda v: partial_trace(v, [0], 1),
    "partial_trace-qubits": lambda v: partial_trace(np.eye(2) / 2, v, 1),
    "partial_trace-n": lambda v: partial_trace(np.eye(2) / 2, [0], v),
    "require_density": require_density,
    "validate_circuit": validate_circuit,
    "gate_qubits": gate_qubits,
    "branch_norms": lambda v: branch_norms(v, 0),
    "branch_norms-level": lambda v: branch_norms([1.0, 0.0], v),
    "compile_real_state": compile_real_state,
    "rotation_angle": lambda v: rotation_angle(v, 1.0),
    "apply_gate": lambda v: apply_gate(v, Ry(0, 0.1)),
    "reduced_density": lambda v: reduced_density(v, [0]),
    "reduced_density-qubits": lambda v: reduced_density(np.array([1.0, 0.0]), v),
    "run": run,
    "UnitaryBlock-qubits": lambda v: UnitaryBlock(v, np.eye(2)),
    "sample_pauli_expectations": lambda v: sample_pauli_expectations(v, [0], 10, 0),
    "sample_pauli_expectations-qubits":
        lambda v: sample_pauli_expectations(np.array([1.0, 0.0]), v, 10, 0),
    "sample_pauli_expectations-shots":
        lambda v: sample_pauli_expectations(np.array([1.0, 0.0]), [0], v, 0),
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
    "local_l1_coherence-subsystem": lambda v: local_l1_coherence(np.eye(4) / 4, v),
    "pauli_labels": pauli_labels,
    "pauli_matrix": pauli_matrix,
    "tomography_reconstruct": lambda v: tomography_reconstruct(v, 1),
    "tomography_reconstruct-n": lambda v: tomography_reconstruct({}, v),
    "circuit_from_dict": circuit_from_dict,
    "circuit_to_dict": circuit_to_dict,
    "density_from_dict": density_from_dict,
    "density_to_dict": density_to_dict,
}

CASES = [(call, value) for call in sorted(ENTRY_POINTS) for value in sorted(HOSTILE)]


@pytest.mark.parametrize("call, value", CASES, ids=[f"{c}-{v}" for c, v in CASES])
def test_a_hostile_argument_ends_in_a_result_or_a_typed_error(call, value):
    try:
        ENTRY_POINTS[call](HOSTILE[value])
    except StatePrepError:
        pass


# -- one check per fact: every caller of a check refuses the same values --------

def verdict(call):
    """The type of the StatePrepError ``call`` raises, or None when it returns."""
    try:
        call()
    except StatePrepError as exc:
        return type(exc)
    return None


# a value that goes into one gate field of a 2-qubit circuit, as the circuit
# holds it and as a circuit document holds it
GATE_VALUES = {**HOSTILE, "fraction": 2.7, "bool": True, "np-int64": np.int64(1),
               "negative": -1, "n": 2, "nan": float("nan"), "json-1e999": json.loads("1e999")}
# field: (the circuit with value v in it, the field's path in its document, a valid v)
GATE_FIELDS = {
    "num_qubits": (lambda v: Circuit(v, [Ry(0, 0.5)]), ("num_qubits",), 2),
    "ry-target": (lambda v: Circuit(2, [Ry(v, 0.5)]), ("gates", 0, "target"), 1),
    "ry-theta": (lambda v: Circuit(2, [Ry(0, v)]), ("gates", 0, "theta"), 0.5),
    "cnot-control": (lambda v: Circuit(2, [Cnot(v, 1)]), ("gates", 0, "control"), 0),
    "cnot-target": (lambda v: Circuit(2, [Cnot(0, v)]), ("gates", 0, "target"), 1),
    "mcry-control": (lambda v: Circuit(2, [MultiControlledRy(((v, 1),), 1, 0.5)]),
                     ("gates", 0, "controls", 0), 0),
    "mcry-bit": (lambda v: Circuit(2, [MultiControlledRy(((0, v),), 1, 0.5)]),
                 ("gates", 0, "bits", 0), 1),
    "mcry-theta": (lambda v: Circuit(2, [MultiControlledRy(((0, 1),), 1, v)]),
                   ("gates", 0, "theta"), 0.5),
    "block-qubit": (lambda v: Circuit(2, [UnitaryBlock([v], np.eye(2))]),
                    ("gates", 0, "qubits", 0), 1),
}
GATE_CASES = [(f, v) for f in GATE_FIELDS for v in GATE_VALUES]


@pytest.mark.parametrize("field, value", GATE_CASES, ids=[f"{f}-{v}" for f, v in GATE_CASES])
def test_run_and_both_circuit_file_directions_refuse_the_same_gate_fields(field, value):
    build, path, valid = GATE_FIELDS[field]
    circuit = build(GATE_VALUES[value])
    doc = circuit_to_dict(build(valid))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = GATE_VALUES[value]
    checked = verdict(lambda: validate_circuit(circuit))
    written = verdict(lambda: circuit_to_dict(circuit))
    read = verdict(lambda: circuit_from_dict(doc))
    if checked is None:
        assert written is read is None, (written, read)
        assert circuit_from_dict(doc) == circuit
        assert circuit_from_dict(circuit_to_dict(circuit)) == circuit
    else:
        assert checked is not FormatError and written is read is FormatError, (checked, written, read)


QUBIT_SETS = {"repeated": [0, 0], "repeated-later": [1, 0, 1], "empty": [], "negative": [-1],
              "n": [2], "bool": [True], "float": [1.0], "unsorted": [1, 0], "np-int64": [np.int64(1)]}


@pytest.mark.parametrize("name", QUBIT_SETS)
def test_every_reader_of_a_qubit_set_refuses_the_same_sets(name):
    qubits = QUBIT_SETS[name]
    state = run(Circuit(2, [Ry(0, 0.7), Cnot(0, 1), Ry(1, 0.4)]))
    rho = np.outer(state, state.conj())
    verdicts = {verdict(lambda: reduced_density(state, qubits)) is None,
                verdict(lambda: partial_trace(rho, qubits, 2)) is None,
                verdict(lambda: sample_pauli_expectations(state, qubits, 10, 0)) is None}
    assert len(verdicts) == 1
    if verdicts == {True}:  # both traces order the kept qubits ascending
        np.testing.assert_allclose(reduced_density(state, qubits), partial_trace(rho, qubits, 2),
                                   rtol=0, atol=1e-15)


# -- the CLI: a malformed file ends in exit 2 and one error line --------------

ZEROS = [[0, 0], [0, 0]]
BAD_DENSITY_FILES = {
    "top-level-array": "[[1, 0], [0, 0]]",
    "ragged": json.dumps({"dim": 2, "re": [[1, 0], [0]], "im": ZEROS}),
    "string-entries": json.dumps({"dim": 2, "re": [["a", "b"], ["c", "d"]], "im": ZEROS}),
    "beyond-float": '{"dim": 2, "re": [[1e400, 0], [0, 0]], "im": [[0, 0], [0, 0]]}',
    "dim-true": json.dumps({"dim": True, "re": [[1]], "im": [[0]]}),
    # json reads an int past Python's 4300-digit limit with a plain ValueError
    "too-long-to-print": '{"dim": 1%s, "re": [[1]], "im": [[0]]}' % ("0" * 5000),
    "3-d": json.dumps({"dim": 1, "re": [[[1]]], "im": [[[0]]]}),
}


def circuit_text(*gates) -> str:
    return json.dumps({"num_qubits": 2, "gates": list(gates)})


def unitary(re, qubits=(0,)) -> dict:
    return {"kind": "unitary", "qubits": list(qubits), "re": re, "im": ZEROS}


BAD_CIRCUIT_FILES = {
    "top-level-array": json.dumps([{"kind": "ry", "target": 0, "theta": 0.1}]),
    "gates-not-a-list": json.dumps({"num_qubits": 2, "gates": {"kind": "ry"}}),
    "gate-not-an-object": circuit_text(5),
    "ragged-unitary": circuit_text(unitary([[1, 0], [0]])),
    "string-entries": circuit_text(unitary([["a", "b"], ["c", "d"]])),
    "beyond-float": circuit_text(unitary([[1, 0], [0, 1]])).replace("1,", "1e400,", 1),
    "string-qubits": circuit_text(unitary([[1, 0], [0, 1]], qubits=["0"])),
    "too-long-to-print": circuit_text({"kind": "ry", "target": 0, "theta": 0.1}).replace(
        '"target": 0', '"target": 1' + "0" * 5000),
    "integer-controls": circuit_text(
        {"kind": "mcry", "controls": 1, "bits": [1], "target": 1, "theta": 0.1}),
}

GOOD_DENSITY = json.dumps({"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": ZEROS})
DENSITY_COMMANDS = {
    "prepare": ("prepare", "--input", "{bad}", "--out", "{out}"),
    "metrics-state": ("metrics", "--state", "{bad}", "--metric", "coherence"),
    "metrics-target": ("metrics", "--state", "{good}", "--target", "{bad}", "--metric", "fidelity"),
}
GOOD_CIRCUIT = circuit_text({"kind": "ry", "target": 0, "theta": 0.1})
CIRCUIT_COMMANDS = {
    "simulate": ("simulate", "--circuit", "{bad}", "--out", "{out}"),
    "simulate-traced": ("simulate", "--circuit", "{bad}", "--trace-ancillas", "--out", "{out}"),
}
CLI_CASES = ([(c, f, BAD_DENSITY_FILES[f], DENSITY_COMMANDS[c])
              for c in sorted(DENSITY_COMMANDS) for f in sorted(BAD_DENSITY_FILES)]
             + [(c, f, BAD_CIRCUIT_FILES[f], CIRCUIT_COMMANDS[c])
                for c in sorted(CIRCUIT_COMMANDS) for f in sorted(BAD_CIRCUIT_FILES)])


@pytest.mark.parametrize("command, file, text, argv", CLI_CASES,
                         ids=[f"{c}-{f}" for c, f, _, _ in CLI_CASES])
def test_a_malformed_file_exits_2_with_an_error_line(tmp_path, capsys, command, file, text, argv):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(text)
    good.write_text(GOOD_DENSITY)
    paths = {"bad": bad, "good": good, "out": tmp_path / "out.json"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# a NaN or infinite tol passes every comparison, and a negative one fails every check
BAD_TOLS = ("nan", "inf", "-1")
TOL_COMMANDS = {
    "prepare": ("prepare", "--input", "{good}", "--out", "{out}"),
    "simulate": ("simulate", "--circuit", "{circuit}", "--out", "{out}"),
    "metrics": ("metrics", "--state", "{good}", "--metric", "coherence"),
    "reproduce": ("reproduce", "--figure", "2", "--out", "{out}"),
}
TOL_CASES = [(c, tol) for c in sorted(TOL_COMMANDS) for tol in BAD_TOLS]


@pytest.mark.parametrize("command, tol", TOL_CASES, ids=[f"{c}-{t}" for c, t in TOL_CASES])
def test_a_tolerance_that_turns_the_checks_off_exits_2(tmp_path, capsys, command, tol):
    good, circuit = tmp_path / "good.json", tmp_path / "circuit.json"
    good.write_text(GOOD_DENSITY)
    circuit.write_text(GOOD_CIRCUIT)
    paths = {"good": good, "circuit": circuit, "out": tmp_path / "out"}
    argv = [arg.format(**paths) for arg in TOL_COMMANDS[command]]
    assert main(argv + ["--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tol must be a finite number >= 0") and "Traceback" not in err
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()
