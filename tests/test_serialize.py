"""File formats: density matrices and circuits round-trip losslessly."""
import json

import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import (
    Circuit,
    Cnot,
    FormatError,
    MultiControlledRy,
    NotDensityMatrixError,
    Ry,
    UnitaryBlock,
    circuit_from_dict,
    circuit_to_dict,
    density_from_dict,
    density_to_dict,
    ginibre_density,
    read_circuit_file,
    read_density_file,
    write_circuit_file,
    write_density_file,
)


def test_density_roundtrip(tmp_path):
    rho = ginibre_density(4, 12)
    path = tmp_path / "rho.json"
    write_density_file(path, rho)
    back = read_density_file(path)
    npt.assert_array_equal(back, rho)  # bit-exact through repr floats


def test_density_dict_structure():
    doc = density_to_dict(np.eye(2) / 2)
    assert doc["dim"] == 2
    assert doc["re"] == [[0.5, 0.0], [0.0, 0.5]]
    assert doc["im"] == [[0.0, 0.0], [0.0, 0.0]]
    assert all(isinstance(x, float) for row in doc["re"] for x in row)


def test_density_validation_gate():
    doc = density_to_dict(np.eye(2))  # trace 2
    with pytest.raises(NotDensityMatrixError):
        density_from_dict(doc)
    m = density_from_dict(doc, validate_tol=None)  # gate disabled
    npt.assert_array_equal(m, np.eye(2))


def test_density_format_errors():
    with pytest.raises(FormatError):
        density_from_dict([1, 2, 3])
    with pytest.raises(FormatError):
        density_from_dict({"dim": 2, "re": [[1, 0], [0, 0]]})  # no im
    with pytest.raises(FormatError):
        density_from_dict({"dim": 3, "re": [[1]], "im": [[0]]})  # dim mismatch
    with pytest.raises(FormatError):
        density_from_dict({"dim": 2, "re": [[1, 0]], "im": [[0, 0]]})  # not square
    with pytest.raises(FormatError):
        density_from_dict({"dim": 2, "re": "garbage", "im": "garbage"})
    with pytest.raises(FormatError, match="dim must be"):
        density_from_dict(json.loads('{"dim": true, "re": [[1]], "im": [[0]]}'))


def test_density_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        read_density_file(path)


def test_non_finite_literals_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "num_qubits": 1,
        "gates": [{"kind": "ry", "target": 0, "theta": float("nan")}],
    }))
    with pytest.raises(FormatError, match="NaN"):
        read_circuit_file(path)
    for literal in ("NaN", "Infinity", "-Infinity"):
        path.write_text(f'{{"dim": 1, "re": [[{literal}]], "im": [[0.0]]}}')
        with pytest.raises(FormatError, match=literal) as err:
            read_density_file(path, validate_tol=None)
        assert "not valid JSON" not in str(err.value)  # one message, not wrapped twice


def sample_circuit():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = np.linalg.qr(g)[0]
    u[0, 0] += 1e-15  # wiggle below unitarity tolerance; must survive the trip
    return Circuit(
        num_qubits=4,
        gates=[
            Ry(0, np.pi / 3),
            MultiControlledRy(((0, 1), (1, 0)), 2, 0.123456789012345678),
            Cnot(1, 3),
            UnitaryBlock((0, 1), u),
        ],
        label="sample",
    )


def test_circuit_roundtrip_dict():
    c = sample_circuit()
    back = circuit_from_dict(circuit_to_dict(c))
    assert back == c


def test_circuit_roundtrip_file(tmp_path):
    c = sample_circuit()
    path = tmp_path / "c.json"
    write_circuit_file(path, c, meta={"seed": 7})
    back = read_circuit_file(path)
    assert back == c
    doc = json.loads(path.read_text())
    assert doc["meta"]["seed"] == 7
    assert doc["meta"]["label"] == "sample"
    assert [g["kind"] for g in doc["gates"]] == ["ry", "mcry", "cnot", "unitary"]


def test_circuit_gate_fields():
    doc = circuit_to_dict(sample_circuit())
    ry, mcry, cnot, unitary = doc["gates"]
    assert set(ry) == {"kind", "target", "theta"}
    assert set(mcry) == {"kind", "controls", "bits", "target", "theta"}
    assert mcry["controls"] == [0, 1] and mcry["bits"] == [1, 0]
    assert set(cnot) == {"kind", "control", "target"}
    assert set(unitary) == {"kind", "qubits", "re", "im"}


def test_circuit_format_errors():
    with pytest.raises(FormatError):
        circuit_from_dict({"gates": []})
    with pytest.raises(FormatError):
        circuit_from_dict({"num_qubits": 0, "gates": []})
    with pytest.raises(FormatError, match="num_qubits must be"):
        circuit_from_dict(json.loads('{"num_qubits": true, "gates": []}'))
    with pytest.raises(FormatError):
        circuit_from_dict({"num_qubits": 1, "gates": [{"kind": "warp", "target": 0}]})
    with pytest.raises(FormatError):
        circuit_from_dict({"num_qubits": 1, "gates": [{"kind": "ry", "target": 0}]})
    with pytest.raises(FormatError):
        circuit_from_dict(
            {
                "num_qubits": 2,
                "gates": [
                    {"kind": "mcry", "controls": [0], "bits": [1, 0], "target": 1, "theta": 0.1}
                ],
            }
        )
    # no coercion: a fractional, boolean or string qubit index and a string angle
    for gate in (
        '{"kind": "ry", "target": 1.7, "theta": 0.5}',
        '{"kind": "cnot", "control": true, "target": 0}',
        '{"kind": "cnot", "control": 1, "target": "0"}',
        '{"kind": "ry", "target": 0, "theta": "0.5"}',
    ):
        with pytest.raises(FormatError, match="gate 0"):
            circuit_from_dict(json.loads('{"num_qubits": 2, "gates": [' + gate + "]}"))


@pytest.mark.parametrize("circuit", [
    Circuit(2.7, [Ry(0.9, 0.5), Cnot(True, 1)]),
    Circuit("3", []),
    Circuit(2, [MultiControlledRy(((0, True),), 1, 0.5)]),
    Circuit(1, [Ry(0, True)]),
], ids=["truncated-wires", "string-count", "bool-bit", "bool-angle"])
def test_the_writer_refuses_what_validate_circuit_refuses_and_creates_no_file(tmp_path, circuit):
    # int() and float() would write 2 qubits and a cnot from qubit 1 to qubit 1
    with pytest.raises(FormatError):
        write_circuit_file(tmp_path / "c.json", circuit)
    assert not list(tmp_path.iterdir())


def test_the_reader_refuses_an_out_of_range_wire_and_an_infinite_angle(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"num_qubits": 1, "gates": [{"kind": "ry", "target": 5, "theta": 1e999}]}')
    with pytest.raises(FormatError, match="gate 0"):
        read_circuit_file(path)


def test_float_precision_survives():
    # adversarial values with no short decimal form
    values = [np.pi, 1 / 3, 2 ** -52, 0.1 + 0.2, np.nextafter(1.0, 2.0)]
    c = Circuit(1, [Ry(0, v) for v in values])
    back = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(c))))
    assert [g.theta for g in back.gates] == values


def test_integers_too_large_for_a_float_are_format_errors():
    huge = 10 ** 400
    gates = [
        {"kind": "ry", "target": 0, "theta": huge},
        {"kind": "mcry", "controls": [float("inf")], "bits": [1], "target": 1, "theta": 0.1},
        {"kind": "unitary", "qubits": [0], "re": [[huge, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    ]
    for gate in gates:
        with pytest.raises(FormatError, match="gate 0"):
            circuit_from_dict({"num_qubits": 2, "gates": [gate]})
    with pytest.raises(FormatError):
        density_from_dict({"dim": 1, "re": [[huge]], "im": [[0]]})


JSON_FAILURE = "cannot write the document as JSON"


# the writer's gate check refuses a NaN angle before the document is encoded
@pytest.mark.parametrize("write, match", [
    (lambda path: write_circuit_file(path, Circuit(10 ** 5000, [])), JSON_FAILURE),
    (lambda path: write_circuit_file(path, Circuit(1, [Ry(0, float("nan"))])),
     "gate 0 angle nan is not finite or not a real number"),
    (lambda path: write_density_file(path, np.array([[0.5, np.nan], [0.0, 0.5]])), JSON_FAILURE),
    (lambda path: write_circuit_file(path, Circuit(1, [Ry(0, 0.5)]), meta={"seed": object()}),
     JSON_FAILURE),
], ids=["num_qubits-too-long-to-print", "nan-angle", "nan-density-entry", "meta-not-json"])
def test_a_document_json_cannot_write_is_a_format_error_that_leaves_the_path_alone(
        tmp_path, write, match):
    path = tmp_path / "out.json"
    with pytest.raises(FormatError, match=match):
        write(path)
    assert not path.exists()
    path.write_bytes(b"an earlier file\n")
    with pytest.raises(FormatError, match=match):
        write(path)
    assert path.read_bytes() == b"an earlier file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
