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
