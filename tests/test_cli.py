"""Command-line interface: commands, exit codes, file outputs, determinism."""
import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import (
    c1_state,
    fidelity,
    ginibre_density,
    p00_family,
    read_density_file,
)
from mixedprep import cli
from mixedprep.cli import _parse_shots, build_parser, main, make_family_state
from mixedprep.errors import FormatError


def run_cli(*argv):
    return main(list(argv))


# int() and float() read these: d = 16, d = 4 (an Arabic-Indic four), c1 = 0.1
NOT_ASCII_NUMBERS = ("ginibre:d=1_6,seed=0", "ginibre:d=\u0664", "c1:c1=1_0e-2")


def test_family_parser():
    npt.assert_array_equal(make_family_state("ginibre:d=4,seed=7", 0), ginibre_density(4, 7))
    npt.assert_array_equal(make_family_state("ginibre:d=2", 5), ginibre_density(2, 5))
    npt.assert_allclose(make_family_state("c1:c1=0.2", 0), c1_state(0.2), atol=0)
    npt.assert_allclose(
        make_family_state("xstate:theta=0.3927,phi=0.3927,p00=0.5", 0),
        p00_family(0.5, 0.3927, 0.3927),
        atol=0,
    )
    npt.assert_allclose(make_family_state("xstate:p00=0.5", 0), p00_family(0.5), atol=0)
    for bad in (
        "nosuch:d=2",
        "ginibre",
        "ginibre:d=x",
        "ginibre:d=2,extra=1",
        "ginibre:d=4,d=2",
        "c1",
        "ginibre:d",
        "c1:c1=nan",
        "c1:c1=inf",
        "xstate:theta=inf",
        "xstate:theta=nan",
        *NOT_ASCII_NUMBERS,
    ):
        with pytest.raises(FormatError):
            make_family_state(bad, 0)


def test_prepare_family(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run_cli("prepare", "--family", "ginibre:d=4,seed=7", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "eigenvalues:" in printed
    assert "gates: 6" in printed  # (2^2-1) + 2 + 1
    doc = json.loads(out.read_text())
    assert doc["num_qubits"] == 4
    assert len(doc["gates"]) == 6
    assert doc["meta"]["source"] == "ginibre:d=4,seed=7"


def test_prepare_quiet(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run_cli("prepare", "--family", "ginibre:d=2,seed=1", "--out", str(out), "--quiet") == 0
    assert capsys.readouterr().out == ""


def test_prepare_from_file_and_simulate(tmp_path, capsys):
    rho_path = tmp_path / "rho.json"
    circ_path = tmp_path / "c.json"
    out_path = tmp_path / "out.json"
    assert run_cli("gen", "--family", "ginibre:d=4,seed=9", "--out", str(rho_path)) == 0
    assert run_cli("prepare", "--input", str(rho_path), "--out", str(circ_path)) == 0
    meta = json.loads(circ_path.read_text())["meta"]
    assert meta["source"].startswith("sha256:")
    assert run_cli(
        "simulate", "--circuit", str(circ_path), "--trace-ancillas", "--out", str(out_path)
    ) == 0
    capsys.readouterr()
    prepared = read_density_file(out_path)
    assert fidelity(prepared, ginibre_density(4, 9)) >= 1 - 1e-9


def test_simulate_without_trace_is_pure(tmp_path, capsys):
    circ = tmp_path / "c.json"
    out = tmp_path / "full.json"
    run_cli("prepare", "--family", "ginibre:d=2,seed=3", "--out", str(circ), "--quiet")
    assert run_cli("simulate", "--circuit", str(circ), "--out", str(out), "--quiet") == 0
    capsys.readouterr()
    full = read_density_file(out)
    assert full.shape == (4, 4)
    npt.assert_allclose(np.trace(full @ full).real, 1.0, atol=1e-10)


def test_metrics_outputs(tmp_path, capsys):
    c1_path = tmp_path / "c1.json"
    run_cli("gen", "--family", "c1:c1=0.2", "--out", str(c1_path), "--quiet")
    capsys.readouterr()

    assert run_cli("metrics", "--state", str(c1_path), "--metric", "coherence") == 0
    assert capsys.readouterr().out.strip() == "0.600000000000"
    assert run_cli("metrics", "--state", str(c1_path), "--metric", "concurrence") == 0
    assert capsys.readouterr().out.strip() == "0.000000000000"
    assert run_cli("metrics", "--state", str(c1_path), "--metric", "local-coherence",
                   "--subsystem", "B") == 0
    assert capsys.readouterr().out.strip() == "0.200000000000"
    assert run_cli("metrics", "--state", str(c1_path), "--target", str(c1_path),
                   "--metric", "fidelity") == 0
    assert capsys.readouterr().out.strip() == "1.000000000000"


def test_metrics_fidelity_pads_the_target_of_a_padded_state(tmp_path, capsys):
    # the README pipeline on a d = 5 target: the traced state is 8 x 8
    files = {name: str(tmp_path / f"{name}.json") for name in ("target", "circuit", "prepared")}
    assert run_cli("gen", "--family", "ginibre:d=5,seed=7", "--out", files["target"],
                   "--quiet") == 0
    assert run_cli("prepare", "--input", files["target"], "--out", files["circuit"],
                   "--quiet") == 0
    assert run_cli("simulate", "--circuit", files["circuit"], "--trace-ancillas",
                   "--out", files["prepared"], "--quiet") == 0
    capsys.readouterr()
    assert run_cli("metrics", "--state", files["prepared"], "--target", files["target"],
                   "--metric", "fidelity") == 0
    assert capsys.readouterr().out == "1.000000000000\n"
    # any other mismatch still exits 2: a target whose padding is not the state's
    # size, and a state smaller than the target
    run_cli("gen", "--family", "ginibre:d=3,seed=7", "--out", str(tmp_path / "t3.json"), "--quiet")
    for state, target, shapes in ((files["prepared"], tmp_path / "t3.json", "(8, 8) vs (3, 3)"),
                                  (tmp_path / "t3.json", files["target"], "(3, 3) vs (5, 5)")):
        assert run_cli("metrics", "--state", str(state), "--target", str(target),
                       "--metric", "fidelity") == 2
        assert f"error: shape mismatch: {shapes}" in capsys.readouterr().err


def test_metrics_fidelity_requires_target(tmp_path, capsys):
    path = tmp_path / "s.json"
    run_cli("gen", "--family", "ginibre:d=2,seed=0", "--out", str(path), "--quiet")
    capsys.readouterr()
    assert run_cli("metrics", "--state", str(path), "--metric", "fidelity") == 2
    assert "error: --metric fidelity requires --target" in capsys.readouterr().err


def test_invalid_density_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]],
                               "im": [[0.0, 0.0], [0.0, 0.0]]}))  # trace 2
    out = tmp_path / "c.json"
    assert run_cli("prepare", "--input", str(bad), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trace" in err


def test_no_validate_skips_file_gate(tmp_path, capsys):
    # trace 0.9: a file is checked once, by the metric, at --tol
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1, "re": [[0.9]], "im": [[0.0]]}))
    assert run_cli("metrics", "--state", str(bad), "--metric", "coherence") == 2
    assert "trace" in capsys.readouterr().err
    assert run_cli("metrics", "--state", str(bad), "--metric", "coherence",
                   "--tol", "0.05") == 2
    assert "trace" in capsys.readouterr().err
    assert run_cli("metrics", "--state", str(bad), "--metric", "coherence",
                   "--tol", "0.2") == 0
    assert capsys.readouterr().out.strip() == "0.000000000000"


def test_hermitian_solves_per_cli_input(tmp_path, capsys, hermitian_solves):
    # the file is not checked on reading, only by the command that consumes it
    rho, sigma = tmp_path / "rho.json", tmp_path / "sigma.json"
    run_cli("gen", "--family", "ginibre:d=4,seed=1", "--out", str(rho), "--quiet")
    run_cli("gen", "--family", "ginibre:d=4,seed=2", "--out", str(sigma), "--quiet")
    hermitian_solves.clear()
    assert run_cli("prepare", "--input", str(rho), "--out", str(tmp_path / "c.json"),
                   "--quiet") == 0
    assert len(hermitian_solves) == 1  # the compile eigh
    hermitian_solves.clear()
    assert run_cli("metrics", "--state", str(rho), "--target", str(sigma),
                   "--metric", "fidelity") == 0
    assert len(hermitian_solves) == 0  # two Cholesky factors
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["c1:c1=nan", "c1:c1=inf", "xstate:theta=inf",
                                  "xstate:theta=nan", "xstate:phi=-inf"])
@pytest.mark.parametrize("command", ["gen", "prepare"])
def test_non_finite_family_parameter_exits_2(tmp_path, capsys, spec, command):
    out = tmp_path / "out.json"
    assert run_cli(command, "--family", spec, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["ginibre:d=4,d=2", "ginibre:d=4,seed=1, seed =2",
                                  "xstate:p00=0.5,p00=0.5"])
@pytest.mark.parametrize("command", ["gen", "prepare"])
def test_a_repeated_family_key_exits_2(tmp_path, capsys, spec, command):
    # the last value won: ginibre:d=4,d=2 gave a 2 x 2 target
    out = tmp_path / "out.json"
    assert run_cli(command, "--family", spec, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "is given twice" in err and "Traceback" not in err
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("spec", NOT_ASCII_NUMBERS)
@pytest.mark.parametrize("command", ["gen", "prepare"])
def test_a_family_value_that_is_not_an_ascii_number_exits_2(tmp_path, capsys, spec, command):
    # prepare --family recorded the spec verbatim as the circuit's source
    out = tmp_path / "out.json"
    assert run_cli(command, "--family", spec, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be" in err and "Traceback" not in err
    assert err.count("\n") == 1 and not out.exists()


class _ReadRecorder:
    """Stands in for the parsed arguments and records which ones a command reads."""

    def __init__(self, args):
        self.args = args
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.args, name)


def test_every_option_is_read(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    circuit = tmp_path / "c.json"
    out = str(tmp_path / "out")
    run_cli("gen", "--family", "ginibre:d=4,seed=1", "--out", str(rho), "--quiet")
    run_cli("prepare", "--input", str(rho), "--out", str(circuit), "--quiet")
    runs = {
        "prepare": [["--family", "c1:c1=0.2", "--out", out]],
        "simulate": [["--circuit", str(circuit), "--out", out]],
        "metrics": [
            ["--state", str(rho), "--target", str(rho), "--metric", "fidelity"],
            ["--state", str(rho), "--metric", "local-coherence", "--subsystem", "B"],
        ],
        "reproduce": [["--figure", "3", "--out", out]],
        "gen": [["--family", "xstate:p00=0.3", "--out", out]],
    }
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    assert set(subparsers) == set(runs)
    for command, argvs in runs.items():
        read = set()
        for argv in argvs:
            recorder = _ReadRecorder(parser.parse_args([command, *argv]))
            assert recorder.args.func(recorder) == 0
            read |= recorder.read
        options = {a.dest for a in subparsers[command]._actions if a.option_strings} - {"help"}
        assert options <= read, (command, sorted(options - read))
    capsys.readouterr()


def test_nan_density_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"dim": 2, "re": [[0.5, float("nan")], [float("nan"), 0.5]],
                               "im": [[0.0, 0.0], [0.0, 0.0]]}))
    assert run_cli("metrics", "--state", str(bad), "--metric", "coherence") == 2
    assert run_cli("prepare", "--input", str(bad), "--out", str(tmp_path / "c.json")) == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err.count("error:") == 2 and "NaN" in err.err


def test_missing_file_exits_3(tmp_path, capsys):
    assert run_cli("prepare", "--input", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "c.json")) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_circuit_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{broken")
    assert run_cli("simulate", "--circuit", str(path), "--out", str(tmp_path / "o.json")) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "gate",
    [
        '{"kind": "ry", "target": 0, "theta": 1e999}',
        '{"kind": "ry", "target": 0, "theta": 1' + "0" * 400 + "}",
        '{"kind": "ry", "target": 1e999, "theta": 0.5}',
        '{"kind": "ry", "target": 1.7, "theta": 0.5}',
        '{"kind": "cnot", "control": true, "target": 0}',
        '{"kind": "cnot", "control": 1, "target": "0"}',
        '{"kind": "ry", "target": 0, "theta": "0.5"}',
    ],
    ids=["theta-inf", "theta-huge-int", "target-inf",
         "target-fraction", "control-true", "target-string", "theta-string"],
)
def test_overflowing_circuit_numbers_exit_2(tmp_path, capsys, gate):
    path = tmp_path / "c.json"
    path.write_text('{"num_qubits": 2, "gates": [' + gate + "]}")
    assert run_cli("simulate", "--circuit", str(path), "--out", str(tmp_path / "o.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_odd_register_trace_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "num_qubits": 3,
        "gates": [{"kind": "ry", "target": 0, "theta": 0.5}],
        "meta": {},
    }))
    out = tmp_path / "o.json"
    monkeypatch.setattr(cli, "run", None)  # refused before the register is simulated
    assert run_cli("simulate", "--circuit", str(path), "--trace-ancillas",
                   "--out", str(out)) == 2
    assert "halves" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_bad_figure(tmp_path, capsys):
    assert run_cli("reproduce", "--figure", "5", "--out", str(tmp_path / "x.csv")) == 2
    assert "error: unknown figure id: 5 (expected 2 or 3)" in capsys.readouterr().err


def test_reproduce_bad_shots(tmp_path, capsys):
    assert run_cli("reproduce", "--figure", "3", "--shots", "many",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert "shots" in capsys.readouterr().err


@pytest.mark.parametrize("shots", ["0", "100000000000000000000"], ids=["zero", "1e20"])
def test_reproduce_out_of_range_shots_exit_2(tmp_path, capsys, shots):
    out = tmp_path / "x.csv"
    assert run_cli("reproduce", "--figure", "3", "--shots", shots, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "shots must be an integer in 1..9223372036854775807" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("shots", ["1_000", "\u0661\u0660"], ids=["underscore", "arabic-indic-10"])
def test_a_shot_count_that_is_not_ascii_digits_exits_2(tmp_path, capsys, shots):
    # int() read them as 1000 and 10
    out = tmp_path / "x.csv"
    assert run_cli("reproduce", "--figure", "3", "--shots", shots, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shots must be an integer or 'exact'") and "Traceback" not in err
    assert err.count("\n") == 1 and not out.exists()


def test_parse_shots_only_parses():
    # the range is checked once, by the sampler
    assert _parse_shots("exact") is None
    assert _parse_shots("0") == 0 and _parse_shots("-3") == -3
    assert _parse_shots("100000000000000000000") == 10 ** 20
    with pytest.raises(FormatError, match="shots"):
        _parse_shots("many")


def test_simulate_full_density_beyond_state_limit_exits_2(tmp_path, capsys, monkeypatch):
    # 14 qubits: a 2**14 x 2**14 density is as large as a 28-qubit state
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"num_qubits": 14, "gates": []}))
    out = tmp_path / "rho.json"
    with monkeypatch.context() as m:
        m.setattr(cli, "run", None)  # refused before the register is even simulated
        assert run_cli("simulate", "--circuit", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "--trace-ancillas" in err and "Traceback" not in err
    assert not out.exists()
    assert run_cli("simulate", "--circuit", str(path), "--trace-ancillas", "--quiet",
                   "--out", str(out)) == 0
    assert read_density_file(out).shape == (128, 128)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--family", "ginibre:d=4,seed=-1"),
        ("reproduce", "--figure", "3", "--shots", "100", "--seed", "-100000"),
    ],
    ids=["gen", "reproduce"],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err


# sha256 of the 1000-shot CSVs (numpy 2.4, OpenBLAS): a change to the draws,
# the estimates or the tomography shows here
SHOT_CSV_SHA256 = {
    "2": "aecce8137337d921a070837ae89e713cdf0203dff5d46f2c2055413e66bbee7e",
    "3": "1cea25b0b792421f7d3b6badb2f17c531b5fb88501aa54f036d34320edb5705d",
}


@pytest.mark.parametrize("figure", sorted(SHOT_CSV_SHA256))
def test_reproduce_shot_csv_bytes(tmp_path, capsys, figure):
    out = tmp_path / "shots.csv"
    assert run_cli("reproduce", "--figure", figure, "--shots", "1000", "--seed", "5",
                   "--out", str(out), "--quiet") == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHOT_CSV_SHA256[figure]


# sha256 of `prepare --family SPEC --quiet` circuit files (default --seed 0, --tol 1e-8)
CIRCUIT_SHA256 = {
    "c1:c1=0": "0890a06865d7b481efcf9767812a60917ce958779aa80cddaf437612956981a3",  # 4-fold tie
    "ginibre:d=3,seed=2": "ab1e74dfa1fe841045751cfc8bf49429a5724a13c94bc684d5cd7c74cfcc6a24",  # padded
    "ginibre:d=8,seed=7": "811ef3d030fab9912595eb3a97ba5e83ffe0534d1875924032b8b79d0ecd9ae7",
    "xstate:p00=0": "81bb2c1151074cd4d700d6bb54564c2f13be2655e544fc29100f6b86608a52c7",  # null space
    "xstate:p00=0.5": "ac970bb97132bc201c144d9294e1f612b1e60a086ebea0611edd9461fbca3c1a",
}


@pytest.mark.parametrize("spec", sorted(CIRCUIT_SHA256))
def test_prepare_circuit_bytes(tmp_path, spec):
    out = tmp_path / "circuit.json"
    assert run_cli("prepare", "--family", spec, "--out", str(out), "--quiet") == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CIRCUIT_SHA256[spec]


def test_reproduce_figure3_exact(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert run_cli("reproduce", "--figure", "3", "--out", str(out), "--quiet") == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,sample,fidelity"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 30
    assert sorted({r[0] for r in rows}) == ["2", "4", "8"]
    assert all(float(r[2]) >= 1 - 1e-9 for r in rows)


def test_reproduce_figure2_exact(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert run_cli("reproduce", "--figure", "2", "--out", str(out), "--quiet") == 0
    capsys.readouterr()
    blocks = out.read_text().strip().split("\n\n")
    assert len(blocks) == 2
    head1, *rows1 = blocks[0].splitlines()
    assert head1 == "p00,EC_theory,EC_pipeline,Cl1_theory,Cl1_pipeline"
    assert len(rows1) == 21
    for line in rows1:
        vals = [float(x) for x in line.split(",")]
        assert abs(vals[1] - vals[2]) <= 1e-9
        assert abs(vals[3] - vals[4]) <= 1e-9
    head2, *rows2 = blocks[1].splitlines()
    assert head2 == "c1,Cl1_global_theory,Cl1_global_pipeline,Cl1_local_theory,Cl1_local_pipeline"
    assert len(rows2) == 21
    for line in rows2:
        vals = [float(x) for x in line.split(",")]
        npt.assert_allclose(vals[1], 3 * abs(vals[0]), atol=1e-9)
        npt.assert_allclose(vals[3], abs(vals[0]), atol=1e-9)


def test_reproduce_figure2_shots(tmp_path, capsys):
    out = tmp_path / "fig2s.csv"
    assert run_cli("reproduce", "--figure", "2", "--shots", "4000",
                   "--seed", "5", "--out", str(out), "--quiet") == 0
    capsys.readouterr()
    blocks = out.read_text().strip().split("\n\n")
    for line in blocks[0].splitlines()[1:]:
        vals = [float(x) for x in line.split(",")]
        assert abs(vals[1] - vals[2]) <= 0.15  # statistical agreement only
        assert abs(vals[3] - vals[4]) <= 0.15


def test_gen_output_loadable(tmp_path, capsys):
    path = tmp_path / "x.json"
    assert run_cli("gen", "--family", "xstate:p00=0.3", "--out", str(path), "--quiet") == 0
    capsys.readouterr()
    npt.assert_allclose(read_density_file(path), p00_family(0.3), atol=0)


def test_prepare_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("prepare", "--family", "ginibre:d=4,seed=7", "--out", str(a), "--quiet")
    run_cli("prepare", "--family", "ginibre:d=4,seed=7", "--out", str(b), "--quiet")
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["gen", "prepare"])
def test_family_past_the_compile_cap_exits_2(tmp_path, capsys, command):
    # ginibre_density refuses d = 4097 before it allocates its 4097 x 4097 draw
    assert run_cli(command, "--family", "ginibre:d=4097", "--out", str(tmp_path / "out"),
                   "--quiet") == 2
    assert "dimension 4097 exceeds 4096" in capsys.readouterr().err
