"""The benchmark's own checks, with every register shrunk to n <= 3.

Run from the repository root: ``python3 -m pytest perfbench``.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args, "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def parse(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def ladder_size(name):
    """Register size of a ``ladder.n<k>.*`` metric, else None."""
    if not name.startswith("ladder.n"):
        return None
    return int(name.split(".")[1][1:])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    report, result = parse(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["fail_frac"] == 0
    assert {"wall_targets_per_s", "wall_target_p50_ms", "host_speed_median"} <= set(report)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    # the smoke ladder stops at n = 3
    expected = {m["name"]: m["unit"] for m in declared if (ladder_size(m["name"]) or 0) <= 3}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    env = report["environment"]
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "cpu", "seed"} <= set(env)
    assert env["seed"] == 5


def test_digest_repeats_for_one_seed_and_changes_with_the_seed():
    digests = []
    for seed in ("7", "7", "8"):
        done = bench("--workload", "paper-exact", "--seed", seed, "--seconds", "0.1")
        assert done.returncode == 0, done.stderr
        digests.append(parse(done.stdout)[0]["digest"])
    assert digests[0] == digests[1] != digests[2]


def test_target_times_are_scaled_by_the_host_speed_around_them():
    import run

    phase = run.Phase()
    phase.times = [2.0, 4.0]
    phase.speeds = [1.0, 0.5, 0.25]  # before each target, then after the last
    assert phase.scaled_times() == [1.5, 1.5]


def test_long_targets_get_longer_speed_samples():
    import reference

    assert reference.passes_after(0.0) == 1
    assert reference.passes_after(0.003) == 1
    assert 1 < reference.passes_after(0.5) <= reference.MAX_PASSES
    assert reference.passes_after(100.0) == reference.MAX_PASSES


def test_a_wrong_prepared_state_fails_the_run(monkeypatch, capsys):
    import run
    from mixedprep import simulator

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main() overwrites them; restored afterwards

    def maximally_mixed(state, keep):
        d = 2 ** len(keep)
        return np.eye(d, dtype=complex) / d

    monkeypatch.setattr(simulator, "reduced_density", maximally_mixed)
    code = run.main(["--workload", "paper-exact", "--seed", "1", "--seconds", "0.1", "--smoke"])
    report, result = parse(capsys.readouterr().out)
    assert code != 0
    assert report["fail_frac"] > 0
    assert not result["correct"] and result["failed"] > 0


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "paper-exact", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
