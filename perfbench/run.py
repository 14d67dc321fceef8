"""Benchmark: time to a verified mixed-state preparation.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process runs a closed loop: each target is compiled,
simulated, read out and verified before the next one starts, and each
target is one operation.  Targets are generated from ``--seed`` outside
the timed region; whole rounds run until ``--seconds`` have passed.

Every time is scaled to a reference host speed measured between targets
(see reference.py), and the report line keeps the wall-clock figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
round a second time with a span around every public call, adds probes
and the size ladder, writes the spans to ``.perfbench_out/`` and prints
the per-layer metrics.  The last stdout line is the result object; the line
before it is a report with the environment, the determinism digest and
the failure fraction.  Exit status is 0 only if every target verified.
See README.md in this directory for the design.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import coldstart

ROOT = os.path.dirname(coldstart.HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("paper-exact", "paper-shots", "ginibre-n9", "lowrank-n8")
SETUP_SAMPLES = 5  # one in this process, the rest in fresh interpreters
# Thresholds for the linalg counts; fixed here so counts stay comparable
# when the library's own tolerances move.
TIE_TOL = 1e-12
RANK_TOL = 1e-12
LADDER_LAYERS = (
    "purify.build_preparation_circuit",
    "simulator.run",
    "simulator.reduced_density",
    "metrics.fidelity",
)
PIPELINE_LAYERS = (
    "purify.build_preparation_circuit",
    "simulator.run",
    "simulator.reduced_density",
    "simulator.sample_pauli_expectations",
    "metrics.tomography_reconstruct",
    "metrics.fidelity",
    "metrics.concurrence",
    "metrics.l1_coherence",
    "metrics.local_l1_coherence",
)
PROBE_LAYERS = (
    "linalg.require_density",
    "linalg.eig_hermitian",
    "linalg.matrix_sqrt_psd",
    "linalg.orthonormal_completion",
    "realamp.compile_real_state",
    "circuits.validate_circuit",
)
SHARE_LAYERS = ("purify.build_preparation_circuit", "simulator.run", "metrics.fidelity")


def cap_blas_threads() -> int:
    """Pin BLAS to one thread and return nproc; must run before numpy is imported.

    One caller runs one target at a time, and two BLAS threads on two
    shared cores made the heavy targets' times swing more than one thread
    did, while the host-speed reference tracked one thread better.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads_in_effect() -> int:
    """Ask the loaded OpenBLAS for its thread count; -1 if it cannot be found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.split()[-1].lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_effect(),
        "nproc": nproc,
        "cpu": cpu,
        "seed": seed,
    }


class Phase:
    """Outcome of running whole rounds of one workload in the closed loop."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = []  # seconds per target, compile through verification
        self.values = []  # (target id, verified values) of round 0, in order
        self.failed = 0
        self.problems = []
        self.rounds = 0
        self.speeds = []  # host speed before each target, then after the last one
        self.gen_s = 0.0
        self.probe = None  # (target, bundle) of the largest round-0 target
        self.counts = {}

    def sample_speed(self) -> None:
        import reference

        last = self.times[-1] if self.times else 0.0
        self.speeds.append(reference.speed(reference.passes_after(last)))

    def speed_factors(self) -> list:
        """Host speed around each target: the mean of the samples taken just
        before and just after it (``run_rounds`` samples after the last one)."""
        s = self.speeds
        return [(s[i] + s[i + 1]) / 2 for i in range(len(self.times))]

    def scaled_times(self) -> list:
        """Target times at the reference speed."""
        return [t * f for t, f in zip(self.times, self.speed_factors())]

    def run_round(self, r: int, targets) -> None:
        tracer = self.tracer
        for target in targets:
            self.sample_speed()
            span = tracer.begin("bench.target", target.tid) if tracer is not None else None
            t0 = perf_counter()
            bundle, values, problem = attempt(target, tracer)
            self.times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.end(span)
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{target.tid}: {problem}")
            if r == 0:
                self.values.append((target.tid, values))
                if bundle is not None and (
                    self.probe is None or target.rho.shape[0] > self.probe[0].rho.shape[0]
                ):
                    self.probe = (target, bundle)
            if tracer is not None and bundle is not None:
                probe_layers(target, bundle, values, tracer, self.counts)
        self.rounds += 1


def attempt(target, tracer=None) -> tuple:
    """``pipeline.process`` with a raised error turned into a failed check."""
    import pipeline

    try:
        return pipeline.process(target, tracer.call if tracer is not None else pipeline.direct)
    except Exception:  # a target that raises counts as failed; the loop goes on
        return None, None, traceback.format_exc()


def run_rounds(workload, seed, smoke, seconds, tracer=None) -> tuple:
    """Run whole rounds until ``seconds`` have passed.

    With a tracer every round runs twice, untraced and traced, in an order
    that alternates from round to round, so the tracing overhead is taken
    on the same targets at nearly the same time.  Returns (untraced phase,
    traced phase or None).
    """
    import workloads

    plain = Phase()
    traced = Phase(tracer) if tracer is not None else None
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        gen = perf_counter()
        targets = workloads.make_round(workload, seed, r, smoke)
        plain.gen_s += perf_counter() - gen
        order = [plain] if traced is None else [plain, traced][:: 1 if r % 2 == 0 else -1]
        for phase in order:
            phase.run_round(r, targets)
        r += 1
    for phase in (plain, traced):
        if phase is not None:
            phase.sample_speed()
    return plain, traced


def probe_layers(target, bundle, values, tracer, counts) -> None:
    """Call single layers on the target outside its span, and count work."""
    import numpy as np
    from mixedprep import circuits, linalg, purify, realamp

    call = tracer.call
    call("linalg.require_density", linalg.require_density, target.rho)
    spectral = call("linalg.eig_hermitian", linalg.eig_hermitian, bundle.target)
    call("linalg.matrix_sqrt_psd", linalg.matrix_sqrt_psd, target.rho)
    w = spectral.eigenvalues
    rank = int(np.sum(w > RANK_TOL))
    call("linalg.orthonormal_completion", linalg.orthonormal_completion,
         spectral.eigenvectors[:, :rank], 1e-8)
    call("realamp.compile_real_state", realamp.compile_real_state,
         purify.eigenvalue_amplitudes(spectral))
    call("circuits.validate_circuit", circuits.validate_circuit, bundle.circuit)

    tied = np.diff(w) >= -TIE_TOL  # w is non-increasing; True joins j and j + 1
    in_group = np.zeros(w.shape[0], dtype=bool)
    in_group[:-1] |= tied
    in_group[1:] |= tied
    gates = len(bundle.circuit.gates)
    n_sys = len(bundle.system_qubits)
    add = {
        "purify.gates": gates,
        "simulator.gates_applied": gates,
        "linalg.tied_cols": int(in_group.sum()),
        "linalg.completed_cols": w.shape[0] - rank,
    }
    if target.shots is not None:
        add["simulator.pauli_strings"] = 4 ** n_sys - 1
        add["simulator.shots"] = (4 ** n_sys - 1) * target.shots
    for key, value in add.items():
        counts[key] = counts.get(key, 0) + value
    counts["simulator.state_bytes"] = max(counts.get("simulator.state_bytes", 0),
                                          16 * 2 ** bundle.circuit.num_qubits)
    if values is not None:
        counts["metrics.fidelity_loss_max"] = max(counts.get("metrics.fidelity_loss_max", 0.0),
                                                  1.0 - values[0])


def circuit_roundtrip(workload, seed, bundle, tracer=None) -> tuple:
    """Write and read back the probed circuit file; return (bytes, seconds, problem)."""
    import pipeline
    from mixedprep import serialize

    call = tracer.call if tracer is not None else pipeline.direct
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"circuit-{workload}-{seed}-{os.getpid()}.json")
    try:
        t0 = perf_counter()
        call("serialize.write_circuit_file", serialize.write_circuit_file, path, bundle.circuit)
        loaded = call("serialize.read_circuit_file", serialize.read_circuit_file, path)
        seconds = perf_counter() - t0
        with open(path, "rb") as fh:
            data = fh.read()
    finally:
        if os.path.exists(path):
            os.remove(path)
    problem = None
    if len(loaded.gates) != len(bundle.circuit.gates):
        problem = "circuit file did not round-trip its gate list"
    return data, seconds, problem


def digest(phase: Phase, circuit_bytes: bytes) -> str:
    """sha256 of round 0's verified values (as repr) and the probed circuit file."""
    h = hashlib.sha256()
    for tid, values in phase.values:
        h.update(f"{tid} {values!r}\n".encode())
    h.update(circuit_bytes)
    return h.hexdigest()


def setup_samples(workload, seed, smoke, first) -> list:
    """Cold set-ups as (seconds, host speed, problem): ``first`` from this
    process, the rest from fresh ones."""
    out = [first]
    args = [sys.executable, os.path.join(coldstart.HERE, "coldstart.py"), workload, str(seed)]
    if smoke:
        args.append("--smoke")
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(args, capture_output=True, text=True, timeout=150, check=True)
        seconds, speed, status = done.stdout.split()[-3:]
        out.append((float(seconds), float(speed), None if status == "ok" else "warm-up failed"))
    return out


def span_metrics(spans, ladder_ids, speed) -> dict:
    """Per-layer busy time, shares, target self time and span coverage.

    ``speed`` maps a target id to its host speed; spans of that target are
    scaled to the reference speed, the others (the ladder) stay wall time.
    """
    busy = {}
    ladder = {}
    in_ladder = set(ladder_ids)
    target_total = child_total = 0.0
    for name, start, end, parent, tid in spans:
        dur = (end - start) * speed.get(tid, 1.0)
        if tid in in_ladder:
            if parent is not None:
                key = (tid, name)
                ladder[key] = ladder.get(key, 0.0) + dur
            continue
        if name == "bench.target":
            target_total += dur
        else:
            busy[name] = busy.get(name, 0.0) + dur
            if parent is not None:
                child_total += dur
    m = {}
    for name in PIPELINE_LAYERS + PROBE_LAYERS:
        m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    for name in SHARE_LAYERS:
        m[f"{name}.share"] = (busy.get(name, 0.0) / target_total, "fraction")
    m["bench.target_self_s"] = (target_total - child_total, "s")
    m["trace.span_coverage"] = (child_total / target_total, "fraction")
    for tid in ladder_ids:
        n = tid.rsplit("n", 1)[1]
        for name in LADDER_LAYERS:
            m[f"ladder.n{n}.{name}.busy_s"] = (ladder.get((tid, name), 0.0), "s")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every register to n <= 3 (for the benchmark's own tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if not os.path.isfile(os.path.join(coldstart.SRC, "mixedprep", "__init__.py")):
        print(f"error: no mixedprep sources under {coldstart.SRC}", file=sys.stderr)
        return 2

    setup = [coldstart.cold_setup(args.workload, args.seed, args.smoke)]
    env = environment(args.seed, nproc)
    if not args.trace:
        setup = setup_samples(args.workload, args.seed, args.smoke, setup[0])
    problems = [f"set-up warm-up: {p}" for _, _, p in setup if p is not None]

    import pipeline  # only after cold_setup has timed the first import

    tracer = pipeline.Tracer() if args.trace else None
    phase, traced = run_rounds(args.workload, args.seed, args.smoke, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += phase.problems
    if phase.probe is None:
        problems.append("no target of round 0 compiled, so no circuit to serialize")
        circuit_bytes = b""
    else:
        circuit_bytes, _, problem = circuit_roundtrip(args.workload, args.seed, phase.probe[1])
        if problem:
            problems.append(problem)

    attempted = len(phase.times)
    scaled = phase.scaled_times()
    verified = attempted - phase.failed
    report = {
        "workload": args.workload,
        "environment": env,
        "rounds": phase.rounds,
        "samples": attempted,
        "fail_frac": phase.failed / attempted,
        "digest": digest(phase, circuit_bytes),
        "host_speed_median": statistics.median(phase.speeds),
        "host_speed_samples": len(phase.speeds),
        "wall_targets_per_s": verified / sum(phase.times),
        "wall_target_p50_ms": statistics.median(phase.times) * 1e3,
        "setup_wall_s": [s for s, _, _ in setup],
        "setup_host_speed": [v for _, v, _ in setup],
    }
    if args.trace:
        metrics, extra = traced_metrics(args, phase, traced, problems)
        report.update(extra)
    else:
        metrics = {
            "targets_per_s": (verified / sum(scaled), "1/s"),
            "target_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "setup_s": (statistics.median(s * v for s, v, _ in setup), "s"),
        }
        if attempted >= 100:
            report["target_p90_ms"] = statistics.quantiles(scaled, n=10)[-1] * 1e3
    report["problems"] = problems[:20]
    for line in problems[:5]:
        print(line, file=sys.stderr)
    print(json.dumps({"report": report}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def traced_metrics(args, plain: Phase, phase: Phase, problems) -> tuple:
    """Per-layer metrics of the traced rounds, the serialize probe and the ladder."""
    import workloads

    tracer = phase.tracer
    problems += phase.problems
    if phase.values != plain.values:
        problems.append("traced run of round 0 gave different values")

    circuit_bytes, roundtrip_s, problem = b"", 0.0, None
    if phase.probe is not None:
        circuit_bytes, roundtrip_s, problem = circuit_roundtrip(
            args.workload, args.seed, phase.probe[1], tracer)
    if problem:
        problems.append(problem)

    ladder = workloads.ladder_targets(args.seed, args.smoke)
    for target in ladder:
        span = tracer.begin("bench.target", target.tid)
        _, _, problem = attempt(target, tracer)
        tracer.end(span)
        if problem is not None:
            problems.append(f"{target.tid}: {problem}")

    order = (tid for name, _, _, _, tid in tracer.spans if name == "bench.target")
    speed = dict(zip(order, phase.speed_factors()))
    metrics = span_metrics(tracer.spans, [t.tid for t in ladder], speed)
    counts = phase.counts
    for name in ("purify.gates", "simulator.gates_applied", "simulator.pauli_strings",
                 "simulator.shots", "linalg.tied_cols", "linalg.completed_cols"):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["simulator.state_bytes"] = (counts.get("simulator.state_bytes", 0), "B-computed")
    metrics["metrics.fidelity_loss_max"] = (counts.get("metrics.fidelity_loss_max", 0.0), "1")
    metrics["serialize.circuit_roundtrip_s"] = (roundtrip_s, "s")
    metrics["serialize.circuit_bytes"] = (len(circuit_bytes), "B")
    metrics["states.gen_s"] = (plain.gen_s, "s")
    metrics["trace.overhead_frac"] = (
        sum(phase.scaled_times()) / sum(plain.scaled_times()) - 1.0, "fraction")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "target"],
                   "spans": tracer.spans}, fh)
    return metrics, {"spans_file": os.path.relpath(path, ROOT)}


if __name__ == "__main__":
    sys.exit(main())
