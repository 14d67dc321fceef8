"""Command-line front end.

Subcommands:

* ``prepare``   compile a density matrix (file or named family) to a circuit file
* ``simulate``  run a circuit file, optionally trace out the ancilla half
* ``metrics``   print fidelity / coherence / local-coherence / concurrence
* ``reproduce`` regenerate the benchmark sweeps as CSV (figure 2 or 3)
* ``gen``       write a named family state to a density file

Exit codes: 0 success, 2 validation or format problem, 3 I/O failure.
All flags live after the subcommand, e.g. ``mixedprep prepare --family
ginibre:d=4,seed=7 --out c.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from . import __version__
from .errors import DimensionMismatchError, FormatError, OutOfRangeError, StatePrepError
from .metrics import (
    concurrence,
    fidelity,
    l1_coherence,
    local_l1_coherence,
    tomography_reconstruct,
)
from .purify import build_preparation_circuit, prepare_density
from .serialize import (
    FILE_VALIDATE_TOL,
    read_circuit_file,
    read_density_file,
    write_circuit_file,
    write_density_file,
)
from .simulator import MAX_QUBITS, reduced_density, run, sample_pauli_expectations
from .states import c1_state, ginibre_density, p00_family

_FAMILY_HELP = "family spec 'name:key=value,...'; names: ginibre, xstate, c1"


def make_family_state(text: str, default_seed: int) -> np.ndarray:
    """Build a density matrix from a family spec string.

    ``ginibre:d=4,seed=7`` (seed falls back to --seed), ``xstate:theta=...,
    phi=...,p00=...`` (angles default to pi/8, p00 to 0.5), ``c1:c1=0.2``.
    """
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    kv = {}
    for part in rest.split(",") if rest else []:
        if "=" not in part:
            raise FormatError(f"family spec {text!r}: expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        kv[key.strip()] = val.strip()

    if name == "ginibre":
        d = _param(kv, "d", text, int)
        seed = _param(kv, "seed", text, int, default=default_seed)
        _reject_extras(kv, {"d", "seed"}, text)
        return ginibre_density(d, seed)
    if name == "xstate":
        theta = _param(kv, "theta", text, float, default=math.pi / 8)
        phi = _param(kv, "phi", text, float, default=math.pi / 8)
        p00 = _param(kv, "p00", text, float, default=0.5)
        _reject_extras(kv, {"theta", "phi", "p00"}, text)
        return p00_family(p00, theta, phi)
    if name == "c1":
        c1 = _param(kv, "c1", text, float)
        _reject_extras(kv, {"c1"}, text)
        return c1_state(c1)
    raise FormatError(f"unknown family {name!r} (expected ginibre, xstate, or c1)")


def _param(kv, key, text, kind, default=None):
    """``kv[key]`` parsed as ``kind`` (int, or float and finite), else ``default``."""
    if key not in kv:
        if default is None:
            raise FormatError(f"family spec {text!r}: missing required key {key!r}")
        return default
    try:
        value = kind(kv[key])
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        what = "an integer" if kind is int else "a finite number"
        raise FormatError(f"family spec {text!r}: {key} must be {what}")
    return value


def _reject_extras(kv, allowed, text):
    extras = sorted(set(kv) - allowed)
    if extras:
        raise FormatError(f"family spec {text!r}: unknown key {extras[0]!r}")


def _load_density(path) -> np.ndarray:
    """Read a density file unchecked: its consumer validates it once, at ``--tol``."""
    return read_density_file(path, validate_tol=None)


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def cmd_prepare(args) -> int:
    if args.input:
        rho = _load_density(args.input)
        source = f"sha256:{_file_digest(args.input)}"
    else:
        rho = make_family_state(args.family, args.seed)
        source = args.family
    bundle = build_preparation_circuit(rho, args.tol)
    meta = {
        "tool": f"mixedprep {__version__}",
        "source": source,
        "seed": args.seed,
        "tol": args.tol,
    }
    write_circuit_file(args.out, bundle.circuit, meta)
    if not args.quiet:
        print("eigenvalues:", " ".join(f"{x:.12g}" for x in bundle.spectral.eigenvalues))
        print(f"gates: {len(bundle.circuit.gates)}")
        print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    circuit = read_circuit_file(args.circuit)
    n = circuit.num_qubits
    if args.trace_ancillas and n % 2:
        raise DimensionMismatchError(
            f"cannot split {n} qubits into equal system and ancilla halves"
        )
    if not args.trace_ancillas and 2 * n > MAX_QUBITS:
        raise OutOfRangeError(
            f"the density matrix of {n} qubits has as many entries as a {2 * n}-qubit "
            f"state, beyond the {MAX_QUBITS}-qubit limit; use --trace-ancillas"
        )
    state = run(circuit, args.tol)
    if args.trace_ancillas:
        rho = reduced_density(state, range(n // 2))
    else:
        rho = np.outer(state, state.conj())
    write_density_file(args.out, rho)
    if not args.quiet:
        print(f"wrote {args.out}")
    return 0


def cmd_metrics(args) -> int:
    rho = _load_density(args.state)
    if args.metric == "fidelity":
        if not args.target:
            raise FormatError("--metric fidelity requires --target")
        sigma = _load_density(args.target)
        value = fidelity(rho, sigma, args.tol)
    elif args.metric == "coherence":
        value = l1_coherence(rho, args.tol)
    elif args.metric == "local-coherence":
        value = local_l1_coherence(rho, args.subsystem, args.tol)
    else:
        value = concurrence(rho, args.tol)
    print(f"{value:.12f}")
    return 0


def cmd_gen(args) -> int:
    rho = make_family_state(args.family, args.seed)
    write_density_file(args.out, rho)
    if not args.quiet:
        print(f"wrote {args.out}")
    return 0


def _parse_shots(text: str):
    """``None`` for 'exact', else the integer; the sampler checks its range."""
    if text == "exact":
        return None
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"shots must be an integer or 'exact', got {text!r}") from None


def _pipeline_density(target, args, shots, seed) -> np.ndarray:
    """prepare -> simulate -> trace; with finite shots, tomography instead of trace."""
    if shots is None:
        return prepare_density(target, args.tol)
    bundle = build_preparation_circuit(target, args.tol)
    state = run(bundle.circuit)
    expectations = sample_pauli_expectations(state, bundle.system_qubits, shots, seed)
    return tomography_reconstruct(expectations, len(bundle.system_qubits))


def _figure2_blocks(args, shots):
    p00s = [i / 20 for i in range(21)]
    c1s = [float(c1) for c1 in np.linspace(-0.32, 0.32, 21)]
    return [
        (["p00", "EC_theory", "EC_pipeline", "Cl1_theory", "Cl1_pipeline"],
         _sweep(args, shots, 0, p00s, p00_family, (concurrence, l1_coherence))),
        (["c1", "Cl1_global_theory", "Cl1_global_pipeline", "Cl1_local_theory",
          "Cl1_local_pipeline"],
         _sweep(args, shots, len(p00s), c1s, lambda c1: c1_state(c1, args.tol),
                (l1_coherence, lambda rho, tol: local_l1_coherence(rho, "A", tol)))),
    ]


def _sweep(args, shots, first_row, points, family, metrics) -> list:
    """Rows (x, m(target), m(prepared) for each metric m) over the family's points.

    Row r of the figure draws its shots from seed ``--seed + 1000 * r``.
    """
    rows = []
    for row, x in enumerate(points, first_row):
        target = family(x)
        prepared = _pipeline_density(target, args, shots, args.seed + 1000 * row)
        rows.append((x, *(m(rho, args.tol) for m in metrics for rho in (target, prepared))))
    return rows


def _figure3_blocks(args, shots):
    rows = []
    for d in (2, 4, 8):
        for sample in range(10):
            target = ginibre_density(d, args.seed + 1000 * d + sample)
            meas_seed = args.seed + 100000 * d + 1000 * sample
            prepared = _pipeline_density(target, args, shots, meas_seed)
            rows.append((d, sample, fidelity(prepared, target, args.tol)))
    return [(["d", "sample", "fidelity"], rows)]


def _csv_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, blocks) -> None:
    lines = []
    for bi, (header, rows) in enumerate(blocks):
        if bi:
            lines.append("")
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_reproduce(args) -> int:
    if args.figure not in ("2", "3"):
        raise FormatError(f"unknown figure id: {args.figure} (expected 2 or 3)")
    shots = _parse_shots(args.shots)
    if args.figure == "2":
        blocks = _figure2_blocks(args, shots)
    else:
        blocks = _figure3_blocks(args, shots)
    _write_csv(args.out, blocks)
    if not args.quiet:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # one parent per shared flag, so that each subcommand takes only the flags it reads
    tol, seed, quiet = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    tol.add_argument(
        "--tol", type=float, default=FILE_VALIDATE_TOL,
        help="numerical tolerance (default %(default)g)",
    )
    seed.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    quiet.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="mixedprep",
        description="Compile, simulate, and verify mixed-state preparation circuits.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "prepare",
        parents=[tol, seed, quiet],
        help="compile a density matrix into a preparation circuit file",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="DENSITY_FILE", help="density-matrix JSON file")
    src.add_argument("--family", metavar="SPEC", help=_FAMILY_HELP)
    p.add_argument("--out", required=True, metavar="CIRCUIT_FILE")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("simulate", parents=[tol, quiet], help="run a circuit file exactly")
    p.add_argument("--circuit", required=True, metavar="CIRCUIT_FILE")
    p.add_argument(
        "--trace-ancillas",
        action="store_true",
        help="trace out the upper half of the register before writing",
    )
    p.add_argument("--out", required=True, metavar="DENSITY_FILE")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("metrics", parents=[tol], help="print a metric of a state file")
    p.add_argument("--state", required=True, metavar="DENSITY_FILE")
    p.add_argument("--target", metavar="DENSITY_FILE", help="second state for fidelity")
    p.add_argument(
        "--metric",
        required=True,
        choices=["fidelity", "coherence", "local-coherence", "concurrence"],
    )
    p.add_argument("--subsystem", choices=["A", "B"], default="A")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "reproduce", parents=[tol, seed, quiet], help="regenerate a benchmark sweep as CSV"
    )
    p.add_argument("--figure", required=True, metavar="ID", help="2 or 3")
    p.add_argument("--out", required=True, metavar="CSV_FILE")
    p.add_argument(
        "--shots",
        default="exact",
        metavar="N|exact",
        help="finite-shot tomography with N shots per measurement setting, or 'exact'",
    )
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("gen", parents=[seed, quiet], help="write a family state to a file")
    p.add_argument("--family", required=True, metavar="SPEC", help=_FAMILY_HELP)
    p.add_argument("--out", required=True, metavar="DENSITY_FILE")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StatePrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
