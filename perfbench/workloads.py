"""Seeded targets for the benchmark workloads.

A workload is an endless sequence of rounds.  Round ``r`` is a fixed list
of targets that depends only on (workload, seed, r), so one seed always
gives the same inputs, and every round draws fresh parameters, so no two
targets of a run are identical and a memo cache gains nothing.  Runs
always finish whole rounds, which keeps the mix of target kinds in every
run in the same proportions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mixedprep import states

SHOTS = 1000
# Grid ranges of the figure 2 sweeps (``reproduce --figure 2``).
C1_RANGE = (-0.32, 0.32)
GRID_POINTS = 21
FIG3_DIMS = (2, 4, 8)
FIG3_SAMPLES = 10
LOWRANK_RANKS = (1, 4, 16)
LADDER_QUBITS = tuple(range(1, 11))

# Seed-stream tags keep the warm-up, timed and ladder targets apart.
_TIMED, _WARMUP, _LADDER = 0, 1, 2


@dataclass
class Target:
    """One input of the closed loop, plus what its verification needs."""

    tid: str
    rho: np.ndarray
    shots: int | None  # None: exact readout; else shots per Pauli string
    meas_seed: int
    theory: dict  # closed-form metric values of the target, figure 2 only


def _seed(*key) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _p00_theory(p00: float) -> dict:
    """Concurrence and l1 coherence of the X-state family at theta = phi = pi/8."""
    p = (p00 / 3, (1 - p00) / 3, 2 * p00 / 3, 2 * (1 - p00) / 3)
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    r00 = p[0] * c * c + p[3] * s * s
    r33 = p[0] * s * s + p[3] * c * c
    r11 = p[1] * s * s + p[2] * c * c
    r22 = p[1] * c * c + p[2] * s * s
    r03 = abs(p[0] - p[3]) * c * s
    r12 = abs(p[1] - p[2]) * c * s
    conc = 2 * max(0.0, r03 - math.sqrt(r11 * r22), r12 - math.sqrt(r00 * r33))
    return {"concurrence": conc, "l1_coherence": 2 * (r03 + r12)}


def _lowrank(d: int, rank: int, equal: bool, seed: int) -> np.ndarray:
    """Rank-``rank`` density matrix on a Haar-random subspace of C^d."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, d, rank))
    q, _ = np.linalg.qr(g[0] + 1j * g[1])
    w = np.full(rank, 1.0 / rank) if equal else rng.dirichlet(np.ones(rank))
    rho = (q * w) @ q.conj().T
    return (rho + rho.conj().T) / 2


def _paper_round(seed: int, stream: int, r: int, shots) -> list:
    rng = np.random.default_rng(_seed(seed, stream, r))
    u = rng.random((2, GRID_POINTS))
    out = []
    for i in range(GRID_POINTS):
        p00 = (i + u[0, i]) / GRID_POINTS
        out.append(Target(f"{r}/p00/{i}", states.p00_family(p00), shots,
                          _seed(seed, stream, r, 0, i), _p00_theory(p00)))
    lo, hi = C1_RANGE
    for i in range(GRID_POINTS):
        c1 = lo + (hi - lo) * (i + u[1, i]) / GRID_POINTS
        out.append(Target(f"{r}/c1/{i}", states.c1_state(c1), shots,
                          _seed(seed, stream, r, 1, i),
                          {"l1_coherence": 3 * abs(c1), "local_l1_coherence": abs(c1)}))
    for d in FIG3_DIMS:
        for k in range(FIG3_SAMPLES):
            rho = states.ginibre_density(d, _seed(seed, stream, r, 2, d, k))
            out.append(Target(f"{r}/ginibre{d}/{k}", rho, shots,
                              _seed(seed, stream, r, 3, d, k), {}))
    return out


def _ginibre_round(seed: int, stream: int, r: int, d: int) -> list:
    rho = states.ginibre_density(d, _seed(seed, stream, r))
    return [Target(f"{r}/ginibre{d}", rho, None, 0, {})]


def _lowrank_round(seed: int, stream: int, r: int, d: int, ranks) -> list:
    out = []
    for rank in ranks:
        for equal in (True, False):
            rho = _lowrank(d, rank, equal, _seed(seed, stream, r, rank, int(equal)))
            tag = "equal" if equal else "random"
            out.append(Target(f"{r}/rank{rank}-{tag}", rho, None, 0, {}))
    return out


def make_round(name: str, seed: int, r: int, smoke: bool = False, stream: int = _TIMED) -> list:
    """Targets of round ``r``; ``smoke`` shrinks every register to n <= 3."""
    if name == "paper-exact":
        return _paper_round(seed, stream, r, None)
    if name == "paper-shots":
        return _paper_round(seed, stream, r, SHOTS)
    if name == "ginibre-n9":
        return _ginibre_round(seed, stream, r, 8 if smoke else 512)
    if name == "lowrank-n8":
        if smoke:
            return _lowrank_round(seed, stream, r, 8, (1, 2, 4))
        return _lowrank_round(seed, stream, r, 256, LOWRANK_RANKS)
    raise ValueError(f"unknown workload {name!r}")


def warmup_target(name: str, seed: int, smoke: bool = False) -> Target:
    """The largest target of a round drawn from the warm-up stream."""
    return max(make_round(name, seed, 0, smoke, _WARMUP), key=lambda t: t.rho.shape[0])


def ladder_targets(seed: int, smoke: bool = False) -> list:
    """One Ginibre target per register size n, for the traced size ladder."""
    qubits = LADDER_QUBITS[:3] if smoke else LADDER_QUBITS
    return [
        Target(f"ladder/n{n}", states.ginibre_density(2 ** n, _seed(seed, _LADDER, n)),
               None, 0, {})
        for n in qubits
    ]
