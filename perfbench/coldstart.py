"""Set-up cost: ``import mixedprep`` plus one verified warm-up target.

``run.py`` measures it once in its own process and again in fresh
interpreters started as ``python3 coldstart.py WORKLOAD SEED [--smoke]``,
which print ``<seconds> <host speed> <ok|fail>``.  Nothing here imports
numpy or mixedprep before the timer starts; the host speed (reference.py)
is measured right after the set-up.
"""
from __future__ import annotations

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def cold_setup(workload: str, seed: int, smoke: bool) -> tuple:
    """Return (wall seconds, host speed, problem or None) for import plus
    the warm-up target."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    start = perf_counter()
    import mixedprep  # noqa: F401  (timed: users pay this once per process)

    imported = perf_counter() - start
    import pipeline
    import workloads

    target = workloads.warmup_target(workload, seed, smoke)
    start = perf_counter()
    _, _, problem = pipeline.process(target)
    seconds = imported + perf_counter() - start
    import reference

    return seconds, reference.speed(5), problem


if __name__ == "__main__":
    seconds, speed, problem = cold_setup(sys.argv[1], int(sys.argv[2]), "--smoke" in sys.argv[3:])
    print(f"{seconds!r} {speed!r} {'ok' if problem is None else 'fail'}")
