"""Host-speed reference: a fixed kernel that runs no mixedprep code.

The benchmark runs on shared hosts whose speed switches between a fast
and a slow state, about 1.4x apart, many times a second, and user and
wall time move together.  ``run.py`` times this kernel before every target
and after the last one, and ``coldstart.py`` times it after each set-up.
A time multiplied by the host's relative speed, ``REFERENCE_S / kernel
seconds``, is the time the same work would take on a host running at the
reference speed.  The kernel is small eigensolves plus small random draws,
in equal parts.  Of the kernels tried on recorded runs (a pure-Python loop,
32x32 and 128x128 eigensolves, a sweep over 4 MiB, 1000-element draws), that
pair followed the drift of all four workloads most closely, and sampling
it next to every target tracked far better than once a second.  It calls
nothing of the program, so a change to the program moves the scaled times
exactly as much as the wall times.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds one pass of the kernel takes at the reference speed, between
# targets on a 2-core Xeon host with one BLAS thread.  It only sets the scale.
REFERENCE_S = 1.3e-3
SAMPLE_SHARE = 0.01  # a sample after a long target costs about this share of it
MAX_PASSES = 16

_rng = np.random.default_rng(20240206)
_small = _rng.standard_normal((32, 32))
_small = _small + _small.T


def kernel_seconds() -> float:
    """Wall seconds of one pass of the kernel."""
    start = perf_counter()
    for _ in range(4):
        np.linalg.eigh(_small)
    for _ in range(60):
        int((_rng.random(1000) < 0.3).sum())
    return perf_counter() - start


def speed(passes: int) -> float:
    """Host speed relative to the reference, over ``passes`` passes: above 1 is faster."""
    return REFERENCE_S * passes / sum(kernel_seconds() for _ in range(passes))


def passes_after(seconds: float) -> int:
    """Passes for the sample that follows a target of ``seconds``.

    One pass reads the host at an instant, which is right for a target of a
    few milliseconds.  A long target spans many switches of the host's speed,
    so the samples around it take more passes.
    """
    return max(1, min(MAX_PASSES, round(SAMPLE_SHARE * seconds / REFERENCE_S)))
