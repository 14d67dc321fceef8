"""Compiler from real non-negative amplitude vectors to Ry-tree circuits.

Given a normalized vector of 2**n real non-negative amplitudes, emit a
circuit of exactly 2**n - 1 rotations: one plain Ry on qubit 0, then for
each level k = 1..n-1 one multi-controlled Ry per k-bit prefix, controlled
on qubits 0..k-1 matching that prefix and targeting qubit k.  Each angle
splits a branch norm between the child whose next bit is 0 and the child
whose next bit is 1.
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, MultiControlledRy, Ry
from .errors import (DimensionMismatchError, LevelOutOfRangeError, NegativeAmplitudeError,
                     NotNormalizedError, OutOfRangeError, _is_int, _qubits_of_dim,
                     _require_real)
from .linalg import DEFAULT_TOL


def branch_norms(amps: np.ndarray, level: int) -> np.ndarray:
    """Root-sum-square of the amplitudes under each prefix of ``level + 1`` bits.

    Returns ``2**(level + 1)`` values; ``level = n - 1`` returns the
    amplitudes themselves.  A nonzero imaginary part raises
    :class:`NegativeAmplitudeError`.
    """
    amps, n = _amplitude_vector(amps)
    if not (_is_int(level) and 0 <= level < n):
        raise LevelOutOfRangeError(f"level {level} outside 0..{n - 1}")
    return _branch_norms(amps ** 2, level)


def _amplitude_vector(amps) -> tuple:
    """``amps`` as a 1-d float array of 2**n entries (n >= 1), and n; else a typed error."""
    amps = _require_real(amps, NegativeAmplitudeError, "amplitudes must be real and non-negative")
    if amps.ndim != 1:
        raise DimensionMismatchError(f"an amplitude vector is 1-d, got shape {amps.shape}")
    return amps, _qubits_of_dim(amps.shape[0], DimensionMismatchError, "amplitude vector length")


def _branch_norms(sq: np.ndarray, level: int) -> np.ndarray:
    return np.sqrt(sq.reshape(2 ** (level + 1), -1).sum(axis=1))


def rotation_angle(r0: float, r1: float) -> float:
    """Angle in [0, pi] splitting a branch norm into (r0, r1) up to scale.

    Follows atan2 conventions: (0, 0) gives 0, (0, positive) gives pi.  A
    norm that is not a real float is an :class:`OutOfRangeError`.
    """
    try:  # no cost until it raises on Python 3.11+, where the loader calls it per rotation
        return 2.0 * math.atan2(r1, r0)
    except (TypeError, OverflowError) as exc:
        raise OutOfRangeError(f"branch norms must be real numbers: {exc}") from exc


def compile_real_state(amps, tol: float = DEFAULT_TOL) -> Circuit:
    """Compile real non-negative amplitudes into an Ry-tree circuit.

    The amplitude vector length must be a power of two (at least 2) and
    normalized within ``tol``, its entries real and non-negative; starting
    from |0...0> the circuit reproduces it exactly.
    """
    amps, _ = _amplitude_vector(amps)
    if amps.min() < -tol:
        raise NegativeAmplitudeError(
            f"amplitude {amps.min():.3e} is negative beyond tol={tol:g}"
        )
    amps = np.clip(amps, 0.0, None)
    nrm = float(np.linalg.norm(amps))
    if not abs(nrm - 1.0) <= tol:
        raise NotNormalizedError(f"amplitude norm {nrm!r} deviates from 1 beyond tol={tol:g}")
    return _ry_tree(amps)


def _ry_tree(amps: np.ndarray) -> Circuit:
    """The Ry-tree circuit of a float vector already known to be a valid amplitude vector.

    No check is repeated: the caller has established a power-of-two length
    of at least 2, non-negative entries and unit norm.  Every level's branch
    norms come from one array of squares.
    """
    n = amps.shape[0].bit_length() - 1
    sq = amps ** 2
    circuit = Circuit(num_qubits=n, label="real-amplitude loader")
    for level in range(n):
        children = _branch_norms(sq, level)
        for prefix in range(2 ** level):
            theta = rotation_angle(children[2 * prefix], children[2 * prefix + 1])
            if level == 0:
                circuit.gates.append(Ry(target=0, theta=theta))
            else:
                controls = tuple(
                    (q, (prefix >> (level - 1 - q)) & 1) for q in range(level)
                )
                circuit.gates.append(
                    MultiControlledRy(controls=controls, target=level, theta=theta)
                )
    return circuit
