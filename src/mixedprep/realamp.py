"""Compiler from real non-negative amplitude vectors to Ry-tree circuits.

Given a normalized vector of 2**n real non-negative amplitudes, emit a
circuit of exactly 2**n - 1 rotations: one plain Ry on qubit 0, then for
each level k = 1..n-1 one multi-controlled Ry per k-bit prefix, controlled
on qubits 0..k-1 matching that prefix and targeting qubit k.  Each angle
splits a branch norm between the child whose next bit is 0 and the child
whose next bit is 1.

The tree is built a level at a time: one array pass for the level's
branch norms, one list of ``2 * atan2`` angles over them as floats (those
of :func:`rotation_angle`), and one ``itertools.product`` for the controls
of its prefixes, whose (qubit, bit) pairs the level's gates share.
"""
from __future__ import annotations

import math
from itertools import product, repeat

import numpy as np

from .circuits import Circuit, MultiControlledRy, Ry
from .errors import (DimensionMismatchError, LevelOutOfRangeError, NegativeAmplitudeError,
                     NotNormalizedError, OutOfRangeError, _is_int, _qubits_of_dim,
                     _require_real, _require_tol, _shown)
from .linalg import DEFAULT_TOL

__all__ = ["branch_norms", "compile_real_state", "rotation_angle"]


def branch_norms(amps: np.ndarray, level: int) -> np.ndarray:
    """Root-sum-square of the amplitudes under each prefix of ``level + 1`` bits.

    Returns ``2**(level + 1)`` values; ``level = n - 1`` returns the
    amplitudes themselves.  A nonzero imaginary part raises
    :class:`NegativeAmplitudeError`.  Each branch is scaled by the power of
    two just above its largest modulus before squaring, so no square
    overflows, nor underflows unless it is negligible in its sum; the scaling
    is exact, so the values are those of the unscaled sum wherever that sum
    fits.  A norm past the float range is inf.
    """
    amps, n = _amplitude_vector(amps)
    if not (_is_int(level) and 0 <= level < n):
        raise LevelOutOfRangeError(f"level {_shown(level)} outside 0..{n - 1}")
    branches = amps.reshape(2 ** (level + 1), -1)
    _, e = np.frexp(np.abs(branches).max(axis=1))  # 0 for a zero, NaN or infinite max
    with np.errstate(over="ignore"):
        return np.ldexp(_branch_norms(np.ldexp(branches, -e[:, None]) ** 2, level), e)


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
    try:  # no cost until it raises on Python 3.11+
        return 2.0 * math.atan2(r1, r0)
    except (TypeError, OverflowError) as exc:
        raise OutOfRangeError(f"branch norms must be real numbers: {exc}") from exc


def compile_real_state(amps, tol: float = DEFAULT_TOL) -> Circuit:
    """Compile real non-negative amplitudes into an Ry-tree circuit.

    The amplitude vector length must be a power of two (at least 2) and
    normalized within ``tol``, its entries real and non-negative; starting
    from |0...0> the circuit reproduces it exactly.
    """
    _require_tol(tol)
    amps, _ = _amplitude_vector(amps)
    if amps.min() < -tol:
        raise NegativeAmplitudeError(
            f"amplitude {amps.min():.3e} is negative beyond tol={tol:g}"
        )
    amps = np.clip(amps, 0.0, None)
    with np.errstate(over="ignore"):  # a norm past the float range is inf, and refused
        nrm = float(np.linalg.norm(amps))
    if not abs(nrm - 1.0) <= tol:
        raise NotNormalizedError(f"amplitude norm {nrm!r} deviates from 1 beyond tol={tol:g}")
    return _ry_tree(amps)


def _ry_tree(amps: np.ndarray) -> Circuit:
    """The Ry-tree circuit of a float vector already known to be a valid amplitude vector.

    No check is repeated: the caller has established a power-of-two length
    of at least 2, non-negative entries and unit norm.  Every level's branch
    norms come from one array of squares, its angles from one pass of
    ``atan2`` over them as floats, and its controls from one
    ``itertools.product`` of the (qubit, bit) pairs of qubits 0..level-1:
    the prefixes in ascending order, qubit 0 the most significant bit, with
    the level's 2 * level pair tuples shared by its gates.
    """
    n = amps.shape[0].bit_length() - 1
    sq = amps ** 2
    circuit = Circuit(num_qubits=n, label="real-amplitude loader")
    for level in range(n):
        norms = _branch_norms(sq, level).tolist()
        thetas = [2.0 * math.atan2(r1, r0) for r0, r1 in zip(norms[::2], norms[1::2])]
        if level == 0:
            circuit.gates.append(Ry(target=0, theta=thetas[0]))
        else:
            prefixes = product(*(((q, 0), (q, 1)) for q in range(level)))
            circuit.gates.extend(map(MultiControlledRy, prefixes, repeat(level), thetas))
    return circuit
