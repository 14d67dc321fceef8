"""Generators for the state families exercised throughout the test corpus.

Covers two-qubit X-shaped states built from an explicit eigenbasis, the
one-parameter probability family over that basis, a zero-entanglement
coherence family, and Ginibre random density matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadProbabilitiesError, NotPSDError, OutOfRangeError, _is_finite_real,
                     _require_int, _require_real, _require_tol, _shown)
from .linalg import DEFAULT_TOL, PROB_TOL
from .simulator import MAX_TARGET_DIM

__all__ = ["XStateParams", "c1_state", "c1_valid_range", "ginibre_density", "p00_family",
           "p00_family_probs", "x_state", "x_state_eigenvectors"]


@dataclass(frozen=True)
class XStateParams:
    """Two angles plus the probabilities of the four X-state eigenvectors.

    ``probs`` pairs with the eigenvectors in the order returned by
    :func:`x_state_eigenvectors`.
    """

    theta: float
    phi: float
    probs: tuple


def x_state_eigenvectors(theta: float, phi: float) -> np.ndarray:
    """Columns are the four orthonormal eigenvectors of an X-shaped state.

    Column order: (cos t, 0, 0, sin t), (0, sin f, cos f, 0),
    (0, cos f, -sin f, 0), (-sin t, 0, 0, cos t).  At t = f = pi/4 this is
    the Bell basis up to column order.  An angle that is not a finite real
    number raises :class:`OutOfRangeError`.
    """
    if not (_is_finite_real(theta) and _is_finite_real(phi)):
        raise OutOfRangeError(
            f"angles must be finite, got theta={_shown(theta)}, phi={_shown(phi)}")
    ct, st = math.cos(theta), math.sin(theta)
    cf, sf = math.cos(phi), math.sin(phi)
    return np.array(
        [
            [ct, 0.0, 0.0, -st],
            [0.0, sf, cf, 0.0],
            [0.0, cf, -sf, 0.0],
            [st, 0.0, 0.0, ct],
        ],
        dtype=complex,
    )


def x_state(params: XStateParams) -> np.ndarray:
    """Assemble the X-shaped density matrix sum(p_j |v_j><v_j|).

    The four probabilities must be real and finite, none below
    ``-PROB_TOL``, summing to 1 within ``PROB_TOL``; otherwise
    :class:`BadProbabilitiesError`, as is anything but an :class:`XStateParams`.
    """
    if not isinstance(params, XStateParams):
        raise BadProbabilitiesError(f"expected XStateParams, got {type(params).__name__}")
    probs = _require_real(params.probs, BadProbabilitiesError, "probabilities must be real")
    if probs.shape != (4,):
        raise BadProbabilitiesError(f"expected 4 probabilities, got shape {probs.shape}")
    if not np.isfinite(probs).all():
        raise BadProbabilitiesError(f"probabilities must be finite, got {probs.tolist()}")
    if probs.min() < -PROB_TOL:
        raise BadProbabilitiesError(f"probability {probs.min():.3e} is negative")
    if abs(float(probs.sum()) - 1.0) > PROB_TOL:
        raise BadProbabilitiesError(
            f"probabilities sum to {float(probs.sum())!r}, expected 1 within {PROB_TOL:g}"
        )
    v = x_state_eigenvectors(params.theta, params.phi)
    return (v * probs) @ v.conj().T


def p00_family_probs(p00: float) -> tuple:
    """The eigenvector probabilities (p00/3, (1-p00)/3, 2*p00/3, 2*(1-p00)/3)."""
    if not (_is_finite_real(p00) and 0.0 <= p00 <= 1.0):
        raise OutOfRangeError(f"p00 must be a real number in [0, 1], got {_shown(p00)}")
    return (p00 / 3.0, (1.0 - p00) / 3.0, 2.0 * p00 / 3.0, 2.0 * (1.0 - p00) / 3.0)


def p00_family(p00: float, theta: float = math.pi / 8, phi: float = math.pi / 8) -> np.ndarray:
    """X-state with the one-parameter spectrum at fixed angles (default pi/8)."""
    return x_state(XStateParams(theta=theta, phi=phi, probs=p00_family_probs(p00)))


def _c1_matrix(c1: float) -> np.ndarray:
    c = float(c1)
    return (
        np.array(
            [
                [1 + c, c, c, 0],
                [c, 1 - c, 2 * c, c],
                [c, 2 * c, 1 - c, c],
                [0, c, c, 1 + c],
            ],
            dtype=complex,
        )
        / 4.0
    )


def c1_state(c1: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Two-qubit family with uniform diagonal correlators c1.

    All three diagonal correlators and the first local coefficients on both
    qubits equal c1; everything else vanishes.  Positivity bounds c1, so
    out-of-range values raise :class:`NotPSDError`, and anything but a
    finite real number :class:`OutOfRangeError`.  Separable for c1 >= -0.2612 or so;
    concurrence grows toward the negative PSD edge.
    """
    _require_tol(tol)
    if not _is_finite_real(c1):
        raise OutOfRangeError(f"c1 must be a finite real number, got {_shown(c1)}")
    lo = (1 - 3 * abs(float(c1))) / 4  # the least eigenvalue, see c1_valid_range
    if lo < -tol:
        raise NotPSDError(
            f"c1={c1} gives minimum eigenvalue {lo:.3e}; outside the physical range"
        )
    return _c1_matrix(c1)


def c1_valid_range() -> tuple:
    """The closed interval of c1 on which :func:`c1_state` is a density matrix.

    The state is (I + c1 M) / 4 with M = XX + YY + ZZ + XI + IX, whose
    eigenvalues are -3, -1, 1 and 3, so it is positive semidefinite exactly
    when |c1| <= 1/3.
    """
    return (-1 / 3, 1 / 3)


def ginibre_density(d: int, seed: int) -> np.ndarray:
    """Random density matrix G G^dagger / Tr(G G^dagger), G complex Gaussian.

    Entries of G are (g1 + i*g2)/sqrt(2) with g1, g2 drawn as standard
    normals from ``default_rng(seed)``; fixed seed means fixed matrix.
    ``d`` must be an integer in 2..:data:`~mixedprep.simulator.MAX_TARGET_DIM`,
    checked before anything is allocated, and ``seed`` an integer >= 0.
    """
    _require_int(d, "dimension", 2)
    if d > MAX_TARGET_DIM:
        raise OutOfRangeError(
            f"dimension {_shown(d)} exceeds {MAX_TARGET_DIM}, the largest that compiles")
    _require_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, d, d))
    G = np.empty((d, d), dtype=complex)  # built in place: at most three d x d arrays live
    G.real, G.imag = g
    del g
    G /= math.sqrt(2.0)
    m = G @ G.conj().T
    m /= np.trace(m).real
    return m
