"""Exception types raised by validation and contract checks.

Everything derives from :class:`StatePrepError` (itself a ``ValueError``)
so callers can catch the whole family at once.  The argument checks live
here too: :func:`_is_int` is the one test of an integer (a ``bool`` is not
one), :func:`_require_int` checks counts and seeds, :func:`_require_qubits`
qubit subsets, and :func:`_require_real` real-valued arrays.
"""
import numbers

import numpy as np


class StatePrepError(ValueError):
    """Base class for all errors raised by this package."""


# -- linear algebra ---------------------------------------------------------

class NotHermitianError(StatePrepError):
    pass


class NoConvergenceError(StatePrepError):
    pass


class NotPSDError(StatePrepError):
    pass


class DimensionMismatchError(StatePrepError):
    pass


class NotOrthonormalError(StatePrepError):
    pass


# -- state and amplitude validation -----------------------------------------

class NotNormalizedError(StatePrepError):
    pass


class NegativeAmplitudeError(StatePrepError):
    pass


class NotDensityMatrixError(StatePrepError):
    pass


class NotAProbabilityVectorError(StatePrepError):
    pass


class BadProbabilitiesError(StatePrepError):
    pass


class LevelOutOfRangeError(StatePrepError):
    pass


class OutOfRangeError(StatePrepError):
    pass


def _is_int(value) -> bool:
    """Whether ``value`` is an integer (a numpy one included) and not a ``bool``.

    A plain ``int`` is decided by its type alone: ``validate_circuit`` asks
    once per wire and control bit, and the ABC check costs ten times more.
    """
    if type(value) is int:
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_int(value, name: str, minimum: int, maximum: int | None = None) -> None:
    """Raise unless ``value`` is an integer in ``minimum..maximum``."""
    if not _is_int(value) or value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise OutOfRangeError(f"{name} must be an integer {bound}, got {value!r}")


def _require_qubits(keep, n: int, error: type) -> list:
    """``keep`` as a sorted list of distinct integer qubits in ``0..n-1``, at least one."""
    keep = list(keep)
    if not all(_is_int(q) for q in keep):
        raise error(f"keep must hold integer qubit indices, got {keep!r}")
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise error("keep must name at least one qubit")
    if kept[0] < 0 or kept[-1] >= n:
        raise error(f"keep indices {kept} out of range for {n} qubits")
    return kept


def _require_real(values, error: type, requirement: str) -> np.ndarray:
    """``values`` as a float array; a nonzero (or NaN) imaginary part raises ``error``.

    A complex array whose imaginary parts are all zero passes as its real
    part, so nothing is dropped silently; an entry that is not a number
    raises ``error`` too.  ``requirement`` opens the message.
    """
    values = np.asarray(values)
    if values.dtype.kind == "c":
        if (values.imag != 0).any():
            raise error(f"{requirement}, got a nonzero imaginary part")
        values = values.real
    try:
        return values.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise error(f"{requirement}, got {exc}") from exc


# -- circuits and simulation -------------------------------------------------

class IndexOutOfRangeError(StatePrepError):
    pass


class NotUnitaryError(StatePrepError):
    pass


class BadLabelError(StatePrepError):
    pass


class MissingExpectationError(StatePrepError):
    pass


# -- file and text formats ----------------------------------------------------

class FormatError(StatePrepError):
    """Malformed density-matrix file, circuit file, or family spec string."""
