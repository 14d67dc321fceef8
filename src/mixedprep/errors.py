"""Exception types raised by validation and contract checks.

Everything derives from :class:`StatePrepError` (itself a ``ValueError``)
so callers can catch the whole family at once.  :func:`_require_int` is the
one check of integer arguments (shot counts and RNG seeds).
"""
import numbers


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


def _require_int(value, name: str, minimum: int, maximum: int | None = None) -> None:
    """Raise unless ``value`` is an integer in ``minimum..maximum``; a ``bool`` is not one here."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum
            or (maximum is not None and value > maximum)):
        bound = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise OutOfRangeError(f"{name} must be an integer {bound}, got {value!r}")


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
