"""Exception types raised by validation and contract checks.

Everything derives from :class:`StatePrepError` (itself a ``ValueError``)
so callers can catch the whole family at once.  The argument checks live
here too: :func:`_is_int` and :func:`_is_finite_real` are the one tests of
an integer (a ``bool`` is not one) and of a finite real; :func:`_require_int`
checks counts and seeds, :func:`_require_tol` tolerances,
:func:`_qubits_of_dim` register lengths, :func:`_qubit_tuple` iterables of
qubits, :func:`_require_qubits` the qubits of a trace or a readout (distinct,
in range, at least one) and :func:`_require_real` real arrays.
A message shows a refused value through :func:`_shown`, which cannot raise.
"""
import math
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


def _is_finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a complex or a string, finite as a float."""
    try:  # a plain float skips the ABC check, which costs ten times more
        return (type(value) is float or isinstance(value, numbers.Real)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _shown(value) -> str:
    """``repr(value)`` cut to 40 characters, for a message; the type's name where
    ``repr`` raises, as it does for an int past Python's 4300-digit limit."""
    try:
        return f"{value!r:.40}"
    except ValueError:
        return type(value).__name__


def _require_tol(tol) -> None:
    """Raise unless ``tol`` is a finite real >= 0: a NaN or infinite one passes every check."""
    if not (_is_finite_real(tol) and tol >= 0):
        raise OutOfRangeError(f"tol must be a finite number >= 0, got {_shown(tol)}")


def _qubits_of_dim(dim: int, error: type, what: str) -> int:
    """n for ``dim`` = 2**n with n >= 1; any other ``dim`` raises ``error`` naming ``what``."""
    n = int(dim).bit_length() - 1
    if dim < 2 or 2 ** n != dim:
        raise error(f"{what} {dim} is not a power of two >= 2")
    return n


def _require_int(value, name: str, minimum: int, maximum: int | None = None) -> None:
    """Raise unless ``value`` is an integer in ``minimum..maximum``."""
    if not _is_int(value) or value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise OutOfRangeError(f"{name} must be an integer {bound}, got {_shown(value)}")


def _qubit_tuple(qubits, error: type, what: str) -> tuple:
    """``qubits`` as a tuple; a value that cannot be iterated raises ``error`` naming ``what``."""
    try:
        return tuple(qubits)
    except TypeError:
        raise error(f"{what} must be an iterable of qubits, got {type(qubits).__name__}") from None


def _require_qubits(qubits, n: int, error: type) -> list:
    """``qubits`` as a list of ints in the given order, once they are distinct
    integers in ``0..n-1``, at least one; anything else raises ``error``."""
    qubits = _qubit_tuple(qubits, error, "qubits")
    if (not qubits or not all(_is_int(q) and 0 <= q < n for q in qubits)
            or len(set(qubits)) != len(qubits)):
        raise error(
            f"qubits {_shown(qubits)} must be distinct integer indices in 0..{n - 1}, at least one"
        )
    return list(map(int, qubits))


def _as_complex(value, error: type) -> np.ndarray:
    """``value`` as a complex array; one numpy cannot convert raises ``error``.

    A ragged nested list or a string is a ``ValueError`` to numpy, a dict a
    ``TypeError`` and an int beyond the float range an ``OverflowError``.
    """
    try:
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"cannot read a complex array: {exc}") from exc


def _require_real(values, error: type, requirement: str) -> np.ndarray:
    """``values`` as a float array; a nonzero (or NaN) imaginary part raises ``error``.

    A complex array whose imaginary parts are all zero passes as its real
    part, so nothing is dropped silently; an entry that is not a number
    raises ``error`` too.  ``requirement`` opens the message.
    """
    try:  # the conversions numpy refuses, as in _as_complex
        values = np.asarray(values)
        if values.dtype.kind != "c":
            return values.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{requirement}, got {exc}") from exc
    if (values.imag != 0).any():
        raise error(f"{requirement}, got a nonzero imaginary part")
    return values.real.astype(float, copy=False)


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
