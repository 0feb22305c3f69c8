"""Exception hierarchy shared by all oseen2d modules (every public entry
raises only Oseen2dError on bad input), and ``real``, the one check of a
number, whose DomainError names the parameter, its interval and the value."""

import math
import numbers
import sys


class Oseen2dError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(Oseen2dError, ValueError):
    """A parameter lies outside the mathematically admissible range."""


class MarginError(Oseen2dError):
    """A field or measure is not negligible near the box boundary.

    Raised whenever an operation would silently truncate non-negligible
    mass (periodic wrap, zero extension, rescaling out of the box).
    """


class CirculationError(Oseen2dError):
    """Periodic Biot-Savart inversion requested for a field with nonzero mean."""


class StabilityError(Oseen2dError):
    """A run breaks a bound of its scheme: its step, finiteness or L1 bound."""


class DegenerateError(Oseen2dError):
    """A fit or measurement has no usable signal (noise floor, too few samples)."""


class MismatchError(Oseen2dError):
    """Two objects that must share grid/times/centers do not."""


class ConvergenceError(Oseen2dError):
    """An iterative numerical procedure failed to converge."""


def real(name: str, value, low=-math.inf, high=math.inf, *, ends: str = "()",
         integer: bool = False):
    """``value`` unchanged if it is an int, float or numpy number (an integer
    if ``integer``; not a bool; not an int beyond the float range) in the
    interval from ``low`` to ``high`` with the brackets ``ends``: "()", "[]",
    "[)" or "(]".  DomainError otherwise."""
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (abs(value) <= sys.float_info.max or abs(value) == math.inf)
            and (low <= value if ends[0] == "[" else low < value)
            and (value <= high if ends[1] == "]" else value < high)):
        return value
    kind = "an integer" if integer else "a real number"
    raise DomainError(f"{name} must be {kind} in {ends[0]}{low}, {high}{ends[1]}, "
                      f"got {value!r}")


def point(name: str, value):
    """``value`` unchanged if it is a pair (x, y) of finite numbers, else DomainError."""
    try:
        x, y = value
        real(name, x)
        real(name, y)
    except (TypeError, ValueError):             # DomainError is a ValueError
        raise DomainError(
            f"{name} must be a pair of finite numbers (x, y), got {value!r}") from None
    return value
