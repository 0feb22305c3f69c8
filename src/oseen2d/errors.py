"""Exception hierarchy shared by all oseen2d modules."""


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
    """A time step exceeds the stability bound of the scheme."""


class DegenerateError(Oseen2dError):
    """A fit or measurement has no usable signal (noise floor, too few samples)."""


class MismatchError(Oseen2dError):
    """Two objects that must share grid/times/centers do not."""


class ConvergenceError(Oseen2dError):
    """An iterative numerical procedure failed to converge."""
