"""Exception types shared across the package.

Every numeric failure mode raised by the library derives from SmapError so
the CLI can map them onto a single exit code while still reporting the
specific error name.
"""


class SmapError(Exception):
    """Base class for all library errors."""


class ChartViolation(SmapError):
    """A sphere field came too close to the south pole for the chart."""


class RepresentationMismatch(SmapError):
    """A transform direction conflicts with the field's representation tag."""


class GridMismatch(SmapError):
    """Two fields or trajectories do not share the same grid."""


class NoContraction(SmapError):
    """Fixed-point iteration of the integral map stopped contracting."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class MaxIterExceeded(SmapError):
    """The iteration budget ran out before the stopping tolerance was met."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class InnerDivergence(SmapError):
    """The implicit midpoint inner solve exceeded its sweep budget."""


class DegenerateInput(SmapError):
    """An input is too small for the requested diagnostic to be defined."""


class WindowTooShort(SmapError):
    """A space-time window has too few samples for a meaningful DFT."""


class UnsupportedDirection(SmapError):
    """A direction vector is not aligned with the sampling lattice."""


class EmptyEnsemble(SmapError):
    """A diagnostic was asked to run on an empty ensemble."""


class ConfigError(SmapError):
    """An experiment configuration is malformed or inconsistent."""


class ValidationFailure(SmapError):
    """The verification suite found at least one failing invariant."""
