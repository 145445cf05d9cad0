"""Exception types shared across the package."""


class EigenspanError(Exception):
    """Base class for all package-specific errors."""


class MatrixFormatError(EigenspanError, ValueError):
    """Input file declares a format/field/symmetry we do not support."""


class MalformedFileError(EigenspanError, ValueError):
    """Input file violates its own declared structure (bad token, bad index, ...)."""


class NotSymmetricError(EigenspanError, ValueError):
    """Matrix is not symmetric (structurally or numerically)."""


class NonFiniteError(EigenspanError, ValueError):
    """Matrix holds a NaN or infinite value."""


class IntervalError(EigenspanError, ValueError):
    """Target interval is empty, escapes the spectral range, or collapses when mapped."""


class RecurrenceDivergenceError(EigenspanError, FloatingPointError):
    """Chebyshev recurrence iterates grew past the bound of a spectrum in [-1, 1].

    Raised when ||T_j(A_t) V||_F exceeds ``filters.GROWTH_LIMIT`` * ||V||_F or
    stops being finite, which means the spectral transform does not enclose
    the spectrum.

    Attributes
    ----------
    step : int
        First recurrence step (polynomial degree) over the limit.
    """

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class BoundUndefinedError(EigenspanError, ValueError):
    """A theoretical bound is not defined for the supplied parameters."""


class HypothesisViolationError(EigenspanError, ValueError):
    """Spectrum model violates a hypothesis of the bound being evaluated."""


def check_at_least(name, value, least):
    """Raise ValueError naming ``name`` unless ``value >= least``, so NaN is refused too."""
    if not value >= least:
        raise ValueError(f"need {name} >= {least}, got {value}")
