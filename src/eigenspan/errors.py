"""Exception types shared across the package."""


class EigenspanError(Exception):
    """Base class for all package-specific errors."""


class MatrixFormatError(EigenspanError, ValueError):
    """Input file declares a format/field/symmetry we do not support."""


class MalformedFileError(EigenspanError, ValueError):
    """Input file violates its own declared structure (bad token, bad index, ...)."""


class NotSymmetricError(EigenspanError, ValueError):
    """Matrix is not symmetric (structurally or numerically)."""


class IntervalError(EigenspanError, ValueError):
    """Target interval is empty, escapes the spectral range, or collapses when mapped."""


class RecurrenceDivergenceError(EigenspanError, FloatingPointError):
    """Three-term recurrence produced non-finite values.

    Attributes
    ----------
    step : int
        Recurrence step (polynomial degree) at which the blow-up was detected.
    """

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class BoundUndefinedError(EigenspanError, ValueError):
    """A theoretical bound is not defined for the supplied parameters."""


class HypothesisViolationError(EigenspanError, ValueError):
    """Spectrum model violates a hypothesis of the bound being evaluated."""
