"""Exception types shared across the package."""


class MixedFramesError(Exception):
    """Base class for all package errors; ``index`` (0-based), ``residual``
    and ``report`` carry a failure's details where it has them, else None."""

    def __init__(self, message, *, index=None, residual=None, report=None):
        super().__init__(message)
        self.index = index
        self.residual = residual
        self.report = report


class DimensionMismatchError(MixedFramesError):
    """Operand shapes are incompatible."""


class NonFiniteError(MixedFramesError):
    """An input contains NaN or Inf entries."""


class ZeroVectorError(MixedFramesError):
    """A vector that must be nonzero is (numerically) zero."""


class ZeroAlphaError(MixedFramesError):
    """A prescribed inner product that must be nonzero is zero."""


class ConstraintViolationError(MixedFramesError):
    """The pair is not a member of the prescribed inner-product set."""


class DegeneratePairingError(MixedFramesError):
    """|<f_m, g_m>| is too small for the rescaling retraction to be stable."""


class NumericalFailureError(MixedFramesError):
    """A numerical routine failed to meet its accuracy contract.

    Carries the offending residual when one is available.
    """


class NotCriticalError(MixedFramesError):
    """An operation requiring a critical pair received a non-critical one.

    The failing report is attached so callers can inspect the residuals.
    """


class ClusterAmbiguityError(MixedFramesError):
    """Eigenvalue clusters could not be separated at the requested radius."""
