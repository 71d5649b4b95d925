"""Exception types raised across the library.

Every library-specific failure derives from LaplaceRatioError so callers
(and the CLI) can distinguish computation errors from genuine bugs.
"""


class LaplaceRatioError(Exception):
    """Base class for all library errors."""


class DomainError(LaplaceRatioError):
    """An argument lies outside the mathematical domain of the operation."""


class ZeroLeadingCoefficient(LaplaceRatioError):
    """Series division requires a denominator with a nonzero constant term."""


class ZeroFunction(LaplaceRatioError):
    """The zero function has no transform ratio."""


class DivergentTransform(LaplaceRatioError):
    """The Laplace integral does not converge at the requested point."""


class NotVanishing(LaplaceRatioError):
    """Left shift requested past a region where the function is nonzero."""


class ZeroDenominator(LaplaceRatioError):
    """The denominator transform evaluates to zero at the requested point."""


class InconsistentRatio(LaplaceRatioError):
    """The leading exponent is not one any admissible function can produce."""


class NoRealRoot(LaplaceRatioError):
    """An even-degree root was requested of a negative leading value."""


class IrrationalRoot(LaplaceRatioError):
    """Exact mode was requested but the leading coefficient is irrational."""


class InsufficientOrder(LaplaceRatioError):
    """The expansion is truncated too early for the requested recovery."""


class OutOfRange(LaplaceRatioError):
    """A value is outside the range any distribution can produce, or is not
    a finite double."""


class QuadratureFailure(LaplaceRatioError):
    """A quadrature's error estimate exceeds the requested tolerance."""


class InsufficientSamples(LaplaceRatioError):
    """Too few effective Monte Carlo draws carry an estimate's weights."""


class FormatError(LaplaceRatioError):
    """A document failed to parse; the message carries the offending path."""
