"""Ratios of Laplace transforms of powers of a function.

The library computes the ratio L{f^n}/L{f^m} of Laplace transforms of
pointwise powers of a function f, expands it at infinity, recovers the
Taylor coefficients of f back from such a ratio, and applies the same
machinery to the top-two-bids auction model where f is the idiosyncratic
bid distribution.
"""

from .algebra import Poly, Series, convolve
from .identify import (
    RatioSpec,
    identify,
    infer_order,
    leading_coefficient,
    pivot_value,
    verify_identity,
)
from .transforms import (
    PiecewisePoly,
    RatioExpansion,
    RationalFunction,
    convolution_residual,
    delay,
    laplace_piecewise,
    laplace_poly,
    ratio_eval_piecewise,
    ratio_expansion,
    ratio_rational,
    shift_vanishing,
    sin_maclaurin,
    sin_ratio_check,
    step_example,
)

__all__ = [
    "AuctionModel",
    "Exponential",
    "Lognormal",
    "McConfig",
    "PiecewisePoly",
    "PointMass",
    "Poly",
    "RatioExpansion",
    "RationalFunction",
    "RatioSpec",
    "Series",
    "Shifted",
    "auction_identify",
    "convolution_residual",
    "convolve",
    "delay",
    "h_from_k",
    "identify",
    "infer_order",
    "k_analytic_exponential",
    "k_from_h",
    "k_monte_carlo",
    "k_quadrature",
    "k_value",
    "laplace_piecewise",
    "laplace_poly",
    "leading_coefficient",
    "memoryless_check",
    "pivot_value",
    "ratio_eval_piecewise",
    "ratio_expansion",
    "ratio_rational",
    "shift_vanishing",
    "simulate_bids",
    "sin_maclaurin",
    "sin_ratio_check",
    "step_example",
    "verify_identity",
]

__version__ = "0.1.0"


# The auction names in __all__ are resolved on first use (PEP 562), so the
# exact half never builds the auction module's classes.  Every other
# exported name is bound above.
def __getattr__(name):
    if name in __all__:
        from . import auction

        return getattr(auction, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
