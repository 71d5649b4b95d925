"""The library's contract, checked over each public callable's whole domain:
every call returns a finite value inside its documented range, or raises a
LaplaceRatioError.  A bare exception, a leaked RuntimeWarning, a
non-finite float or a value outside the range fails.

One table maps each public name to a Hypothesis strategy over its
arguments and a check of its result.  The strategies reach the edges of
each domain: signed zeros, subnormals, 1e308, NaN and the infinities, ints
past the double range, and Fractions, some with 5000-digit parts.  This
module checks contracts, not values; values stay with their own tests and
mpmath oracles.  It covers the auction names; Monte Carlo sizes stay small,
so a call draws at most a few thousand bids.
"""

import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import laplaceratio
from laplaceratio import auction
from laplaceratio.auction import (
    AuctionModel,
    Exponential,
    Lognormal,
    McConfig,
    PointMass,
    Shifted,
)
from laplaceratio.errors import LaplaceRatioError
from laplaceratio.identify import IdentifyResult
from laplaceratio.transforms import RatioExpansion, Series

# a 5000-digit integer, past the default int <-> str digit limit
BIG = 7 * (10 ** 5000 - 1) // 9

EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, -1.0,
    1e308, -1e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
    10 ** 400, -(10 ** 400), 2 ** 1024, F(1, 3), F(BIG, 3), F(3, BIG), F(BIG, BIG + 1), -F(3, BIG),
]


def among(values):
    """A draw from values, by index: Hypothesis prints a strategy's values,
    and str() refuses a 5000-digit int."""
    return st.sampled_from(range(len(values))).map(lambda i: values[i])


# any number a caller may pass: each edge, any double, a small int, a ratio
number = st.one_of(
    among(EDGES),
    st.floats(),
    st.integers(-5, 5),
    st.fractions(max_denominator=10 ** 6),
)
positive = st.one_of(
    among([x for x in EDGES if x == x and x > 0]),
    st.floats(min_value=5e-324),
    st.fractions(min_value=F(1, 10 ** 6), max_denominator=10 ** 6),
)
# bidder counts: the edges, and sizes a Monte Carlo call can draw quickly;
# 2**61 and more is refused before any array is allocated
count = st.one_of(
    among([-1, 0, 1, 2, 3, 2 ** 61, 10 ** 20, 10 ** 400, BIG, 2.0, math.nan, F(5, 2), True]),
    st.integers(2, 40),
)
# exact work grows without bound in N: like the command line's boundary
# fuzz, auction_identify takes N of at most 7, and the edges refused first
small_count = st.one_of(among([-1, 0, 1, 2.0, math.nan, F(5, 2), True]), st.integers(2, 7))


def law_from(parts):
    """A law from (kind, a, b), or None if its constructor
    refuses the parameters."""
    kind, a, b = parts
    try:
        if kind == "exponential":
            return Exponential(a)
        if kind == "lognormal":
            return Lognormal(a, b)
        if kind == "point_mass":
            return PointMass(a)
        base = law_from(a)
        return None if base is None else Shifted(base, b)
    except LaplaceRatioError:
        return None


flat_law = st.tuples(st.sampled_from(["exponential", "lognormal", "point_mass"]), number, positive)
laws = st.one_of(
    flat_law,
    st.tuples(st.just("shifted"), flat_law, number),
).map(law_from).filter(lambda law: law is not None)
models = st.builds(AuctionModel, laws, laws, st.integers(2, 40) | st.sampled_from([10 ** 20, 10 ** 300, 10 ** 400]))
# Monte Carlo models keep N small: the bids drawn are N times the rows
mc_models = st.builds(AuctionModel, laws, laws, st.integers(2, 20))
configs = st.builds(McConfig, st.integers(1, 60), st.integers(0, 2 ** 64 - 1))


def row(pair):
    """A (highest, second highest) row: the larger first, where they
    compare."""
    a, b = pair
    return [b, a] if b > a else [a, b]


tables = st.one_of(
    st.lists(st.tuples(number, number).map(row), min_size=1, max_size=60),
    st.integers(30, 60).flatmap(lambda n: st.tuples(number, number).map(lambda r: [row(r)] * n)),
)
expansions = st.builds(
    RatioExpansion,
    st.integers(-6, 6),
    st.lists(st.fractions(max_denominator=9), min_size=1, max_size=6)
    .filter(lambda c: c[0] != 0).map(lambda c: Series(c, len(c) - 1)),
)


def is_k(k):
    return math.isfinite(k) and 0 < k <= 1


def is_h(h):
    return math.isfinite(h) and h >= 1


def is_estimate(result):
    est, se = result
    return is_k(est) and math.isfinite(se) and se >= 0


def is_bids(table):
    return (table.ndim == 2 and table.shape[1] == 2 and np.isfinite(table).all()
            and (table[:, 0] >= table[:, 1]).all())


def is_statistic(d):
    return math.isfinite(d) and 0 <= d <= 1


def instance_of(cls):
    return lambda x: isinstance(x, cls)


# name -> (strategy of argument tuples, check of the result)
CONTRACTS = {
    "AuctionModel": (st.tuples(laws, laws, count), instance_of(AuctionModel)),
    "Exponential": (st.tuples(number), instance_of(Exponential)),
    "Lognormal": (st.tuples(number, number), instance_of(Lognormal)),
    "McConfig": (st.tuples(count, st.one_of(count, st.just(2 ** 64))), instance_of(McConfig)),
    "PointMass": (st.tuples(number), instance_of(PointMass)),
    "Shifted": (st.tuples(laws, number), instance_of(Shifted)),
    "auction_identify": (st.tuples(expansions, small_count, st.integers(-1, 6)), instance_of(IdentifyResult)),
    "h_from_k": (st.tuples(number, count), is_h),
    "k_analytic_exponential": (st.tuples(number, number), is_k),
    "k_from_h": (st.tuples(number, count), is_k),
    "k_monte_carlo": (st.tuples(tables, number), is_estimate),
    "k_quadrature": (st.tuples(models, number, number), is_k),
    "k_value": (st.tuples(models, number, number), is_k),
    "memoryless_check": (st.tuples(number, count, configs, st.booleans()), is_statistic),
    "simulate_bids": (st.tuples(mc_models, configs), is_bids),
}

AUCTION_NAMES = sorted(name for name in laplaceratio.__all__
                       if getattr(getattr(laplaceratio, name), "__module__", None) == auction.__name__)


def test_the_table_covers_every_auction_name():
    assert len(AUCTION_NAMES) == 15
    assert sorted(CONTRACTS) == AUCTION_NAMES


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_each_call_keeps_the_contract(name):
    arguments, check = CONTRACTS[name]
    f = getattr(laplaceratio, name)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(arguments)
    def holds(args):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result = f(*args)
            except LaplaceRatioError:
                return
        assert check(result), result

    holds()
