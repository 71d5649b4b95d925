import json
import math
import random
import struct
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laplaceratio import auction
from laplaceratio.algebra import Poly
from laplaceratio.auction import (
    AuctionModel,
    Exponential,
    Lognormal,
    McConfig,
    PointMass,
    Shifted,
    _log_ndtr_series,
    auction_identify,
    h_from_k,
    k_analytic_exponential,
    k_from_h,
    k_monte_carlo,
    k_quadrature,
    k_value,
    ks_statistic,
    memoryless_check,
    sample_draws,
    simulate_bids,
)
from laplaceratio.errors import (
    DomainError,
    InconsistentRatio,
    InsufficientSamples,
    LaplaceRatioError,
    OutOfRange,
    QuadratureFailure,
)
from laplaceratio.transforms import RatioExpansion, RationalFunction, ratio_expansion


def log_ndtr(z: float) -> float:
    """log Phi(z), the standard normal log-CDF, also where Phi underflows:
    the scalar definition that k_quadrature's log-integrands meet bit for
    bit."""
    if z > 0:
        return math.log1p(-0.5 * math.erfc(z / math.sqrt(2.0)))
    if z > -30:
        return math.log(0.5 * math.erfc(-z / math.sqrt(2.0)))
    return _log_ndtr_series(z)


def log_ndtr_pair(z: float) -> tuple[float, float]:
    """(log Phi(z), log Phi(-z)) from one erfc, each bit for bit log_ndtr's
    value: with t = |z|, both of log_ndtr's erfc branches take erfc(t/sqrt 2).
    The scalar form of what k_quadrature's log-integrands inline."""
    t = -z if z < 0 else z
    tail = math.erfc(t / math.sqrt(2.0))
    upper = math.log1p(-0.5 * tail) if t > 0 else math.log(0.5 * tail)
    lower = math.log(0.5 * tail) if t < 30 else _log_ndtr_series(-t)
    return (lower, upper) if z < 0 else (upper, lower)


def bid_at_score(dist, z: float, log_sf: float) -> tuple[float, float]:
    """(lower bound, bid minus lower bound) at normal score z: Phi(z) = F(bid).
    log_sf is log Phi(-z), which the exponential quantile takes; a Shifted
    chain adds its offsets to the lower bound innermost first."""
    if isinstance(dist, Lognormal):
        s = dist.sigma * z - dist.mu
        return 0.0, math.exp(s) if s < 709.0 else math.inf
    if isinstance(dist, Exponential):
        return 0.0, -log_sf / dist.theta
    if isinstance(dist, PointMass):
        return dist.v, 0.0
    lower, excess = bid_at_score(dist.base, z, log_sf)
    return lower + dist.offset, excess


class TestDistributions:
    def test_validation(self):
        with pytest.raises(DomainError):
            Exponential(0)
        with pytest.raises(DomainError):
            Lognormal(0, -1)
        with pytest.raises(DomainError):
            PointMass(-2)

    @pytest.mark.parametrize(
        "x",
        [math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 5000), F(10 ** 400, 3)],
        ids=["nan", "inf", "-inf", "int", "-5000-digits", "ratio"],
    )
    @pytest.mark.parametrize(
        "law",
        [
            Exponential,
            lambda x: Lognormal(x, 1.0),
            lambda x: Lognormal(0.0, x),
            PointMass,
            lambda x: Shifted(Exponential(1.0), x),
        ],
        ids=["theta", "mu", "sigma", "v", "offset"],
    )
    def test_non_finite_parameters_refused(self, law, x):
        # a NaN location once gave k_quadrature 0.9999999999999999, a NaN offset 0.5;
        # a number beyond the double range reached float() in k_quadrature and
        # simulate_bids, which raised OverflowError.  Messages print any length.
        with pytest.raises(DomainError, match="must be (finite|positive|nonnegative), got"):
            law(x)

    @pytest.mark.parametrize("theta", [F(1, 10 ** 400), F(3, 10 ** 5000)], ids=["ratio", "5000-digits"])
    def test_exponential_rate_below_the_least_subnormal_refused(self, theta):
        # the rate's double is 0: simulate_bids and k_quadrature divided by
        # it and raised ZeroDivisionError
        with pytest.raises(DomainError, match="^exponential rate .* is below the least subnormal double$"):
            Exponential(theta)

    def test_largest_double_accepted(self):
        big = int(sys.float_info.max)
        assert Exponential(big).theta == big
        assert Shifted(PointMass(big), -big).offset == -big
        assert Lognormal(big, big).mu == big

    @pytest.mark.parametrize("lam", [10 ** 400, F(10 ** 400, 3)], ids=["int", "ratio"])
    def test_lambda_beyond_the_double_range_refused(self, lam):
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 3)
        with pytest.raises(DomainError, match="lambda must be finite"):
            k_quadrature(model, lam)
        with pytest.raises(DomainError, match="lambda must be finite"):
            k_monte_carlo(np.ones((3, 2)), lam)
        with pytest.raises(DomainError, match="lambda must be finite"):
            k_analytic_exponential(1.0, lam)
        with pytest.raises(DomainError, match="lambda must be finite"):
            k_analytic_exponential(lam, 1.0)

    def test_exponential_normal_score(self):
        # P(X <= 2/theta) = 1 - e^-2, so that is the bid at Phi(z) = 1 - e^-2
        z = NormalDist().inv_cdf(1 - math.exp(-2))
        for theta in (0.5, 2.0):
            lower, excess = bid_at_score(Exponential(theta), z, log_ndtr(-z))
            assert lower == 0.0
            assert excess == pytest.approx(2 / theta, rel=1e-12)

    def test_lognormal_median_at_score_zero(self):
        # X = exp(sigma Z - mu): the median exp(-mu) sits at z = 0
        assert bid_at_score(Lognormal(0.7, 1.3), 0.0, log_ndtr(-0.0)) == (0.0, math.exp(-0.7))
        assert bid_at_score(Lognormal(0.0, 1.0), 800.0, log_ndtr(-800.0)) == (0.0, math.inf)

    def test_lognormal_sampling_matches_parameterization(self):
        # mean of log X must be -mu, sd sigma
        rng = np.random.Generator(np.random.Philox(key=7))
        logs = np.log(sample_draws(Lognormal(0.5, 2.0), rng, 200_000))
        assert logs.mean() == pytest.approx(-0.5, abs=0.02)
        assert logs.std() == pytest.approx(2.0, abs=0.02)

    def test_shifted(self):
        # a shifted point mass sits on its lower bound 3 at every score
        d = Shifted(PointMass(1.0), 2.0)
        assert all(bid_at_score(d, z, log_ndtr(-z)) == (3.0, 0.0) for z in (-40.0, 0.0, 8.0))
        rng = np.random.Generator(np.random.Philox(key=1))
        assert np.all(sample_draws(d, rng, 5) == 3.0)


class TestKHAlgebra:
    # for the exponential law with rate theta, L{(1 - e^(-theta x))^j}(lam) =
    # B(lam/theta, j + 1) / theta, so H = (lam + N theta) / (N theta), and
    # K = theta / (theta + lam)
    def test_k_from_h_values(self):
        # a degenerate law has H = K = 1
        assert k_from_h(1.0, 5) == 1.0
        # theta = 1, N = 5, lambda = 2: H = 7/5 and K = 1/3
        assert k_from_h(1.4, 5) == pytest.approx(1 / 3, rel=1e-15)
        assert k_from_h(F(7, 5), 5) == pytest.approx(1 / 3, rel=1e-15)

    def test_k_from_h_limit(self):
        assert k_from_h(1e12, 2) == pytest.approx(1 / (2e12 - 1), rel=1e-15)
        assert k_from_h(1 + 2 ** -52, 2) == pytest.approx(1.0, rel=1e-15)
        assert k_from_h(1 + 2 ** -52, 2) < 1.0

    def test_h_from_k_values(self):
        assert h_from_k(1 / 3, 5) == pytest.approx(1.4, rel=1e-15)
        assert h_from_k(1.0, 9) == 1.0
        # theta = 1, N = 3, lambda = 2/3: K = 3/5 and H = 11/9
        assert h_from_k(0.6, 3) == pytest.approx(11 / 9, rel=1e-15)

    @pytest.mark.parametrize(
        "k",
        [0.0, -0.1, 1 + 2 ** -52, 2.0, math.nan, math.inf, 10 ** 700],
        ids=["zero", "negative", "above_one", "two", "nan", "inf", "int"],
    )
    def test_h_from_k_out_of_range(self, k):
        # the message prints an int of any length
        with pytest.raises(OutOfRange, match=r"is outside \(0, 1\]: no distribution produces it"):
            h_from_k(k, 3)

    def test_h_beyond_the_double_range(self):
        # (1 - K) / (N K) overflows for the least subnormal K
        with pytest.raises(OutOfRange, match="gives a power ratio beyond the double range"):
            h_from_k(5e-324, 2)

    @pytest.mark.parametrize("N", [2, 2.0])
    def test_h_beyond_the_double_range_from_an_exact_k(self, N):
        # an exact (1 - K) / (N K) past the double range raised OverflowError,
        # and an N K whose double is 0 ZeroDivisionError
        with pytest.raises(OutOfRange, match="gives a power ratio beyond the double range"):
            h_from_k(F(1, 10 ** 400), N)

    @pytest.mark.parametrize(
        "h", [1e308, 1.7e308, 10 ** 308, F(10 ** 308)], ids=["1e308", "1.7e308", "int", "ratio"]
    )
    def test_k_from_h_where_n_times_h_overflows(self, h):
        # N (h - 1) is past the double range, but K is a subnormal double
        k = k_from_h(h, 10)
        assert math.isclose(k, float(1 / (10 * (F(h) - 1) + 1)), rel_tol=1e-12)
        assert math.isclose(h_from_k(k, 10), float(h), rel_tol=1e-12)

    def test_k_below_the_least_subnormal_refused(self):
        # 1 / (10**20 (1e308 - 1) + 1) is about 1e-328, which no double holds
        with pytest.raises(OutOfRange, match="^K at power ratio value 1e\\+308 with N = "
                           "100000000000000000000 is below the least subnormal double$"):
            k_from_h(1e308, 10 ** 20)

    @pytest.mark.parametrize("h", [-0.1, 0.0, 0.5, 1 - 2 ** -53, F(999, 1000)])
    def test_h_below_one_refused(self, h):
        # no CDF gives H < 1, as F^(N-1) >= F^N
        with pytest.raises(DomainError, match="power ratio value must be at least 1, got"):
            k_from_h(h, 2)

    @pytest.mark.parametrize("h", [math.nan, math.inf, 10 ** 400], ids=["nan", "inf", "int"])
    def test_non_finite_h_refused(self, h):
        # NaN and inf once gave K = nan
        with pytest.raises(DomainError, match="power ratio value must be finite, got"):
            k_from_h(h, 5)

    def test_n_beyond_the_double_range_refused(self):
        # float(N) once raised an untyped OverflowError; messages print any length
        with pytest.raises(DomainError, match="need N within the double range, got 1000"):
            k_from_h(1.0, 10 ** 400)
        with pytest.raises(DomainError, match="need N within the double range, got 1000"):
            h_from_k(0.1, 10 ** 400)

    @given(st.floats(1, 100), st.integers(2, 10))
    def test_roundtrip(self, h, N):
        assert h_from_k(k_from_h(h, N), N) == pytest.approx(h, rel=1e-12, abs=1e-12)

    @given(st.integers(2, 10), st.floats(1e-3, 1.0))
    def test_inverse_other_way(self, N, k):
        assert k_from_h(h_from_k(k, N), N) == pytest.approx(k, rel=1e-12)

    def test_k_from_h_matches_k_value(self):
        # H from the transforms of F^(N-1) and F^N: in closed form for the
        # exponential and point-mass laws, by mpmath for the lognormal; a
        # shift multiplies both transforms by e^(-lam offset), so it leaves
        # H alone; K from the library's k_value
        rng = random.Random(39)
        laws = (
            [lambda: Exponential(rng.uniform(0.1, 10))] * 8
            + [lambda: Shifted(Exponential(rng.uniform(0.1, 10)), rng.uniform(0, 5))] * 6
            + [lambda: PointMass(rng.uniform(0, 5))]
            + [lambda: Shifted(PointMass(rng.uniform(0, 5)), rng.uniform(0, 5))]
            + [lambda: Lognormal(rng.uniform(-2, 2), rng.uniform(0.1, 2))]
            + [lambda: Shifted(Lognormal(rng.uniform(-2, 2), rng.uniform(0.1, 2)), rng.uniform(0, 5))]
        )
        kinds = set()
        for i in range(200):
            law = laws[i % len(laws)]()
            N, lam = rng.choice([2, 3, 5, 10, 50, 200]), 10.0 ** rng.uniform(-3, 3)
            base = law.base if isinstance(law, Shifted) else law
            kinds.add(type(base))
            if isinstance(base, Exponential):
                H = float((F(lam) + N * F(base.theta)) / (N * F(base.theta)))
            elif isinstance(base, PointMass):
                H = 1.0  # F^j = F
            else:
                H = h_lognormal_oracle(base.mu, base.sigma, N, lam)
            want = k_value(AuctionModel(PointMass(0.0), law, N), lam, tol=1e-13)
            assert k_from_h(H, N) == pytest.approx(want, rel=1e-10), (law, N, lam)
        assert kinds == {Exponential, PointMass, Lognormal}


class TestKAnalyticExponential:
    def test_half(self):
        assert k_analytic_exponential(1.0, 1.0) == 0.5
        assert k_analytic_exponential(2.0, 2.0) == 0.5

    def test_small_lambda_limit(self):
        assert k_analytic_exponential(1.0, 1e-12) == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            k_analytic_exponential(1.0, 0.0)
        with pytest.raises(DomainError):
            k_analytic_exponential(-1.0, 1.0)

    def test_k_below_the_least_subnormal_refused(self):
        # 1e-320 / 1e308 is about 1e-628, which no double holds
        with pytest.raises(OutOfRange, match="^K at theta = 1e-320, lambda = 1e\\+308 is below "
                           "the least subnormal double$"):
            k_analytic_exponential(1e-320, 1e308)
        assert k_analytic_exponential(1.0, 1e308) == 1e-308

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            k_analytic_exponential(1.0, bad)
        with pytest.raises(DomainError):
            k_analytic_exponential(bad, 1.0)


class TestKValue:
    def test_closed_form_for_a_bare_exponential_only(self):
        # a Shifted exponential goes to quadrature, as every other law does
        others = [Shifted(Exponential(2.0), 0.5), Lognormal(0.3, 0.8), Shifted(PointMass(0.5), 1.0)]
        for N in (2, 5):
            for lam in (0.1, 1.0, 30.0):
                model = AuctionModel(PointMass(0.0), Exponential(2.0), N)
                assert k_value(model, lam, 1e-300).hex() == k_analytic_exponential(2.0, lam).hex()
                for idio in others:
                    model = AuctionModel(Exponential(1.0), idio, N)
                    assert k_value(model, lam, 1e-9).hex() == k_quadrature(model, lam, 1e-9).hex()

    def test_domain(self):
        # every law checks lambda and tol with k_quadrature's messages
        laws = [Exponential(1.0), Lognormal(0.0, 1.0), PointMass(2.0), Shifted(Exponential(1.0), 1.0)]
        for law in laws:
            model = AuctionModel(PointMass(0.0), law, 3)
            for lam in (0.0, -1.0, math.nan, math.inf, -math.inf, 10 ** 400):
                with pytest.raises(DomainError, match="^lambda must be finite and positive, got "):
                    k_value(model, lam)
            for tol in (0.0, -1.0, math.nan, -math.inf):
                with pytest.raises(DomainError, match="^tolerance must be positive$"):
                    k_value(model, 1.0, tol)

    def test_k_below_the_least_subnormal_refused(self):
        # k_quadrature's final product underflows to 0.0, outside (0, 1]
        model = AuctionModel(Exponential(1.0), Lognormal(0, 1), 5)
        with pytest.raises(OutOfRange, match="^K at lambda = 1e\\+308 is below the least subnormal double$"):
            k_value(model, 1e308)


CATALOGUE = Path(__file__).resolve().parents[1] / "benchmarks" / "k_catalogue.json"


class TestLogNdtr:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e4, 25))
    def test_matches_mpmath(self, z):
        # above 0 the rounding of z / sqrt(2) costs about 2 z^2 ulps
        import mpmath as mp

        with mp.workdps(40):
            tail = mp.ncdf(-mp.mpf(z))
            want = mp.log1p(-tail) if z > 0 else mp.log(mp.ncdf(mp.mpf(z)))
        assert log_ndtr(z) == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("z", [-30.0, -31.5, -36.0])
    def test_series_matches_erfc_where_both_work(self, z):
        # the asymptotic series takes over at -30; erfc is still a normal
        # double down to about -37
        direct = math.log(0.5 * math.erfc(-z / math.sqrt(2)))
        assert log_ndtr(z) == pytest.approx(direct, rel=1e-14)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# the signed zeros, both neighbours of the series cut at -30 and of its
# mirror at 30, subnormals and the smallest normal, the infinities and NaN
EDGE_SCORES = [
    0.0, -0.0,
    -30.0, math.nextafter(-30.0, 0.0), math.nextafter(-30.0, -math.inf),
    30.0, math.nextafter(30.0, 0.0), math.nextafter(30.0, math.inf),
    5e-324, -5e-324, math.nextafter(sys.float_info.min, 0.0), -sys.float_info.min,
    math.inf, -math.inf, math.nan, -math.nan,
]


def assert_pair_is_log_ndtr(z):
    lower, upper = log_ndtr_pair(z)
    assert (bits(lower), bits(upper)) == (bits(log_ndtr(z)), bits(log_ndtr(-z)))


class TestLogNdtrPair:
    @given(st.one_of(st.floats(), st.floats(-40, 40)))
    def test_is_log_ndtr_at_both_signs_bit_for_bit(self, z):
        assert_pair_is_log_ndtr(z)

    @pytest.mark.parametrize("z", EDGE_SCORES, ids=repr)
    def test_edges(self, z):
        assert_pair_is_log_ndtr(z)


def reference_log_integrands(dist, N, lam):
    """k_quadrature's log-integrands by the one-sided log-CDF: three
    log_ndtr calls per z, and a fourth in an exponential law's quantile."""

    def logs(z):
        common = -lam * bid_at_score(dist, z, log_ndtr(-z))[1] + (N - 2) * log_ndtr(z) - 0.5 * z * z
        return common + log_ndtr(z), common + log_ndtr(-z)

    return logs


# the signed zeros, both sides of the series switch at |z| = 30, and +-40
SWITCH_SCORES = [
    0.0, -0.0, 1.5, -1.5, 29.5, -29.5,
    30.0, math.nextafter(30.0, 0.0), math.nextafter(30.0, math.inf), 30.5,
    -30.0, math.nextafter(-30.0, 0.0), math.nextafter(-30.0, -math.inf), -30.5,
    40.0, -40.0,
]
# the innermost laws k_quadrature integrates
LAWS = {
    "lognormal": Lognormal(0.3, 0.8),
    # s = sigma z - mu reaches 709 at z = 9, past which the excess is inf
    "lognormal-inf": Lognormal(-700.0, 1.0),
    # an excess below e^-15 hides no bit of the log-CDF terms, even at |z| = 30
    "lognormal-small": Lognormal(60.0, 1.0),
    "exponential": Exponential(2.5),
}


class TestLogIntegrands:
    @pytest.mark.parametrize("N", [2, 50])
    @pytest.mark.parametrize("law", LAWS.values(), ids=LAWS.keys())
    def test_match_the_scalar_definitions_bit_for_bit(self, law, N):
        fast, scalar = auction._log_integrands(law, N, 1.7), reference_log_integrands(law, N, 1.7)
        for z in SWITCH_SCORES:
            assert [bits(x) for x in fast(z)] == [bits(x) for x in scalar(z)], z

    def test_lognormal_excess_overflows_to_inf(self):
        pair = auction._log_integrands(LAWS["lognormal-inf"], 5, 1.7)
        assert math.isfinite(pair(8.0)[0])
        assert pair(40.0) == (-math.inf, -math.inf)

    @given(st.sampled_from(list(LAWS.values())), st.floats(-45, 45))
    def test_match_the_scalar_definitions_anywhere(self, law, z):
        fast, scalar = auction._log_integrands(law, 5, 0.3), reference_log_integrands(law, 5, 0.3)
        assert [bits(x) for x in fast(z)] == [bits(x) for x in scalar(z)]


def quadrature_outcome(model, lam, tol=1e-10):
    """k_quadrature's double as hex, or its error's type and message."""
    try:
        return float.hex(k_quadrature(model, lam, tol))
    except LaplaceRatioError as e:
        return type(e).__name__, str(e)


def assert_reference_doubles(models_and_lambdas):
    """k_quadrature gives the reference integrands' doubles and errors."""
    cases = list(models_and_lambdas)
    got = [quadrature_outcome(*case) for case in cases]
    with mock.patch.object(auction, "_log_integrands", reference_log_integrands):
        want = [quadrature_outcome(*case) for case in cases]
    assert got == want


def seeded_laws(seed, count):
    """Exponential, Shifted and PointMass laws with N and lambda, from a seed."""
    rng = random.Random(seed)
    for i in range(count):
        theta = 10 ** rng.uniform(-2, 2)
        law = [
            Exponential(theta),
            Shifted(Exponential(theta), rng.uniform(0, 5)),
            Shifted(Lognormal(rng.uniform(-4, 4), rng.uniform(0.05, 3)), rng.uniform(0, 5)),
            PointMass(rng.choice([0.0, rng.uniform(0, 5)])),
            Shifted(PointMass(rng.uniform(0, 5)), rng.uniform(-1, 5)),
        ][i % 5]
        N = rng.choice([2, 3, 5, 10, 50, 200, 1000])
        yield AuctionModel(PointMass(0.0), law, N), 10 ** rng.uniform(-4, 6)


def lognormal_transforms(mu, sigma, lam):
    """(k, j) -> (top, I): the integral over the normal score z of
    exp(-lam x) Phi(z)^k Phi(-z)^j phi(z), x = exp(sigma z - mu), less
    log sqrt(2 pi), is exp(top) I; run under mpmath's working precision."""
    import mpmath as mp

    mu, sigma, lam = mp.mpf(mu), mp.mpf(sigma), mp.mpf(lam)

    def log_integrand(z, k, j):
        # exp(-lam x) Phi(z)^k Phi(-z)^j phi(z), less log sqrt(2 pi)
        tail = j and mp.log(mp.ncdf(-z))
        return -lam * mp.exp(sigma * z - mu) + k * mp.log(mp.ncdf(z)) + tail - z * z / 2

    def slope(z, k, j):
        phi = mp.npdf(z)
        tail = j and phi / mp.ncdf(-z)
        return -lam * sigma * mp.exp(sigma * z - mu) + k * phi / mp.ncdf(z) - tail - z

    def transform(k, j):
        # bisect the decreasing slope for the peak, then integrate around it
        lo, hi = mp.mpf(-1), mp.mpf(1)
        while slope(lo, k, j) < 0:
            lo *= 2
        while slope(hi, k, j) > 0:
            hi *= 2
        while hi - lo > 1e-9:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid, k, j) > 0 else (lo, mid)
        peak = (lo + hi) / 2
        top = log_integrand(peak, k, j)
        edges = [peak - 8 + mp.mpf(16) * i / 40 for i in range(41)]
        integral = mp.quad(lambda z: mp.exp(log_integrand(z, k, j) - top), edges,
                           method="gauss-legendre")
        return top, integral

    return transform


def k_lognormal_oracle(mu, sigma, N, lam):
    """K for Lognormal(mu, sigma) by mpmath at 20 digits.  Each of A and B
    is integrated in normal scores, relative to its peak, over 40
    subintervals of [peak - 8, peak + 8]: its log-integrand curves by at
    least 1, so it is below exp(-32) of the peak outside them."""
    import mpmath as mp

    with mp.workdps(20):
        transform = lognormal_transforms(mu, sigma, lam)
        top_a, a = transform(N - 1, 0)
        top_b, b = transform(N - 2, 1)
        return float(mp.exp(top_a - top_b) * a / ((N - 1) * b))


def assert_matches_lognormal_oracle(mu, sigma, N, lam):
    """k_quadrature is within 1e-10 of k_lognormal_oracle, or raises
    OutOfRange where the oracle's K is below the least subnormal double."""
    model = AuctionModel(PointMass(0.0), Lognormal(mu, sigma), N)
    want = k_lognormal_oracle(mu, sigma, N, lam)
    if want == 0:
        with pytest.raises(OutOfRange, match="below the least subnormal double"):
            k_quadrature(model, lam)
    else:
        assert abs(k_quadrature(model, lam) - want) <= 1e-10


def h_lognormal_oracle(mu, sigma, N, lam):
    """H = L{F^(N-1)}/L{F^N} for Lognormal(mu, sigma) by mpmath at 20
    digits.  By parts, L{F^j}(lam) = (j / lam) I_(j-1), where I_k is the
    integral over the normal score z of exp(-lam x) Phi(z)^k phi(z), so
    H = (N-1) I_(N-2) / (N I_(N-1)); each I_k as k_lognormal_oracle
    integrates A and B."""
    import mpmath as mp

    with mp.workdps(20):
        transform = lognormal_transforms(mu, sigma, lam)
        top_a, a = transform(N - 2, 0)
        top_b, b = transform(N - 1, 0)
        return float(mp.exp(top_a - top_b) * (N - 1) * a / (N * b))


# the lambdas of the benchmark's K-curves
K_LAMBDAS = [10.0 ** e for e in range(-2, 4)]


def benchmark_shaped_cases():
    """The benchmark's K-curve models at K_LAMBDAS: each catalogue
    lognormal law and 15 seeded shifted point masses, at N = 5, 50, 200."""
    laws = sorted({tuple(json.loads(key)[:2]) for key in json.loads(CATALOGUE.read_text())})
    rng = random.Random(29)
    laws = [Lognormal(float(mu), float(sigma)) for mu, sigma in laws]
    laws += [Shifted(PointMass(rng.uniform(0, 2)), rng.uniform(0, 3)) for _ in range(15)]
    for law in laws:
        for N in (5, 50, 200):
            for lam in K_LAMBDAS:
                yield AuctionModel(Exponential(1.0), law, N), lam


def degenerate(law):
    """Whether law is a PointMass, shifted or not."""
    while isinstance(law, Shifted):
        law = law.base
    return isinstance(law, PointMass)


def grid_level(frame):
    """The points of the grid level whose sum a kernel call from frame
    serves, read from k_quadrature's sums, or None for a search's call."""
    while frame.f_code.co_name != "k_quadrature":
        if frame.f_code.co_name == "sums":
            return frame.f_locals["zs"]
        frame = frame.f_back
    return None


def evaluated_points(cases, tol=1e-10):
    """(per case, one list for each log-integrands kernel the k_quadrature
    call built, of (z, level) for each score it evaluated, in order, with
    level as grid_level gives it; and each case's quadrature_outcome)."""
    calls = []
    log_integrands = auction._log_integrands

    def spy(dist, N, lam):
        pair = log_integrands(dist, N, lam)
        seen = []
        calls[-1].append(seen)

        def counted(z):
            seen.append((z, grid_level(sys._getframe(1))))
            return pair(z)

        return counted

    outcomes = []
    with mock.patch.object(auction, "_log_integrands", spy):
        for model, lam in cases:
            calls.append([])
            outcomes.append(quadrature_outcome(model, lam, tol))
    return calls, outcomes


def evaluated_scores(cases, tol=1e-10):
    """As evaluated_points, with the scores alone."""
    calls, outcomes = evaluated_points(cases, tol)
    return [[[z for z, _ in kernel] for kernel in c] for c in calls], outcomes


def reference_boundary(inside, z, step, placed):
    """A point past where inside, true at z, turns false beyond z in step's
    direction: a doubling walk brackets the turn, and halving narrows the
    bracket until placed(z, out) holds or no double lies between them.
    Both of k_quadrature's searches, written once."""
    while inside(z + step):
        z, step = z + step, 2 * step
    out = z + step
    while not placed(z, out):
        mid = 0.5 * (z + out)
        if mid == z or mid == out:
            break
        z, out = (mid, out) if inside(mid) else (z, mid)
    return out


def reference_searches(dist, N, lam):
    """(the scores k_quadrature's peak and edge searches evaluate, in order,
    and its first grid level), by reference_boundary on the reference
    log-integrands."""
    logs, memo = reference_log_integrands(dist, N, lam), {}

    def at(z):
        if z not in memo:
            memo[z] = logs(z)
        return memo[z]

    def argmax(i):
        def slope(z):
            return (at(z + 1e-7)[i] - at(z)[i]) / 1e-7

        up = slope(0.0) > 0
        return reference_boundary(lambda z: (slope(z) > 0) == up, 0.0, 1.0 if up else -1.0,
                                  lambda z, out: abs(slope(out) * (out - z)) <= 1.0)

    za, zb = argmax(0), argmax(1)
    peak_a, peak_b = at(za)[0], at(zb)[1]

    def edge(start, step):
        return reference_boundary(lambda z: max(at(z)[0] - peak_a, at(z)[1] - peak_b) > -45.0, start, step,
                                  lambda z, out: abs(out - z) <= abs(out - start) / 16)

    lo, hi = edge(min(za, zb), -1.0), edge(max(za, zb), 1.0)
    return list(memo), [lo + i * ((hi - lo) / 16) for i in range(17)]


class TestKQuadrature:
    def test_exponential_matches_closed_form(self):
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 5)
        got = k_quadrature(model, 1.0, tol=1e-10)
        assert abs(got - 0.5) <= 1e-10

    def test_point_mass_degenerate(self):
        model = AuctionModel(Exponential(1.0), PointMass(0.0), 4)
        for lam in (0.5, 2.0):
            assert k_quadrature(model, lam) == 1.0

    def test_point_mass_positive_location(self):
        model = AuctionModel(PointMass(0.0), PointMass(2.0), 3)
        # both order statistics are the constant 2, so K = 1
        assert k_quadrature(model, 1.0) == 1.0

    @pytest.mark.parametrize(
        "law",
        [
            PointMass(0.0),
            Shifted(PointMass(1.5), 2.0),
            Shifted(Shifted(PointMass(1.5), 2.0), -0.5),
            # 0.1 + 0.2 is 0.30000000000000004, so the lower bound is exactly
            # 0 when the offsets add innermost first, as the bids do; added
            # outermost first it would be -2.8e-17
            Shifted(Shifted(PointMass(0.1), 0.2), -0.30000000000000004),
        ],
        ids=["point-mass", "shifted", "shifted-twice", "offsets-cancel"],
    )
    def test_degenerate_law_gives_exactly_one(self, law):
        # all N bids coincide, so K = 1 at any lambda and any positive tol
        for N in (2, 50, 1000):
            for lam in (1e-4, 1.0, 1e6):
                for tol in (1e-10, 1e-300):
                    assert k_quadrature(AuctionModel(PointMass(0.0), law, N), lam, tol) == 1.0

    def test_common_law_is_irrelevant(self):
        lam = 1.3
        a = k_quadrature(AuctionModel(PointMass(0.0), Exponential(2.0), 3), lam)
        b = k_quadrature(AuctionModel(Exponential(1.0), Exponential(2.0), 3), lam)
        assert a == b

    def test_lognormal_within_monte_carlo_bars(self):
        model = AuctionModel(PointMass(0.0), Lognormal(0.0, 1.0), 3)
        quad_val = k_quadrature(model, 1.0, tol=1e-9)
        est, se = k_monte_carlo(simulate_bids(model, McConfig(200_000, seed=11)), 1.0)
        assert abs(quad_val - est) < 3 * se

    def test_domain(self):
        # a degenerate law's exact answer comes after every check
        for law in (Exponential(1.0), PointMass(2.0), Shifted(PointMass(0.5), 1.0)):
            model = AuctionModel(PointMass(0.0), law, 2)
            for lam in (0.0, -1.0, math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError, match="lambda must be finite"):
                    k_quadrature(model, lam)
            for tol in (0.0, -1e-10, math.nan):
                with pytest.raises(DomainError, match="tolerance must be positive"):
                    k_quadrature(model, 1.0, tol)
            with pytest.raises(DomainError, match="quadrature needs N within the double range"):
                k_quadrature(AuctionModel(PointMass(0.0), law, 10 ** 400), 1.0)

    def test_support_below_zero(self):
        for law in (Shifted(Exponential(1.0), -0.5), Shifted(PointMass(0.5), -1.0)):
            with pytest.raises(DomainError, match="nonnegative idiosyncratic law"):
                k_quadrature(AuctionModel(PointMass(0.0), law, 3), 1.0)

    def test_support_sign_is_the_reference_lower_bound(self):
        # k_quadrature refuses a law exactly where the scalar definition's
        # lower bound is negative
        laws = [model.idiosyncratic for model, _ in seeded_laws(31, 500)]
        laws += [Shifted(Shifted(PointMass(0.1), 0.2), -0.30000000000000004),
                 Shifted(Shifted(PointMass(0.1), -0.30000000000000004), 0.2)]
        for law in laws:
            below = bid_at_score(law, 0.0, log_ndtr(-0.0))[0] < 0
            outcome = quadrature_outcome(AuctionModel(PointMass(0.0), law, 3), 1.0, tol=1e-300)
            assert (outcome[0] == "DomainError") == below, law

    def test_unreachable_tolerance_raises(self):
        # two levels of the rule never agree to better than rounding
        model = AuctionModel(PointMass(0.0), Lognormal(0.0, 1.0), 200)
        with pytest.raises(QuadratureFailure):
            k_quadrature(model, 1.0, tol=1e-300)

    def test_peak_search_stopping_short_raises(self):
        # flat in doubles at this lambda: the peak search stops short of a
        # peak, and a trapezoid term taken relative to it overflows
        model = AuctionModel(PointMass(0.0), Lognormal(-100.0, 1e-20), 3)
        with pytest.raises(QuadratureFailure, match="stopped short"):
            k_quadrature(model, 1e-20)

    def test_a_peak_the_grid_misses_raises(self):
        # a lognormal this narrow peaks between the grid's points, where
        # every term underflowed and the error estimate divided 0 by 0
        model = AuctionModel(Exponential(1e-300), Lognormal(0.0, F(1, 984127)), 2)
        for tol in (5e-324, 1e-8):
            with pytest.raises(QuadratureFailure, match="the grid misses its peak$"):
                k_quadrature(model, 99246435556.0, tol)

    def test_unreachable_tolerance_raises_on_every_model(self):
        # levels that agree bit for bit still carry the sums' rounding, so
        # no model meets a tolerance far below it; a degenerate law's K is
        # exactly 1, with no error to estimate
        cases = list(benchmark_shaped_cases())
        calls, outcomes = evaluated_scores(cases, tol=1e-300)
        flags = [degenerate(model.idiosyncratic) for model, _ in cases]
        assert [o for o, d in zip(outcomes, flags) if d] == [float.hex(1.0)] * 270
        integrated = [(c[0], o) for c, o, d in zip(calls, outcomes, flags) if not d]
        assert len(integrated) == 450
        met = [o for _, o in integrated if not (isinstance(o, tuple) and "exceeds tolerance" in o[1])]
        assert met == []
        # refining stops once an estimate stops shrinking: about 300
        # evaluations per lambda, where refining until two levels agree to
        # rounding took about 1800, and all nine levels about 8200
        assert sum(len(zs) for zs, _ in integrated) / len(integrated) <= 400
        for model, lam in seeded_laws(29, 100):
            if degenerate(model.idiosyncratic):
                assert quadrature_outcome(model, lam, tol=1e-300) in (
                    float.hex(1.0), ("DomainError", "quadrature requires a nonnegative idiosyncratic law"))
            else:
                with pytest.raises(QuadratureFailure, match="exceeds tolerance"):
                    k_quadrature(model, lam, tol=1e-300)

    def test_a_ratio_tolerance_is_named_in_the_failure(self):
        # formatting a Fraction tolerance raised TypeError before Python 3.12
        model = AuctionModel(PointMass(0.0), Lognormal(0.0, 1.0), 5)
        with pytest.raises(QuadratureFailure, match="exceeds tolerance 1.000e-20$"):
            k_quadrature(model, 1.0, tol=F(1, 10 ** 20))

    def test_rounding_floor_leaves_reachable_tolerances_alone(self):
        # 2**-51 relative: K = 1/2 meets 5e-16 but not 1e-16
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 5)
        assert abs(k_quadrature(model, 1.0, tol=5e-16) - 0.5) <= 5e-16
        with pytest.raises(QuadratureFailure, match="estimated error 2.220e-16"):
            k_quadrature(model, 1.0, tol=1e-16)

    def test_each_z_is_evaluated_once_and_searches_stay_cheap(self):
        cases = list(benchmark_shaped_cases())
        calls, outcomes = evaluated_scores(cases)
        # a degenerate law evaluates no score; every other builds its
        # log-integrands once
        assert [len(c) for c in calls] == [0 if degenerate(m.idiosyncratic) else 1 for m, _ in cases]
        assert all(isinstance(o, str) for o in outcomes)
        integrated = [zs for [zs] in filter(None, calls)]
        assert all(len(set(zs)) == len(zs) for zs in integrated)
        # about 100 per lambda; full-precision searches took about 290, and
        # edges left unhalved about 170
        assert sum(map(len, integrated)) / len(integrated) <= 140

    def test_each_grid_level_evaluates_the_points_the_memo_lacks(self):
        cases = [case for case in benchmark_shaped_cases() if not degenerate(case[0].idiosyncratic)]
        calls, outcomes = evaluated_points(cases)
        assert all(isinstance(o, str) for o in outcomes)
        for [points] in calls:
            searched = [z for z, level in points if level is None]
            # the searches come first, then the grid levels in turn
            assert all(level is None for _, level in points[:len(searched)])
            levels = []
            for _, level in points[len(searched):]:
                if not levels or level is not levels[-1]:
                    levels.append(level)
            assert [len(level) for level in levels] == [17] + [16 * 2 ** k for k in range(len(levels) - 1)]
            assert len(levels) >= 3
            # each level evaluates, in order and once each, its points that
            # the searches did not: the first level's lo at least
            memo = set(searched)
            assert levels[0][0] in memo
            assert [z for z, _ in points[len(searched):]] == [
                z for level in levels for z in level if z not in memo]

    def test_searches_take_the_reference_probes_and_bracket(self):
        cases = [case for case in benchmark_shaped_cases() if not degenerate(case[0].idiosyncratic)]
        calls, _ = evaluated_points(cases)
        for (model, lam), [points] in zip(cases, calls):
            searched, first_level = reference_searches(model.idiosyncratic, model.n_bidders, lam)
            assert [z for z, level in points[:len(searched)]] == searched
            assert points[len(searched)][1] == first_level

    @pytest.mark.parametrize("lam", [2e4, 1e5])
    @pytest.mark.parametrize("mu", [-4.0, 0.0, 4.0])
    def test_narrow_peaks_match_peak_centred_oracle(self, mu, lam):
        # N = 1000 and sigma = 0.05 put peaks about 0.02 wide as far out
        # as z = -40, where the searches start at 0 with a step of 1
        # at (-4, 1e5), K is 4.9e-335
        assert_matches_lognormal_oracle(mu, 0.05, 1000, lam)

    @pytest.mark.parametrize(
        "mu, sigma, lam",
        [
            (-4.311963038585865, 2.879701310846196, 0.039508724160215225),
            (-0.5834678512775229, 2.860864902204908, 0.004189449990505528),
            (3.633415516752999, 3.3602417530963367, 0.0009228360586572988),
        ],
    )
    def test_heavy_tailed_lognormals_meet_tolerance(self, mu, sigma, lam):
        # stopping at the finer level by an error estimate of it misses 1e-10
        # here: by 1.3e-9 with d**3 / d_prev**2 (d the levels' difference), by
        # 9.0e-10 with max(d**3 / d_prev**2, d**2), and by 1.2e-6 when the
        # first d_prev comes from the 17-point grid's even and odd points
        model = AuctionModel(PointMass(0.0), Lognormal(mu, sigma), 2)
        assert abs(k_quadrature(model, lam) - k_lognormal_oracle(mu, sigma, 2, lam)) <= 1e-10

    def test_lognormal_catalogue(self):
        # 32-digit mpmath values for every (mu, sigma, N, lambda) the
        # float_pipeline benchmark draws
        catalogue = json.loads(CATALOGUE.read_text())
        assert len(catalogue) == 450
        for key, (want, _) in catalogue.items():
            mu, sigma, N, lam = json.loads(key)
            model = AuctionModel(PointMass(0.0), Lognormal(float(mu), float(sigma)), N)
            assert abs(k_quadrature(model, float(lam)) - float(want)) <= 1e-10, key

    def test_catalogue_gives_the_reference_doubles(self):
        catalogue = json.loads(CATALOGUE.read_text())
        keys = [json.loads(key) for key in catalogue]
        assert_reference_doubles(
            (AuctionModel(PointMass(0.0), Lognormal(float(mu), float(sigma)), N), float(lam))
            for mu, sigma, N, lam in keys
        )

    def test_seeded_laws_give_the_reference_doubles(self):
        # with tolerances that fail too, so the errors and messages compare
        cases = [(model, lam, tol) for (model, lam), tol in
                 zip(seeded_laws(28, 300), [1e-10, 1e-13, 1e-300] * 100)]
        assert_reference_doubles(cases)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(-4, 4),
        st.floats(0.05, 3),
        st.sampled_from([2, 3, 5, 10, 50, 200, 1000]),
        st.floats(-4, 5).map(lambda e: 10.0 ** e),
    )
    # N = 1000, sigma <= 0.17 and lambda >= 1.5e3, where a coarser oracle
    # that splits the joint bracket at 6 points misjudges the narrow peak:
    # here it gives 6.585e-4 for 6.348e-4
    @example(0.0, 0.05, 1000, 2e4)
    def test_lognormal_domain_matches_peak_centred_oracle(self, mu, sigma, N, lam):
        assert_matches_lognormal_oracle(mu, sigma, N, lam)

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.1, 10),
        st.integers(2, 500),
        st.floats(-4, 6).map(lambda e: 10.0 ** e),
    )
    def test_exponential_closed_form_relative(self, theta, N, lam):
        model = AuctionModel(PointMass(0.0), Exponential(theta), N)
        want = theta / (theta + lam)
        assert k_quadrature(model, lam) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("N", [2, 5, 50, 200])
    def test_point_mass_and_shift_up_to_large_lambda(self, N):
        base = Lognormal(0.3, 0.8)
        for lam in (1e-4, 1.0, 1e3, 1e6):
            for point in (PointMass(0.0), Shifted(PointMass(1.5), 2.0)):
                assert k_quadrature(AuctionModel(PointMass(0.0), point, N), lam) == 1.0
            shifted = k_quadrature(AuctionModel(PointMass(0.0), Shifted(base, 7.0), N), lam)
            assert shifted == k_quadrature(AuctionModel(PointMass(0.0), base, N), lam)

    def test_value_in_unit_interval(self):
        # the top transform never exceeds the second-highest transform
        dists = [Exponential(0.7), Lognormal(0.3, 1.5), Shifted(Exponential(1.0), 0.5)]
        for dist in dists:
            for N in (2, 6):
                for lam in (0.3, 2.0):
                    k = k_quadrature(AuctionModel(PointMass(0.0), dist, N), lam)
                    assert 0.0 < k <= 1.0


class TestSimulateBids:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((10.5, 1), "samples must be an integer, got 10.5"),
            ((10, 1.5), "seed must be an integer, got 1.5"),
            ((True, 1), "samples must be an integer, got True"),
            ((10, False), "seed must be an integer, got False"),
            (("10", 1), "samples must be an integer, got '10'"),
        ],
    )
    def test_config_takes_ints_only(self, args, message):
        with pytest.raises(DomainError) as err:
            McConfig(*args)
        assert str(err.value) == message

    def test_degenerate_rows(self):
        model = AuctionModel(PointMass(2.0), PointMass(3.0), 4)
        table = simulate_bids(model, McConfig(100, seed=5))
        assert table.shape == (100, 2)
        assert np.all(table == 5.0)

    def test_deterministic(self):
        model = AuctionModel(Exponential(1.0), Lognormal(0.0, 1.0), 3)
        cfg = McConfig(5_000, seed=42)
        with mock.patch.object(auction, "_CHUNK", 1_024):
            a = simulate_bids(model, cfg)
            b = simulate_bids(model, cfg)
        assert np.array_equal(a, b)

    def test_top_at_least_second(self):
        model = AuctionModel(Exponential(1.0), Lognormal(0.2, 0.7), 5)
        table = simulate_bids(model, McConfig(10_000, seed=3))
        assert np.all(table[:, 0] >= table[:, 1])

    # N = 1000 and 3000 draw each 300-row chunk in blocks of 65 and 21 rows,
    # the last one partial
    @pytest.mark.parametrize("N", [2, 5, 50, 1000, 3000])
    @pytest.mark.parametrize(
        "common",
        [Exponential(1.0), Lognormal(0.5, 0.8), PointMass(2.0), Shifted(Lognormal(-1.0, 0.5), 3.5)],
    )
    def test_matches_the_full_sort(self, common, N):
        model = AuctionModel(common, Lognormal(0.2, 0.9), N)
        cfg = McConfig(1_000, seed=7)
        with mock.patch.object(auction, "_CHUNK", 300):
            got = simulate_bids(model, cfg)
        want = reference_simulate_bids(model, cfg, chunk=300)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    @pytest.mark.parametrize("N", [2, 3, 8])
    @pytest.mark.parametrize("samples, chunk", [(1, 5), (23, 100_000), (100, 9), (100, 64)])
    def test_matches_the_full_sort_in_small_blocks(self, block, N, samples, chunk):
        # blocks of one row, blocks that split a chunk unevenly, common draws
        # that span several blocks
        model = AuctionModel(Shifted(Lognormal(0.1, 0.4), -0.5), Exponential(0.7), N)
        cfg = McConfig(samples, seed=11)
        with mock.patch.object(auction, "_BLOCK", block):
            with mock.patch.object(auction, "_CHUNK", chunk):
                got = simulate_bids(model, cfg)
        want = reference_simulate_bids(model, cfg, chunk)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_the_stream_is_keyed_by_samples_and_seed(self):
        # three chunks of 100 000 rows, the last one partial, against the
        # stream spelled out with a literal chunk size
        model = AuctionModel(Exponential(1.0), Lognormal(0.2, 0.9), 3)
        cfg = McConfig(250_000, seed=7)
        got = simulate_bids(model, cfg)
        want = reference_simulate_bids(model, cfg, chunk=100_000)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("N, samples", [(10 ** 20, 5), (3, 10 ** 20), (2 ** 60, 4)])
    def test_arrays_past_the_index_range_are_refused_first(self, monkeypatch, N, samples):
        def no_array(*args, **kwargs):
            raise AssertionError("numpy was asked for an array")

        monkeypatch.setattr(np, "empty", no_array)
        monkeypatch.setattr(np.random, "Generator", no_array)
        cfg = McConfig(samples, seed=1)
        with pytest.raises(DomainError, match="do not fit one array"):
            simulate_bids(AuctionModel(PointMass(0.0), Exponential(1.0), N), cfg)
        with pytest.raises(DomainError, match="do not fit one array"):
            memoryless_check(1.0, N, cfg)

    def test_draws_numpy_cannot_allocate_are_typed(self):
        # one block of 10^15 bids passes the index-range check, but no
        # machine holds its 8 PB
        model = AuctionModel(Exponential(1.0), Exponential(1.0), 10 ** 15)
        message = r"^draws of shape \(1, 1000000000000000\) do not fit in memory$"
        with pytest.raises(OutOfRange, match=message):
            simulate_bids(model, McConfig(5, seed=1))
        with pytest.raises(OutOfRange, match=message):
            memoryless_check(1.0, 10 ** 15, McConfig(5, seed=1))

    def test_a_table_numpy_cannot_allocate_is_typed(self):
        cfg = McConfig(2 ** 58, seed=1)
        with pytest.raises(OutOfRange, match=r"^an array of shape \(288230376151711744, 2\) "):
            simulate_bids(AuctionModel(PointMass(0.0), Exponential(1.0), 3), cfg)
        with pytest.raises(OutOfRange, match=r"^an array of shape \(288230376151711744,\) "):
            memoryless_check(1.0, 3, cfg)

    def test_scratch_is_one_block(self):
        # drawing each chunk as one (rows, N) array peaks at 15.5 MB for
        # simulate_bids and 31 MB for memoryless_check here
        model = AuctionModel(Exponential(1.0), Lognormal(0.0, 1.0), 500)
        cfg = McConfig(4_000, seed=1)
        calls = [
            lambda: simulate_bids(model, cfg),
            lambda: memoryless_check(1.0, 500, cfg),
            lambda: memoryless_check(1.0, 500, cfg, control=True),
        ]
        for call in calls:
            assert peak_bytes(call) <= 2 * 2 ** 20

    def test_overflow_raises_out_of_range(self, recwarn):
        law = Lognormal(-708.0, 1.0)
        with pytest.raises(OutOfRange) as err:
            simulate_bids(AuctionModel(law, law, 3), McConfig(5, seed=1))
        assert "inf" in str(err.value)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_exact_parameters_draw_as_their_doubles(self):
        # a ratio or int parameter made numpy's in-place arithmetic an object
        # array, which raised UFuncTypeError
        def model(x):
            return AuctionModel(Shifted(PointMass(x(1, 3)), x(1, 7)),
                                Shifted(Lognormal(x(2, 3), x(3, 4)), x(5, 1)), 4)

        exact = simulate_bids(model(F), McConfig(50, seed=3))
        assert exact.tobytes() == simulate_bids(model(lambda p, q: p / q), McConfig(50, seed=3)).tobytes()

    def test_memoryless_gap_mean(self):
        # gap between the top two of N exponentials is a fresh exponential
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 2)
        table = simulate_bids(model, McConfig(1_000_000, seed=17))
        gap = table[:, 0] - table[:, 1]
        stderr = gap.std(ddof=1) / math.sqrt(len(gap))
        assert abs(gap.mean() - 1.0) < 3 * stderr


def reference_simulate_bids(model, cfg, chunk=100_000):
    """simulate_bids as a full sort of common + idiosyncratic bids, with the
    counter-based stream of each chunk of chunk rows spelled out."""
    out = np.empty((cfg.samples, 2))
    for ci, start in enumerate(range(0, cfg.samples, chunk)):
        rows = min(chunk, cfg.samples - start)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(ci))
        common = reference_draws(model.common, rng, rows)
        eps = reference_draws(model.idiosyncratic, rng, (rows, model.n_bidders))
        bids = common[:, None] + eps
        bids.sort(axis=1)
        out[start : start + rows, 0] = bids[:, -1]
        out[start : start + rows, 1] = bids[:, -2]
    return out


def reference_draws(dist, rng, size):
    """sample_draws with lognormal draws as one expression, not in place."""
    if isinstance(dist, Lognormal):
        return np.exp(dist.sigma * rng.standard_normal(size) - dist.mu)
    if isinstance(dist, Shifted):
        return reference_draws(dist.base, rng, size) + dist.offset
    return sample_draws(dist, rng, size)


def reference_memoryless_check(theta, N, cfg, control=False, statistic=ks_statistic, chunk=100_000):
    """memoryless_check drawing the sets of each chunk of chunk rows as
    whole (rows, N) arrays; statistic takes the two columns."""
    scale = 1.0 / theta
    top = np.empty(cfg.samples)
    second_side = np.empty(cfg.samples)
    for ci, start in enumerate(range(0, cfg.samples, chunk)):
        rows = min(chunk, cfg.samples - start)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(ci))
        top[start : start + rows] = rng.exponential(scale, (rows, N)).max(axis=1)
        draws_b = rng.exponential(scale, (rows, N))
        draws_b.sort(axis=1)
        second = draws_b[:, -2]
        if not control:
            second = second + rng.exponential(scale, rows)
        second_side[start : start + rows] = second
    return statistic(top, second_side)


def reference_k_monte_carlo(samples, lam):
    """k_monte_carlo with its weights as one expression and the covariance
    from np.cov, which copies them."""
    table = np.asarray(samples, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] == 0:
        raise DomainError("expected a nonempty (rows, 2) sample table")
    if not np.isfinite(table).all():
        raise DomainError("sample table holds a non-finite bid")
    x, y = np.exp(-lam * (table - table[:, 1].min())).T
    n = len(x)
    ess = min(auction._effective_size(x), auction._effective_size(y))
    if not ess >= auction._MIN_ESS:
        raise InsufficientSamples(
            f"effective sample size {ess:.4g} of {n} rows is below {auction._MIN_ESS} "
            f"at lambda {auction._shown(lam)}: too few draws carry the weights"
        )
    xbar, ybar = x.mean(), y.mean()
    ratio = xbar / ybar
    var_x = x.var(ddof=1)
    var_y = y.var(ddof=1)
    cov_xy = float(np.cov(x, y, ddof=1)[0, 1])
    var_ratio = (var_x - 2.0 * ratio * cov_xy + ratio ** 2 * var_y) / (n * ybar ** 2)
    return float(ratio), float(math.sqrt(max(var_ratio, 0.0)))


def reference_ks_statistic(a, b):
    """ks_statistic counting both samples at every point of their union."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    ca = np.searchsorted(a, both, side="right")
    cb = np.searchsorted(b, both, side="right")
    return float(np.abs(ca * len(b) - cb * len(a)).max() / (len(a) * len(b)))


def outcome(f, *args):
    """f(*args) as float.hex text, or the type and message it raised."""
    try:
        result = f(*args)
    except LaplaceRatioError as err:
        return type(err).__name__, str(err)
    if isinstance(result, tuple):
        return tuple(v.hex() for v in result)
    return result.hex()


def peak_bytes(call):
    """tracemalloc's peak over a second call of call; numpy's first-call
    caches stay out of the count."""
    import tracemalloc

    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKMonteCarlo:
    def test_degenerate_table(self):
        table = np.full((50, 2), 7.0)
        est, se = k_monte_carlo(table, 2.0)
        assert est == 1.0
        assert se == 0.0

    def test_exponential_closed_form(self):
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 5)
        table = simulate_bids(model, McConfig(1_000_000, seed=29))
        est, se = k_monte_carlo(table, 1.0)
        assert se < 1e-3
        assert abs(est - 0.5) < 3 * se

    def test_rejects_bad_lambda(self):
        for lam in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                k_monte_carlo(np.ones((4, 2)), lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_bids(self, bad):
        for row, col in ((0, 0), (1, 1)):
            table = np.array([[3.0, 1.0], [2.0, 1.5]])
            table[row, col] = bad
            with pytest.raises(DomainError):
                k_monte_carlo(table, 1.0)

    def test_a_ratio_lambda_is_taken_as_its_double(self):
        # numpy refused the object array that a Fraction weight made
        table = np.array([[2.0, 1.0], [3.0, 1.5]] * 20)
        assert k_monte_carlo(table, F(1, 3)) == k_monte_carlo(table, 1 / 3)

    def test_a_bid_past_the_double_range_is_refused(self):
        # np.asarray raised OverflowError
        with pytest.raises(DomainError, match="sample table holds a non-finite bid"):
            k_monte_carlo([[10 ** 400, 1]] * 40, 1.0)

    @pytest.mark.parametrize(
        "table, row, top, second",
        [
            # gave (2.718..., 0.0), an estimate above 1
            ([[0.0, 1.0]] * 40, 0, "0.0", "1.0"),
            # warned of inf/inf in the effective size, then reported it as nan
            ([[1.0, 800.0]] * 40, 0, "1.0", "800.0"),
            (np.array([[2.0, 1.0]] * 37 + [[5.0, 5.0], [-1e-300, 0.0], [3.0, 4.0]]), 38, "-1e-300", "0.0"),
        ],
        ids=["estimate_above_one", "nan_size", "later_row"],
    )
    def test_a_top_bid_below_its_second_is_refused(self, table, row, top, second, recwarn):
        message = f"^sample table row {row} has its top bid {top} below its second {second}$"
        for lam in (1.0, 1e-300, 1e308):
            with pytest.raises(DomainError, match=message):
                k_monte_carlo(table, lam)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "table, lam",
        [([[1e308, 1e308], [1e308, -1e308]] * 20, 1.0), ([[2.0, 1.0], [5.0, 0.0]] * 20, 1e308)],
        ids=["difference", "exponent"],
    )
    def test_weights_past_the_double_range_leave_no_warning(self, table, lam, recwarn):
        # the difference or -lam times it overflows to inf, whose weight is 0
        with pytest.raises(InsufficientSamples, match="^effective sample size 0 of 40 rows"):
            k_monte_carlo(table, lam)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_weights_below_the_double_range(self):
        # exp(-lam * bid) underflows for every row, but the ratio does not
        model = AuctionModel(PointMass(1000.0), Exponential(1.0), 5)
        est, se = k_monte_carlo(simulate_bids(model, McConfig(200_000, seed=41)), 1.0)
        assert 0 < se < 1e-2
        assert abs(est - 0.5) < 4 * se

    @pytest.mark.parametrize(
        "common, idio, N, lam, seed, ess",
        [
            (PointMass(5.0), Exponential(1.0), 5, 300.0, 3, "1.004"),
            (Exponential(1.0), Lognormal(0.0, 1.0), 50, 100.0, 3, "1.697"),
            (Exponential(1.0), Lognormal(1.0, 0.5), 5, 1000.0, 3, "1"),
            (Exponential(1.0), Lognormal(-1.0, 1.5), 50, 1000.0, 5, "0"),
        ],
    )
    def test_refused_where_rare_draws_carry_k(self, common, idio, N, lam, seed, ess):
        # K is carried by draws with all N bids near 0, which 20 000 rows do
        # not see: the estimate came out orders of magnitude low, with an
        # error bar as small.  In the last row every top-bid weight
        # underflows, which gave (0.0, 0.0).
        table = simulate_bids(AuctionModel(common, idio, N), McConfig(20_000, seed=seed))
        with pytest.raises(InsufficientSamples, match=f"^effective sample size {ess} of 20000 rows is below 30 "):
            k_monte_carlo(table, lam)

    def test_the_effective_size_floor(self):
        # rows at bid 0 carry weight 1 and rows at 10^6 weight 0, so the
        # effective sample size is the count of rows at 0
        def table(carried):
            return np.array([[0.0, 0.0]] * carried + [[1e6, 1e6]] * 100)

        assert k_monte_carlo(table(30), 1.0)[0] == 1.0
        with pytest.raises(InsufficientSamples, match="effective sample size 29 of 129 rows"):
            k_monte_carlo(table(29), 1.0)
        with pytest.raises(InsufficientSamples, match="effective sample size 1 of 1 rows"):
            k_monte_carlo(np.array([[2.0, 1.0]]), 1.0)
        # top-bid weights near 1e-200, whose squares underflow: the size is
        # taken relative to the largest weight, so it stays 50
        far = np.array([[460.0, 0.0]] * 50)
        assert k_monte_carlo(far, 1.0)[0] == pytest.approx(math.exp(-460.0), rel=1e-12)

    def test_returned_estimates_lie_within_five_standard_errors(self):
        # a seeded corpus across laws, N and lambda: each estimate either
        # lies within 5 SE of the true K or is refused
        rng = random.Random(4)
        returned = refused = 0
        for _ in range(500):
            idio = rng.choice(
                [
                    Exponential(rng.uniform(0.3, 3.0)),
                    Lognormal(rng.choice([-1.0, 0.0, 1.0]), rng.choice([0.5, 1.0, 1.5])),
                    Shifted(Lognormal(rng.uniform(-1, 1), rng.uniform(0.3, 1.5)), rng.uniform(0, 2)),
                ]
            )
            common = rng.choice([PointMass(rng.uniform(0, 5)), Exponential(rng.uniform(0.5, 2))])
            model = AuctionModel(common, idio, rng.choice([2, 5, 50]))
            lam = 10 ** rng.uniform(-2, 3)
            table = simulate_bids(model, McConfig(2_000, seed=rng.getrandbits(63)))
            try:
                est, se = k_monte_carlo(table, lam)
            except InsufficientSamples:
                refused += 1
                continue
            returned += 1
            if isinstance(idio, Exponential):
                want = k_analytic_exponential(idio.theta, lam)
            else:
                want = k_quadrature(model, lam)
            assert abs(est - want) <= 5 * se, (model, lam, est, se, want)
        assert returned > 250 and refused > 150

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            k_monte_carlo(np.empty((0, 2)), 1.0)

    # rows 1-31 straddle the effective-size floor; 8191-8193 and 65 537 cross
    # numpy's 8192-element reduction blocks
    @pytest.mark.parametrize("rows", [*range(1, 32), 8191, 8192, 8193, 65_537, 200_000])
    def test_matches_the_reference_bit_for_bit(self, rows):
        # lambda 300 leaves a few draws carrying the weights; at 1e5 every
        # top-bid weight underflows, so the size is 0
        rng = random.Random(rows)
        N = rng.choice([2, 3, 5, 50])
        model = AuctionModel(Exponential(1.0), Lognormal(rng.uniform(-1, 1), rng.uniform(0.3, 1.5)), N)
        table = simulate_bids(model, McConfig(rows, seed=rng.getrandbits(32)))
        tables = [table, np.asfortranarray(table), np.repeat(table, 2, axis=0)[::2]]
        if rows <= 8193:
            tables += [np.round(4 * table).astype(int), table.tolist()]
        for lam in (0.05, 1.0, 7.5, 300.0, 1e5):
            want = outcome(reference_k_monte_carlo, table, lam)
            for t in tables:
                assert outcome(k_monte_carlo, t, lam) == outcome(reference_k_monte_carlo, t, lam)
            assert outcome(k_monte_carlo, tables[1], lam) == want
        if rows == 200_000:
            assert isinstance(want, tuple)
        few = outcome(k_monte_carlo, table, 300.0)
        assert few[0] == "InsufficientSamples" and not few[1].startswith("effective sample size 0 ")
        assert outcome(k_monte_carlo, table, 1e5)[1].startswith("effective sample size 0 ")

    def test_scratch_is_the_weights_and_one_column(self):
        # np.cov's copies of the weights peak at 2.50 tables here
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 2)
        table = simulate_bids(model, McConfig(400_000, seed=3))
        assert peak_bytes(lambda: k_monte_carlo(table, 1.0)) <= 1.6 * table.nbytes

    def test_estimate_in_unit_interval(self):
        model = AuctionModel(Exponential(0.5), Lognormal(0.0, 1.0), 4)
        table = simulate_bids(model, McConfig(20_000, seed=31))
        est, _ = k_monte_carlo(table, 0.7)
        assert 0.0 < est <= 1.0


class TestMemorylessCheck:
    def test_identity_holds_for_exponential(self):
        cfg = McConfig(100_000, seed=23)
        critical = 1.63 * math.sqrt(2 / cfg.samples)
        for N in (2, 3, 5):
            assert memoryless_check(1.0, N, cfg) < critical

    def test_other_rate(self):
        cfg = McConfig(100_000, seed=37)
        assert memoryless_check(2.0, 2, cfg) < 1.63 * math.sqrt(2 / cfg.samples)

    def test_negative_control_fails(self):
        cfg = McConfig(100_000, seed=23)
        critical = 1.63 * math.sqrt(2 / cfg.samples)
        assert memoryless_check(1.0, 3, cfg, control=True) > critical

    # chunk None leaves _CHUNK as it is, against the reference's literal
    # 100 000 rows; 250 000 samples span three chunks
    @pytest.mark.parametrize("control", [False, True])
    @pytest.mark.parametrize(
        "N, samples, chunk, block",
        [
            (2, 1, 100_000, None),
            (3, 1_001, 300, None),
            (10, 777, 100_000, None),
            (1_000, 500, 100_000, None),
            (3_000, 200, 70, None),
            (2, 100, 9, 1),
            (5, 100, 64, 7),
            (4, 1, 3, 3),
            (3, 250_000, None, None),
        ],
    )
    def test_matches_the_whole_chunk_draws(self, N, samples, chunk, block, control):
        # both columns bit for bit, then the statistic
        def columns(a, b):
            return np.stack([a, b]).view(np.uint64)

        cfg = McConfig(samples, seed=19)
        with mock.patch.object(auction, "_BLOCK", block or auction._BLOCK):
            with mock.patch.object(auction, "_CHUNK", chunk or auction._CHUNK):
                with mock.patch.object(auction, "ks_statistic", columns):
                    got = memoryless_check(1.7, N, cfg, control=control)
                stat = memoryless_check(1.7, N, cfg, control=control)
        chunk = chunk or 100_000
        want = reference_memoryless_check(1.7, N, cfg, control, columns, chunk)
        assert np.array_equal(got, want)
        assert stat.hex() == reference_memoryless_check(1.7, N, cfg, control, chunk=chunk).hex()

    def test_draws_past_the_double_range_are_refused_without_a_warning(self, recwarn):
        # second-largest plus fresh draws overflow; numpy warned before the
        # sample was refused
        with pytest.raises(DomainError, match="sample holds a non-finite value"):
            memoryless_check(2.2250738585072014e-308, 3, McConfig(19, seed=19))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "theta, N, message",
        [
            (math.nan, 3, "theta must be finite and positive"),
            (math.inf, 3, "theta must be finite and positive"),
            (-math.inf, 3, "theta must be finite and positive"),
            (10 ** 400, 3, "theta must be finite and positive"),
            (0, 3, "theta must be finite and positive"),
            (1.0, 3.0, "need an integer N >= 2"),
            (1.0, "3", "need an integer N >= 2"),
            (1.0, None, "need an integer N >= 2"),
            (1.0, 1, "need an integer N >= 2"),
        ],
        ids=["nan", "inf", "-inf", "int", "zero", "N-float", "N-str", "N-none", "N-one"],
    )
    def test_refuses_what_the_laws_refuse(self, theta, N, message):
        # a float, text or None for N once raised TypeError from range or <
        with pytest.raises(DomainError, match=message):
            memoryless_check(theta, N, McConfig(10, seed=1))


class TestKsStatistic:
    # scipy's ks_2samp is the reference; the library no longer imports it
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 300),
        st.integers(0, 2 ** 32 - 1),
        st.sampled_from([None, 0, 1]),
    )
    def test_matches_scipy(self, n1, n2, seed, digits):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(n1), 0.3 + rng.standard_normal(n2)
        if digits is not None:  # rounded draws give ties within and across samples
            a, b = np.round(a, digits), np.round(b, digits)
        with warnings.catch_warnings():
            # the reference's p-value can warn (ties, one-point samples);
            # only its statistic is compared
            warnings.simplefilter("ignore", RuntimeWarning)
            want = ks_2samp(a, b).statistic
        assert ks_statistic(a, b) == want

    def test_large_samples_match_scipy(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(12_000), rng.standard_normal(15_000)
        assert math.isclose(ks_statistic(a, b), ks_2samp(a, b).statistic, rel_tol=1e-12)

    def test_disjoint_and_identical(self):
        assert ks_statistic([0.0, 1.0], [2.0, 3.0, 4.0]) == 1.0
        assert ks_statistic([1.0, 2.0, 2.0], [2.0, 1.0, 2.0]) == 0.0

    def test_matches_the_reference_bit_for_bit(self):
        # ties within and across samples, unequal sizes, ints and lists
        rng = np.random.default_rng(12)
        for _ in range(300):
            n1, n2 = rng.integers(1, 2_000, size=2)
            digits = rng.choice([0, 1, 2, 8])
            a = np.round(rng.standard_normal(n1), digits)
            b = np.round(rng.normal(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2), n2), digits)
            pairs = [(a, b), (b, a), (a.tolist(), b), (a, b[: len(b) // 2 + 1].tolist())]
            pairs.append((np.round(10 * a).astype(int), b))
            pairs.append((np.round(10 * a).astype(int), np.round(10 * b).astype(int).tolist()))
            for x, y in pairs:
                assert outcome(ks_statistic, x, y) == outcome(reference_ks_statistic, x, y)
        # ints past int64 make an object array, which np.isfinite refuses
        assert ks_statistic([10 ** 30, 1, 5], [2.0, 3.0]) == reference_ks_statistic([10 ** 30, 1, 5], [2.0, 3.0])

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ([], [1.0], "expected a nonempty one-dimensional sample"),
            ([1.0, 2.0], np.empty(0), "expected a nonempty one-dimensional sample"),
            ([[1.0, 2.0]], [1.0], "expected a nonempty one-dimensional sample"),
            (3.0, [1.0], "expected a nonempty one-dimensional sample"),
            ([math.nan], [1.0], "sample holds a non-finite value"),
            ([1.0, 2.0], [0.5, math.nan, 3.0], "sample holds a non-finite value"),
            ([1.0, math.inf], [1.0], "sample holds a non-finite value"),
            ([1.0], [-math.inf, 2.0], "sample holds a non-finite value"),
        ],
    )
    def test_refuses_an_empty_or_non_finite_sample(self, a, b, message, recwarn):
        # an empty sample gave nan with a RuntimeWarning, and [nan] gave 1.0
        with pytest.raises(DomainError, match=f"^{message}$"):
            ks_statistic(a, b)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("n1, n2", [(400_000, 400_000), (400_000, 150_000), (150_000, 400_000)])
    def test_scratch_is_two_sorted_copies_and_two_columns(self, n1, n2):
        # counting at every point of the union peaks at 12 columns here
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(n1), rng.standard_normal(n2)
        assert peak_bytes(lambda: ks_statistic(a, b)) <= 4.5 * 8 * max(n1, n2)


class TestAuctionIdentify:
    def test_uniform_germ(self):
        # uniform-on-[0,1] CDF germ F(x) = x with N = 2
        H = ratio_expansion(Poly([0, 1]), 1, 2, 8)
        result = auction_identify(H, 2, 1)
        assert result.poly == Poly([0, 1])
        assert not result.ambiguous_sign

    def test_quadratic_germ(self):
        f = Poly([0, 1, F(1, 2)])
        H = ratio_expansion(f, 2, 3, 12)
        assert auction_identify(H, 3, 2).poly == f

    @pytest.mark.parametrize("N, theta", [(2, F(1)), (5, F(3, 2)), (3, F(1, 3))])
    def test_exponential_germ_from_its_exact_power_ratio(self, N, theta):
        # the exponential law's H = (lambda + N theta) / (N theta), expanded
        # exactly, gives back the Taylor germ of its CDF 1 - e^(-theta x)
        H = RationalFunction(Poly([N * theta, 1]), Poly([N * theta])).expansion(8)
        want = Poly([0] + [-(-theta) ** k / math.factorial(k) for k in range(1, 6)])
        result = auction_identify(H, N, 5)
        assert result.poly == want
        assert not result.ambiguous_sign

    def test_inconsistent_lead_propagates(self):
        from laplaceratio.algebra import Series

        H = RatioExpansion(-1, Series([1], 8))
        with pytest.raises(InconsistentRatio):
            auction_identify(H, 2, 1)

    def test_needs_two_bidders(self):
        H = ratio_expansion(Poly([0, 1]), 1, 2, 8)
        with pytest.raises(DomainError):
            auction_identify(H, 1, 1)
