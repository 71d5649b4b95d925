import json
import math
from fractions import Fraction as F
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplaceratio.algebra import Poly
from laplaceratio.auction import (
    AuctionModel,
    Exponential,
    Lognormal,
    McConfig,
    PointMass,
    Shifted,
    _bid_at_score,
    _log_ndtr,
    auction_identify,
    h_from_k,
    k_analytic_exponential,
    k_from_h,
    k_monte_carlo,
    k_quadrature,
    ks_statistic,
    memoryless_check,
    sample_draws,
    simulate_bids,
)
from laplaceratio.errors import DomainError, InconsistentRatio, OutOfRange, QuadratureFailure
from laplaceratio.transforms import RatioExpansion, ratio_expansion


class TestDistributions:
    def test_validation(self):
        with pytest.raises(DomainError):
            Exponential(0)
        with pytest.raises(DomainError):
            Lognormal(0, -1)
        with pytest.raises(DomainError):
            PointMass(-2)

    def test_exponential_normal_score(self):
        # P(X <= 2/theta) = 1 - e^-2, so that is the bid at Phi(z) = 1 - e^-2
        z = NormalDist().inv_cdf(1 - math.exp(-2))
        for theta in (0.5, 2.0):
            lower, excess = _bid_at_score(Exponential(theta), z)
            assert lower == 0.0
            assert excess == pytest.approx(2 / theta, rel=1e-12)

    def test_lognormal_median_at_score_zero(self):
        # X = exp(sigma Z - mu): the median exp(-mu) sits at z = 0
        assert _bid_at_score(Lognormal(0.7, 1.3), 0.0) == (0.0, math.exp(-0.7))
        assert _bid_at_score(Lognormal(0.0, 1.0), 800.0) == (0.0, math.inf)

    def test_lognormal_sampling_matches_parameterization(self):
        # mean of log X must be -mu, sd sigma
        rng = np.random.Generator(np.random.Philox(key=7))
        logs = np.log(sample_draws(Lognormal(0.5, 2.0), rng, 200_000))
        assert logs.mean() == pytest.approx(-0.5, abs=0.02)
        assert logs.std() == pytest.approx(2.0, abs=0.02)

    def test_shifted(self):
        # a shifted point mass sits on its lower bound 3 at every score
        d = Shifted(PointMass(1.0), 2.0)
        assert all(_bid_at_score(d, z) == (3.0, 0.0) for z in (-40.0, 0.0, 8.0))
        rng = np.random.Generator(np.random.Philox(key=1))
        assert np.all(sample_draws(d, rng, 5) == 3.0)


class TestKHAlgebra:
    def test_k_from_h_values(self):
        assert k_from_h(0.0, 5) == 0.0
        assert k_from_h(1.0, 2) == pytest.approx(1 / 3)

    def test_k_from_h_limit(self):
        assert k_from_h(1e12, 2) == pytest.approx(1.0, rel=1e-10)
        assert k_from_h(1e12, 2) < 1.0

    def test_h_from_k_values(self):
        assert h_from_k(1 / 3, 2) == pytest.approx(1.0)
        assert h_from_k(0.0, 9) == 0.0

    def test_h_from_k_out_of_range(self):
        with pytest.raises(OutOfRange):
            h_from_k(0.6, 3)  # bound is 1/2

    def test_domains(self):
        with pytest.raises(DomainError):
            k_from_h(-0.1, 2)

    @given(st.floats(0, 100), st.integers(2, 10))
    def test_roundtrip(self, h, N):
        assert h_from_k(k_from_h(h, N), N) == pytest.approx(h, rel=1e-12, abs=1e-12)

    @given(st.integers(2, 10), st.floats(0.0, 0.999))
    def test_inverse_other_way(self, N, frac):
        k = frac / (N - 1)
        assert k_from_h(h_from_k(k, N), N) == pytest.approx(k, rel=1e-12, abs=1e-15)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            k_analytic_exponential(1.0, bad)
        with pytest.raises(DomainError):
            k_analytic_exponential(bad, 1.0)


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
        assert _log_ndtr(z) == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("z", [-30.0, -31.5, -36.0])
    def test_series_matches_erfc_where_both_work(self, z):
        # the asymptotic series takes over at -30; erfc is still a normal
        # double down to about -37
        direct = math.log(0.5 * math.erfc(-z / math.sqrt(2)))
        assert _log_ndtr(z) == pytest.approx(direct, rel=1e-14)


class TestKQuadrature:
    def test_exponential_matches_closed_form(self):
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 5)
        got = k_quadrature(model, 1.0, tol=1e-10)
        assert abs(got - 0.5) <= 1e-10

    def test_point_mass_degenerate(self):
        model = AuctionModel(Exponential(1.0), PointMass(0.0), 4)
        for lam in (0.5, 2.0):
            assert k_quadrature(model, lam) == pytest.approx(1.0, abs=1e-10)

    def test_point_mass_positive_location(self):
        model = AuctionModel(PointMass(0.0), PointMass(2.0), 3)
        # both order statistics are the constant 2, so K = 1
        assert k_quadrature(model, 1.0) == pytest.approx(1.0, abs=1e-10)

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
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 2)
        for lam in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                k_quadrature(model, lam)

    def test_support_below_zero(self):
        model = AuctionModel(PointMass(0.0), Shifted(Exponential(1.0), -0.5), 3)
        with pytest.raises(DomainError):
            k_quadrature(model, 1.0)

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

    def test_lognormal_catalogue(self):
        # 32-digit mpmath values for every (mu, sigma, N, lambda) the
        # float_pipeline benchmark draws
        catalogue = json.loads(CATALOGUE.read_text())
        assert len(catalogue) == 450
        for key, (want, _) in catalogue.items():
            mu, sigma, N, lam = json.loads(key)
            model = AuctionModel(PointMass(0.0), Lognormal(float(mu), float(sigma)), N)
            assert abs(k_quadrature(model, float(lam)) - float(want)) <= 1e-10, key

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
                k = k_quadrature(AuctionModel(PointMass(0.0), point, N), lam)
                assert k == pytest.approx(1.0, abs=1e-15)
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
    def test_degenerate_rows(self):
        model = AuctionModel(PointMass(2.0), PointMass(3.0), 4)
        table = simulate_bids(model, McConfig(100, seed=5))
        assert table.shape == (100, 2)
        assert np.all(table == 5.0)

    def test_deterministic(self):
        model = AuctionModel(Exponential(1.0), Lognormal(0.0, 1.0), 3)
        cfg = McConfig(5_000, seed=42, chunk=1_024)
        a = simulate_bids(model, cfg)
        b = simulate_bids(model, cfg)
        assert np.array_equal(a, b)

    def test_chunk_is_part_of_the_key(self):
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 2)
        a = simulate_bids(model, McConfig(2_000, seed=9, chunk=500))
        b = simulate_bids(model, McConfig(2_000, seed=9, chunk=500))
        assert np.array_equal(a, b)

    def test_top_at_least_second(self):
        model = AuctionModel(Exponential(1.0), Lognormal(0.2, 0.7), 5)
        table = simulate_bids(model, McConfig(10_000, seed=3))
        assert np.all(table[:, 0] >= table[:, 1])

    @pytest.mark.parametrize("N", [2, 5, 50])
    @pytest.mark.parametrize(
        "common",
        [Exponential(1.0), Lognormal(0.5, 0.8), PointMass(2.0), Shifted(Lognormal(-1.0, 0.5), 3.5)],
    )
    def test_matches_the_full_sort(self, common, N):
        model = AuctionModel(common, Lognormal(0.2, 0.9), N)
        cfg = McConfig(1_000, seed=7, chunk=300)
        got = simulate_bids(model, cfg)
        want = reference_simulate_bids(model, cfg)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "N, samples, chunk",
        [(10 ** 20, 5, 100_000), (3, 10 ** 20, 100_000), (3, 10 ** 20, 10 ** 20), (2 ** 60, 4, 4)],
    )
    def test_arrays_past_the_index_range_are_refused_first(self, monkeypatch, N, samples, chunk):
        def no_array(*args, **kwargs):
            raise AssertionError("numpy was asked for an array")

        monkeypatch.setattr(np, "empty", no_array)
        monkeypatch.setattr(np.random, "Generator", no_array)
        cfg = McConfig(samples, seed=1, chunk=chunk)
        with pytest.raises(DomainError, match="do not fit one array"):
            simulate_bids(AuctionModel(PointMass(0.0), Exponential(1.0), N), cfg)
        with pytest.raises(DomainError, match="do not fit one array"):
            memoryless_check(1.0, N, cfg)

    def test_overflow_raises_out_of_range(self, recwarn):
        law = Lognormal(-708.0, 1.0)
        with pytest.raises(OutOfRange) as err:
            simulate_bids(AuctionModel(law, law, 3), McConfig(5, seed=1))
        assert "inf" in str(err.value)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_memoryless_gap_mean(self):
        # gap between the top two of N exponentials is a fresh exponential
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 2)
        table = simulate_bids(model, McConfig(1_000_000, seed=17))
        gap = table[:, 0] - table[:, 1]
        stderr = gap.std(ddof=1) / math.sqrt(len(gap))
        assert abs(gap.mean() - 1.0) < 3 * stderr


def reference_simulate_bids(model, cfg):
    """simulate_bids as a full sort of common + idiosyncratic bids, with the
    counter-based stream of each chunk spelled out."""
    out = np.empty((cfg.samples, 2))
    for ci, start in enumerate(range(0, cfg.samples, cfg.chunk)):
        rows = min(cfg.chunk, cfg.samples - start)
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

    def test_weights_below_the_double_range(self):
        # exp(-lam * bid) underflows for every row, but the ratio does not
        model = AuctionModel(PointMass(1000.0), Exponential(1.0), 5)
        est, se = k_monte_carlo(simulate_bids(model, McConfig(200_000, seed=41)), 1.0)
        assert 0 < se < 1e-2
        assert abs(est - 0.5) < 4 * se

    def test_finite_where_rare_draws_carry_k(self):
        # at lam = 300 the weights underflow too, and K = 1/301 is carried by
        # draws with all five bids near 0, which 20 000 rows do not see: the
        # estimate is finite, not nan, but cannot be near 1/301
        model = AuctionModel(PointMass(5.0), Exponential(1.0), 5)
        est, se = k_monte_carlo(simulate_bids(model, McConfig(20_000, seed=3)), 300.0)
        assert math.isfinite(est) and math.isfinite(se)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            k_monte_carlo(np.empty((0, 2)), 1.0)

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
        assert ks_statistic(a, b) == ks_2samp(a, b).statistic

    def test_large_samples_match_scipy(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(12_000), rng.standard_normal(15_000)
        assert math.isclose(ks_statistic(a, b), ks_2samp(a, b).statistic, rel_tol=1e-12)

    def test_disjoint_and_identical(self):
        assert ks_statistic([0.0, 1.0], [2.0, 3.0, 4.0]) == 1.0
        assert ks_statistic([1.0, 2.0, 2.0], [2.0, 1.0, 2.0]) == 0.0


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

    def test_inconsistent_lead_propagates(self):
        from laplaceratio.algebra import Series

        H = RatioExpansion(-1, Series([1], 8))
        with pytest.raises(InconsistentRatio):
            auction_identify(H, 2, 1)

    def test_needs_two_bidders(self):
        H = ratio_expansion(Poly([0, 1]), 1, 2, 8)
        with pytest.raises(DomainError):
            auction_identify(H, 1, 1)
