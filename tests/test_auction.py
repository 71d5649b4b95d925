import math
from fractions import Fraction as F

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
    auction_identify,
    cdf_values,
    h_from_k,
    k_analytic_exponential,
    k_from_h,
    k_monte_carlo,
    k_quadrature,
    ks_statistic,
    memoryless_check,
    order_stat_cdfs,
    sample_draws,
    simulate_bids,
)
from laplaceratio.errors import DomainError, InconsistentRatio, OutOfRange
from laplaceratio.transforms import RatioExpansion, ratio_expansion


class TestDistributions:
    def test_validation(self):
        with pytest.raises(DomainError):
            Exponential(0)
        with pytest.raises(DomainError):
            Lognormal(0, -1)
        with pytest.raises(DomainError):
            PointMass(-2)

    def test_exponential_cdf(self):
        d = Exponential(2.0)
        assert cdf_values(d, 0.0) == 0.0
        assert cdf_values(d, 1.0) == pytest.approx(1 - math.exp(-2))
        assert cdf_values(d, -1.0) == 0.0

    def test_lognormal_cdf_median(self):
        # X = exp(sigma Z - mu): P(X <= exp(-mu)) = 1/2
        d = Lognormal(0.7, 1.3)
        assert cdf_values(d, math.exp(-0.7)) == pytest.approx(0.5)
        assert cdf_values(d, 0.0) == 0.0

    def test_lognormal_sampling_matches_parameterization(self):
        # mean of log X must be -mu, sd sigma
        rng = np.random.Generator(np.random.Philox(key=7))
        logs = np.log(sample_draws(Lognormal(0.5, 2.0), rng, 200_000))
        assert logs.mean() == pytest.approx(-0.5, abs=0.02)
        assert logs.std() == pytest.approx(2.0, abs=0.02)

    def test_shifted(self):
        d = Shifted(PointMass(1.0), 2.0)
        assert cdf_values(d, 2.9) == 0.0
        assert cdf_values(d, 3.0) == 1.0
        rng = np.random.Generator(np.random.Philox(key=1))
        assert np.all(sample_draws(d, rng, 5) == 3.0)


class TestOrderStatCdfs:
    def test_midpoint(self):
        assert order_stat_cdfs(0.5, 2) == (0.25, 0.75)

    def test_boundaries(self):
        assert order_stat_cdfs(1.0, 7) == (1.0, 1.0)
        assert order_stat_cdfs(0.0, 3) == (0.0, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            order_stat_cdfs(1.5, 2)
        with pytest.raises(DomainError):
            order_stat_cdfs(-0.1, 2)

    @given(st.floats(0, 1), st.integers(2, 12))
    def test_top_below_second_and_gap_formula(self, F_val, N):
        top, second = order_stat_cdfs(F_val, N)
        assert 0.0 <= top <= second <= 1.0
        gap = N * F_val ** (N - 1) * (1 - F_val)
        assert second - top == pytest.approx(gap, rel=1e-12, abs=1e-12)


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
        with pytest.raises(DomainError):
            k_quadrature(model, 0.0)

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

    def test_memoryless_gap_mean(self):
        # gap between the top two of N exponentials is a fresh exponential
        model = AuctionModel(PointMass(0.0), Exponential(1.0), 2)
        table = simulate_bids(model, McConfig(1_000_000, seed=17))
        gap = table[:, 0] - table[:, 1]
        stderr = gap.std(ddof=1) / math.sqrt(len(gap))
        assert abs(gap.mean() - 1.0) < 3 * stderr


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
        with pytest.raises(DomainError):
            k_monte_carlo(np.ones((4, 2)), 0.0)

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
