"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; exact checks use rational arithmetic with
zero tolerance.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from laplaceratio.algebra import Poly, beta_rational
from laplaceratio.auction import (
    AuctionModel,
    Exponential,
    Lognormal,
    McConfig,
    PointMass,
    h_from_k,
    k_from_h,
    k_monte_carlo,
    k_quadrature,
    memoryless_check,
    simulate_bids,
)
from laplaceratio.identify import RatioSpec, identify, pivot_value, verify_identity
from laplaceratio.transforms import (
    PiecewisePoly,
    convolution_residual,
    delay,
    ratio_eval_piecewise,
    ratio_expansion,
    ratio_rational,
    shift_vanishing,
    sin_closed_form,
    sin_maclaurin,
    step_example,
)


@pytest.fixture
def report(capsys):
    def _report(label: str, ok: bool, detail: str = ""):
        line = f"acceptance {label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def random_poly(rng: random.Random, max_degree: int = 8) -> Poly:
    while True:
        degree = rng.randint(0, max_degree)
        coeffs = [rng.randint(-3, 3) for _ in range(degree + 1)]
        p = Poly(coeffs)
        if not p.is_zero:
            return p


def required_order(f: Poly, spec: RatioSpec, target: int) -> int:
    return f.valuation * (spec.n + spec.m - 1) + target + 1


def test_criterion_1_sin_identity(report):
    start = time.perf_counter()
    got = ratio_expansion(sin_maclaurin(17), 2, 1, 12)
    want = sin_closed_form().expansion(12)
    elapsed = time.perf_counter() - start
    report(
        "1 sin identity",
        got == want and elapsed < 1.0,
        f"exact through order 12, {elapsed:.2f}s",
    )


def test_criterion_2_roundtrip_odd(report):
    rng = random.Random(20200910)
    specs = [RatioSpec(2, 1), RatioSpec(3, 2), RatioSpec(1, 2), RatioSpec(5, 2)]
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        f = random_poly(rng)
        for spec in specs:
            H = ratio_expansion(f, spec.n, spec.m, required_order(f, spec, f.degree))
            result = identify(H, spec, f.degree)
            if result.poly != f or result.ambiguous_sign:
                ok = False
    elapsed = time.perf_counter() - start
    report(
        "2 polynomial round trip, odd specs",
        ok and elapsed < 30.0,
        f"200 polys x 4 specs, exact, {elapsed:.1f}s",
    )


def test_criterion_3_roundtrip_even(report):
    rng = random.Random(1801458)
    specs = [RatioSpec(3, 1), RatioSpec(5, 3), RatioSpec(4, 2)]
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        f = random_poly(rng)
        canonical = f if f.coeffs[f.valuation] > 0 else -f
        for spec in specs:
            H = ratio_expansion(f, spec.n, spec.m, required_order(f, spec, f.degree))
            result = identify(H, spec, f.degree)
            if result.poly != canonical or not result.ambiguous_sign:
                ok = False
    elapsed = time.perf_counter() - start
    report(
        "3 polynomial round trip, even specs",
        ok and elapsed < 30.0,
        f"100 polys x 3 specs, canonical sign, {elapsed:.1f}s",
    )


def test_criterion_4_pivot_sweep(report):
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        for m in range(1, 11):
            if n == m:
                continue
            spec = RatioSpec(n, m)
            for k in range(0, 21):
                for l in range(k + 1, k + 21):
                    first = n * beta_rational(k * (n - 1) + l + 1, k * m + 1)
                    second = m * beta_rational(k * (m - 1) + l + 1, k * n + 1)
                    if first - second != pivot_value(k, l, spec):
                        ok = False
                    if first == second:
                        ok = False
                    if (first / second > 1) != (n > m):
                        ok = False
    elapsed = time.perf_counter() - start
    report(
        "4 pivot sweep",
        ok and elapsed < 10.0,
        f"k<=20, l<=k+20, n,m<=10, {elapsed:.1f}s",
    )


def test_criterion_5_translation_invariance(report):
    delayed = delay(step_example(10), F(1, 4))
    recovered = shift_vanishing(delayed, F(1, 4))
    ok = True
    for n, m in [(2, 1), (3, 2)]:
        for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
            before = ratio_eval_piecewise(delayed, n, m, lam)
            after = ratio_eval_piecewise(recovered, n, m, lam)
            if not math.isclose(before, after, rel_tol=1e-10):
                ok = False
    report("5 translation invariance", ok, "step example shifted off [0, 1/4)")


def test_criterion_6_residual_equivalence(report):
    rng = random.Random(44100)
    specs = [RatioSpec(2, 1), RatioSpec(3, 2), RatioSpec(3, 1), RatioSpec(5, 2)]
    ok = True
    for i in range(100):
        f = random_poly(rng, max_degree=5)
        # mix in pairs that actually collide: identical, negated, scaled
        style = i % 4
        if style == 0:
            g = f
        elif style == 1:
            g = -f
        elif style == 2:
            g = 2 * f
        else:
            g = random_poly(rng, max_degree=5)
        spec = rng.choice(specs)
        lhs = verify_identity(f, g, spec)
        rhs = ratio_rational(f, spec.n, spec.m) == ratio_rational(g, spec.n, spec.m)
        if lhs != rhs:
            ok = False

    f = PiecewisePoly([0, 2], [Poly([0, 1, 1]), Poly([6])])
    for t in np.linspace(0.0, 3.0, 13):
        if abs(convolution_residual(f, f, 3, 2, float(t))) > 1e-12:
            ok = False
    report("6 residual equivalence", ok, "100 pairs + zero residual on t-grid")


def test_criterion_7_auction_closed_form(report):
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for theta in (0.5, 1.0, 2.0):
        for N in (2, 5, 10):
            model = AuctionModel(PointMass(0.0), Exponential(theta), N)
            for lam in (0.5, 1.0, 2.0, 5.0):
                err = abs(k_quadrature(model, lam, tol=1e-10) - theta / (theta + lam))
                worst = max(worst, err)
                if err > 1e-10:
                    ok = False
    model = AuctionModel(PointMass(0.0), Exponential(1.0), 5)
    table = simulate_bids(model, McConfig(1_000_000, seed=90210))
    est, se = k_monte_carlo(table, 1.0)
    mc_ok = abs(est - 0.5) <= 3 * se
    elapsed = time.perf_counter() - start
    report(
        "7 auction closed form",
        ok and mc_ok and elapsed < 60.0,
        f"worst quadrature error {worst:.2e}, MC off by {abs(est - 0.5) / se:.2f} se, {elapsed:.1f}s",
    )


def test_criterion_8_k_h_algebra(report):
    # the exponential law with rate theta has L{(1 - e^(-theta x))^j}(lam) =
    # B(lam/theta, j + 1) / theta and K = theta / (theta + lam); at
    # lam = a theta, K = 1 / (1 + a)
    rng = random.Random(777)
    ok = True
    for _ in range(1000):
        a, N = rng.randint(1, 20), rng.randint(2, 10)
        h = float(beta_rational(a, N) / beta_rational(a, N + 1))
        k = 1 / (1 + a)
        if not math.isclose(k_from_h(h, N), k, rel_tol=1e-12):
            ok = False
        if not math.isclose(h_from_k(k, N), h, rel_tol=1e-12):
            ok = False
        h = rng.uniform(1.0, 100.0)
        if not math.isclose(h_from_k(k_from_h(h, N), N), h, rel_tol=1e-12):
            ok = False
    report(
        "8 K-H algebra",
        ok,
        "1000 exponential laws' H and K convert to each other, 1000 random round trips, to 1e-12",
    )


def test_criterion_9_memoryless_identity(report):
    cfg = McConfig(100_000, seed=303)
    critical = 1.63 * math.sqrt(2 / cfg.samples)
    ok = True
    stats = []
    for N in (2, 3, 5):
        stat = memoryless_check(1.0, N, cfg)
        stats.append(stat)
        if stat >= critical:
            ok = False
    control = memoryless_check(1.0, 3, cfg, control=True)
    if control <= critical:
        ok = False
    report(
        "9 memoryless identity",
        ok,
        f"max stat {max(stats):.4f} < {critical:.4f} < control {control:.4f}",
    )


def test_criterion_10_common_value_invariance(report):
    idio = Lognormal(0.0, 1.0)
    table_a = simulate_bids(
        AuctionModel(PointMass(0.0), idio, 3), McConfig(1_000_000, seed=24601)
    )
    table_b = simulate_bids(
        AuctionModel(Exponential(1.0), idio, 3), McConfig(1_000_000, seed=24602)
    )
    est_a, se_a = k_monte_carlo(table_a, 1.0)
    est_b, se_b = k_monte_carlo(table_b, 1.0)
    gap = abs(est_a - est_b)
    bound = 3 * math.hypot(se_a, se_b)
    report(
        "10 common-value invariance",
        gap < bound,
        f"|{est_a:.6f} - {est_b:.6f}| = {gap:.2e} < {bound:.2e}",
    )
