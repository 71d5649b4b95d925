"""The float_pipeline workload.

Each round holds four kinds of job:

- k_quadrature K-curves over a log lambda grid from 1e-2 to 1e3, for
  lognormal and shifted-point-mass idiosyncratic laws with N in
  {5, 50, 200};
- simulate_bids -> save_samples/load_samples CSV round trip ->
  k_monte_carlo at N in {5, 50}, the write path beside the reads;
- memoryless_check, on the exponential law and on its control;
- laplace_piecewise and ratio_eval_piecewise curves on seeded piecewise
  polynomials: degree up to 12, piece widths 1e-3 to 10, offsets 0 to 20,
  lambda 1e-3 to 1e3.

numpy/scipy do nearly all of this work and Fraction arithmetic almost
none, so it is the "does not move" side for every exact-path change, and
the "moves" side for ROADMAP item 3 and for quadrature and Monte Carlo
work.  Loads: auction, transforms' float half, fileformats' CSV path.
Leaves alone: identify, series division, the CLI.

Every round draws fresh inputs.  Lognormal laws are drawn from a catalogue
of 25 (mu, sigma) pairs whose 32-digit K values ship precomputed in
k_catalogue.json (built by `python3 benchmarks/oracle.py`), because the
oracle costs about 0.2 s per lambda; a pair recurs every few rounds, so a
change that caches K across calls would look somewhat faster here than it
is.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from statistics import NormalDist

from jobs import Job, Verdict, Workload, error_of
from spans import NullTracer

K_LAMBDAS = [10.0 ** e for e in range(-2, 4)]
LOGNORMAL_CATALOGUE = [(mu, sigma) for mu in (-1.0, -0.5, 0.0, 0.5, 1.0)
                       for sigma in (0.5, 0.75, 1.0, 1.25, 1.5)]
K_TOL = 1e-10  # k_quadrature's documented absolute accuracy
REL_TOL = 1e-10  # the piecewise transforms' documented relative accuracy
MC_ROWS = 20_000
# two-sample KS critical value at level 1e-6: sqrt(-ln(alpha/2)/2) * sqrt(2/n)
KS_CRIT = math.sqrt(-math.log(0.5e-6) / 2) * math.sqrt(2 / MC_ROWS)

# ROADMAP item 3 names these regimes; failures inside them are known.
DEFECT_UNDERFLOW = "k_quadrature: exact denominator transform below the double range"
# the mechanism behind "N=200 with large lambda": over [lo, lo + 25/lam], where
# lam*exp(-lam*x) has all but e^-25 of its mass, F^(N-1) is below the double
# range, so no unscaled double-precision integral of it can be right
DEFECT_UNSCALED = "k_quadrature: F^(N-1) below the double range where the weight sits"
# found while building this benchmark, not yet in ROADMAP: when the law's
# 1%-99% rise fills under 1% of [0, 25/lam], adaptive quadrature without a
# breakpoint there can step over it and return a wrong K with a small error
# estimate (mu=1, sigma=0.5, N=5, lam=0.01 gives 0.99305 for 0.99793)
DEFECT_NARROW = "k_quadrature: the law's 1%-99% rise fills under 1% of [0, 25/lam]"
Z99 = 2.3263478740408408  # standard normal 0.99 quantile
DEFECT_RECURRENCE = "piecewise: upward recurrence at lambda*width < degree+1"
DEFECT_ABSOLUTE = "piecewise: pieces integrated in absolute coordinates"
DEFECT_RATIO_UNDERFLOW = "piecewise: transform of f^m below the double range"


# ------------------------------------------------------------------ K-curves


def _log10_cdf_lognormal(mu: float, sigma: float, x: float) -> float:
    import mpmath as mp

    return float(mp.log10(mp.ncdf((mp.log(x) + mu) / sigma)))


def k_defect(model_desc, lam: float, log10_den: float) -> str | None:
    """The known-defect class a K evaluation lies in, from its input alone."""
    kind, a, b, N = model_desc
    if log10_den < -290:
        return DEFECT_UNDERFLOW
    if kind != "lognormal":
        return None
    if _log10_cdf_lognormal(a, b, 25 / lam) * (N - 1) < -300:
        return DEFECT_UNSCALED
    if math.exp(Z99 * b - a) - math.exp(-Z99 * b - a) < 0.25 / lam:
        return DEFECT_NARROW
    return None


def k_curve_job(L, model_desc, lambdas) -> Job:
    """model_desc: ("lognormal", mu, sigma, N) or ("point_mass", v, offset, N)."""
    kind, a, b, N = model_desc
    if kind == "lognormal":
        idio = L.Lognormal(a, b)
    else:
        idio = L.Shifted(L.PointMass(a), b)
    model = L.AuctionModel(L.Exponential(1.0), idio, N)

    def run(tr):
        out = []
        for lam in lambdas:
            with tr.span("auction.k_quadrature"):
                try:
                    out.append(L.k_quadrature(model, lam))
                except Exception as exc:
                    out.append(error_of(exc))
        return out

    def check(out, ctx):
        verdicts = []
        for lam, got in zip(lambdas, out):
            want, log10_den = ctx.oracle.k_reference(model_desc, lam)
            defect = k_defect(model_desc, lam, log10_den)
            if not isinstance(got, float):
                ctx.count("auction.k_quadrature.failures")
                verdicts.append(Verdict(False, defect, f"lam={lam}: raised {got.type}"))
                continue
            ok = math.isfinite(got) and abs(got - float(want)) <= K_TOL
            if not ok:
                ctx.count("auction.k_quadrature.oracle_miss")
            verdicts.append(Verdict(ok, defect, f"lam={lam}: {got!r} vs {float(want)!r}"))
        return verdicts

    return Job("k_curve", f"{kind} N={N}", run, check)


# -------------------------------------------------------------- Monte Carlo


def mc_lambda(model_desc) -> float:
    """The lambda of K_LAMBDAS nearest the inverse of the top bid's median.
    Far above it, exp(-lambda*top) is carried by rare draws where all N bids
    are small; 20 000 rows never see them, the estimate comes out low and its
    delta-method standard error cannot tell, so the 4-sigma check would test
    nothing."""
    kind, a, b, N = model_desc
    if kind == "exponential":
        return 1.0  # closed form at every lambda; the mean bid is about 1
    # median of the largest of N lognormal draws, plus the common part's (ln 2)
    z = NormalDist().inv_cdf(0.5 ** (1 / N))
    scale = math.exp(b * z - a) + math.log(2)
    return min(K_LAMBDAS, key=lambda lam: abs(math.log(lam * scale)))


def mc_job(L, ff, model_desc, mc_seed: int, csv_path: str) -> Job:
    """model_desc: ("exponential", theta, None, N) or ("lognormal", mu, sigma, N)."""
    import numpy as np

    kind, a, b, N = model_desc
    idio = L.Exponential(a) if kind == "exponential" else L.Lognormal(a, b)
    model = L.AuctionModel(L.Exponential(1.0), idio, N)
    cfg = L.McConfig(MC_ROWS, seed=mc_seed)
    lam = mc_lambda(model_desc)

    def run(tr):
        with tr.span("auction.simulate_bids", rows=MC_ROWS):
            table = L.simulate_bids(model, cfg)
        with tr.span("fileformats.save_samples", rows=MC_ROWS):
            ff.save_samples(csv_path, table)
        with tr.span("fileformats.load_samples", rows=MC_ROWS):
            loaded = ff.load_samples(csv_path)
        with tr.span("auction.k_monte_carlo"):
            est, se = L.k_monte_carlo(loaded, lam)
        return est, se, bool(np.array_equal(table, loaded))

    def check(out, ctx):
        est, se, same = out
        want, _ = ctx.oracle.k_reference(model_desc, lam)
        return [
            Verdict(same, None, "CSV round trip changed the sample table"),
            Verdict(
                math.isfinite(est) and 0 < se < 1 and abs(est - float(want)) < 4 * se,
                None,
                f"MC K {est!r} +- {se!r} vs {float(want)!r}",
            ),
        ]

    return Job("monte_carlo", f"{kind} N={N}", run, check)


def memoryless_job(L, theta: float, N: int, mc_seed: int, control: bool) -> Job:
    cfg = L.McConfig(MC_ROWS, seed=mc_seed)

    def run(tr):
        with tr.span("auction.memoryless_check"):
            return L.memoryless_check(theta, N, cfg, control=control)

    def check(out, ctx):
        ok = out > KS_CRIT if control else out < KS_CRIT
        return [Verdict(ok, None, f"KS statistic {out!r}, critical value {KS_CRIT!r}")]

    return Job("memoryless", f"N={N} control={control}", run, check)


# ----------------------------------------------------------------- piecewise


def random_piecewise(rng: random.Random, max_degree: int):
    """Local description [(start, width or None, q)] with f(x) = q(x - start)
    on each piece: an optional zero lead-in of length 0..20, one to three
    pieces with positive coefficients and widths 1e-3..10, and a positive
    constant tail."""
    desc = []
    start = Fraction(0)
    if rng.random() < 0.7:
        lead = Fraction(rng.randint(1, 160), 8)
        desc.append((start, lead, [Fraction(0)]))
        start += lead
    for _ in range(rng.randint(1, 3)):
        width = Fraction(max(1, round(1000 * 10 ** rng.uniform(-3, 1))), 1000)
        q = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, max_degree) + 1)]
        desc.append((start, width, q))
        start += width
    desc.append((start, None, [Fraction(rng.randint(1, 9), rng.randint(1, 9))]))
    return desc


def piecewise_from_desc(L, desc):
    bps = [start for start, _, _ in desc]
    pieces = [L.Poly(q).compose_linear(-start, 1) for start, _, q in desc]
    return L.PiecewisePoly(bps, pieces)


def piecewise_defects(desc, lam: float, power: int) -> list[str]:
    out = []
    for start, width, q in desc:
        if not any(q):
            continue
        degree = power * (len(q) - 1)
        if width is not None and lam * float(width) < degree + 1:
            out.append(DEFECT_RECURRENCE)
        if start > 0 and degree >= 1:
            out.append(DEFECT_ABSOLUTE)
    return out


def random_lambdas(rng: random.Random) -> list[float]:
    return [min(1e3, max(1e-3, 10.0 ** (e + rng.uniform(-0.5, 0.5)))) for e in range(-3, 4)]


def piecewise_job(L, desc, lambdas, nm) -> Job:
    pp = piecewise_from_desc(L, desc)
    name = "transforms.laplace_piecewise" if nm is None else "transforms.ratio_eval_piecewise"

    def run(tr):
        out = []
        for lam in lambdas:
            with tr.span(name):
                try:
                    if nm is None:
                        out.append(L.laplace_piecewise(pp, lam))
                    else:
                        out.append(L.ratio_eval_piecewise(pp, nm[0], nm[1], lam))
                except Exception as exc:
                    out.append(error_of(exc))
        return out

    def check(out, ctx):
        import oracle

        verdicts = []
        for lam, got in zip(lambdas, out):
            if nm is None:
                want = oracle.laplace_local(desc, lam)
                defects = piecewise_defects(desc, lam, 1)
            else:
                want = oracle.ratio_local(desc, nm[0], nm[1], lam)
                defects = piecewise_defects(desc, lam, nm[0]) + piecewise_defects(desc, lam, nm[1])
                if oracle.laplace_local(desc, lam, nm[1]) < 1e-300:
                    defects.append(DEFECT_RATIO_UNDERFLOW)
            defect = "; ".join(sorted(set(defects))) or None
            if not isinstance(got, float):
                ok = False
            elif abs(want) < oracle.DOUBLE_TINY:
                ok = abs(got) < oracle.DOUBLE_TINY  # the exact value underflows
            else:
                ok = math.isfinite(got) and abs(got - float(want)) <= REL_TOL * abs(float(want))
            if not ok:
                ctx.count("transforms.oracle_miss")
            verdicts.append(Verdict(ok, defect, f"lam={lam}: {got!r} vs {float(want)!r}"))
        return verdicts

    kind = "laplace_piecewise" if nm is None else "ratio_eval_piecewise"
    return Job(kind, f"pieces={len(desc)}", run, check)


# ------------------------------------------------------------------ workload


def round_models(rng: random.Random):
    """K-curve and Monte Carlo models for one round.  Lognormal laws come
    from LOGNORMAL_CATALOGUE, whose 32-digit K values ship precomputed in
    k_catalogue.json, so that every round can use fresh models."""
    k_models, mc_models = [], []
    for N in (5, 50, 200):
        k_models.append(("lognormal", *rng.choice(LOGNORMAL_CATALOGUE), N))
        k_models.append(("point_mass", rng.uniform(0, 2), rng.uniform(0, 3), N))
    for N in (5, 50):
        mc_models.append(("exponential", rng.uniform(0.5, 2), None, N))
        mc_models.append(("lognormal", *rng.choice(LOGNORMAL_CATALOGUE), N))
    return k_models, mc_models


def float_round(L, ff, rng, csv_path, small=False) -> list[Job]:
    """small: one cheap job of each kind, all with closed-form references,
    for warm-up and the layer probe."""
    k_models, mc_models = round_models(rng)
    if small:
        k_models, mc_models = k_models[1:2], mc_models[:1]
    jobs = [k_curve_job(L, desc, K_LAMBDAS) for desc in k_models]
    jobs += [mc_job(L, ff, desc, rng.getrandbits(63), csv_path) for desc in mc_models]
    theta, N = rng.uniform(0.5, 2), rng.choice((3, 10))
    for control in (False,) if small else (False, True):
        jobs.append(memoryless_job(L, theta, N, rng.getrandbits(63), control))
    curves = [(None, 12), ((2, 1), 6)] * (1 if small else 2)
    for nm, max_degree in curves:
        jobs.append(piecewise_job(L, random_piecewise(rng, max_degree), random_lambdas(rng), nm))
    return jobs


class FloatPipeline(Workload):
    name = "float_pipeline"
    ROUND_REF_S = 0.6

    def __init__(self, seed: int, workdir: str):
        import laplaceratio as L
        from laplaceratio import fileformats as ff

        self.L, self.ff, self.seed = L, ff, seed
        self.csv_path = os.path.join(workdir, "samples.csv")
        self.first = self.round(0)
        warm = random.Random(f"{self.name}:{seed}:warmup")
        for job in float_round(L, ff, warm, self.csv_path, small=True):
            job.run(NullTracer())

    def round(self, index: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        return float_round(self.L, self.ff, rng, self.csv_path)


def probe_jobs(seed: int, workdir: str) -> list[Job]:
    import laplaceratio as L
    from laplaceratio import fileformats as ff

    rng = random.Random(f"float:{seed}:probe")
    return float_round(L, ff, rng, os.path.join(workdir, "probe.csv"), small=True)
