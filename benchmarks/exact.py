"""The two exact workloads: exact_recover and exact_verify.

exact_recover -- the paper's main inverse problem.  Each job takes a random
rational polynomial f of degree d with valuation k and runs
ratio_expansion -> fileformats document round trip through JSON text ->
identify, then checks that identify returns f exactly (up to the canonical
sign when n-m is even).  The strata cover d in {10, 20, 40}, k in {0, 3}
and (n, m) in {(2, 1), (5, 4), (1, 2)}.  identify takes about 90% of the
time here, which is what ROADMAP item 2 targets.  Loads: algebra
(truncated powers, series division), transforms.ratio_expansion,
fileformats.expansion_doc, identify.  Leaves alone: auction, numpy/scipy,
the float transforms, the CLI.

exact_verify -- checks facts whose answer is known: verify_identity(f, g)
on pairs built to be equal (g = f, or g = -f when n-m is even) and pairs
built to differ (g scaled or perturbed), and convolution_residual(f,
delay(f, a)), which must be exactly 0, against a delayed, scaled copy of f,
which must be nonzero with a known sign.  This path uses the same algebra
layer differently, through full Poly powers and convolve, so a
truncated-power change that speeds exact_recover cannot quietly slow the
full-power path, and convolve does not go unmeasured.  Loads: algebra
(full powers, convolve), identify.verify_identity,
transforms.convolution_residual.  Leaves alone: ratio_expansion, identify,
auction, the CLI.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial

from jobs import Job, Verdict, Workload
from spans import NullTracer

RECOVER_STRATA = [
    (d, k, nm) for d in (10, 20, 40) for k in (0, 3) for nm in ((2, 1), (5, 4), (1, 2))
]
VERIFY_PAIRS = ((2, 1), (5, 4), (3, 1))  # (3, 1): even difference, so g = -f is "equal"
RESIDUAL_PAIRS = ((2, 1), (3, 2))
PROBE_STRATA = [(10, 0, (2, 1))]


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q or not nonzero:
            return q


def random_poly(L, rng: random.Random, d: int, k: int):
    """Degree d, valuation k, coefficients p/q with |p|, q <= 9."""
    coeffs = [Fraction(0)] * k + [_rational(rng, nonzero=i in (k, d)) for i in range(k, d + 1)]
    return L.Poly(coeffs)


# ------------------------------------------------------------- exact_recover


def recover_job(L, ff, f, n: int, m: int, d: int) -> Job:
    k = f.valuation
    order = k * (n + m - 1) + d + 1  # the tail order identify requires
    spec = L.RatioSpec(n, m)

    def run(tr):
        with tr.span("transforms.ratio_expansion"):
            H = L.ratio_expansion(f, n, m, order)
        with tr.span("fileformats.expansion_doc"):
            text = json.dumps(ff.ratio_expansion_to_document(H))
            H2 = ff.ratio_expansion_from_document(json.loads(text))
        with tr.span("identify.identify", coeffs=d - k + 1):
            result = L.identify(H2, spec, d)
        return H, H2, result

    def check(out, ctx):
        H, H2, result = out
        canonical_ok = result.poly == f or (
            result.ambiguous_sign and (n - m) % 2 == 0 and result.poly == -f
        )
        return [
            Verdict(H2 == H, None, "document round trip changed the expansion"),
            Verdict(canonical_ok and result.k == k, None, "identify did not return f"),
        ]

    def probe(tr):
        # the algebra the expansion is made of, called on this job's input
        with tr.span("algebra.poly_pow"):
            fn = f ** n
        with tr.span("algebra.poly_pow"):
            fm = f ** m
        num = L.Series(
            [factorial(k * n + j) * fn.coefficient(k * n + j) for j in range(order + 1)], order
        )
        den = L.Series(
            [factorial(k * m + j) * fm.coefficient(k * m + j) for j in range(order + 1)], order
        )
        with tr.span("algebra.series_div"):
            tail = num / den
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in tail.coeffs)
        H = L.ratio_expansion(f, n, m, order)
        return {"ok": tail == H.tail, "tail_bits": bits}

    return Job("recover", f"d={d} k={k} nm={n},{m}", run, check, probe)


def recover_round(L, ff, rng: random.Random, strata=RECOVER_STRATA) -> list[Job]:
    return [recover_job(L, ff, random_poly(L, rng, d, k), n, m, d) for d, k, (n, m) in strata]


class ExactRecover(Workload):
    name = "exact_recover"
    ROUND_REF_S = 3.2

    def __init__(self, seed: int, workdir: str):
        import laplaceratio as L
        from laplaceratio import fileformats as ff

        self.L, self.ff, self.seed = L, ff, seed
        self.first = self.round(0)
        warm = random.Random(f"{self.name}:{seed}:warmup")
        for job in recover_round(L, ff, warm, PROBE_STRATA):
            job.check(job.run(NullTracer()), None)

    def round(self, index: int) -> list[Job]:
        return recover_round(self.L, self.ff, random.Random(f"{self.name}:{self.seed}:{index}"))


# -------------------------------------------------------------- exact_verify


def verify_job(L, f, g, n: int, m: int, expect: bool, label: str) -> Job:
    spec = L.RatioSpec(n, m)

    def run(tr):
        with tr.span("identify.verify_identity"):
            return L.verify_identity(f, g, spec)

    def check(out, ctx):
        return [Verdict(out is expect, None, f"verify_identity gave {out}, expected {expect}")]

    def probe(tr):
        with tr.span("algebra.poly_pow"):
            fn, gm = f ** n, g ** m
        with tr.span("algebra.poly_pow"):
            fm, gn = f ** m, g ** n
        with tr.span("algebra.convolve"):
            left = L.convolve(fn, gm)
        with tr.span("algebra.convolve"):
            right = L.convolve(fm, gn)
        return {"ok": (left == right) is expect}

    return Job("verify_identity", label, run, check, probe)


def step_function(L, rng: random.Random, pieces: int):
    """Positive step function: `pieces` steps of width j/4, then a constant tail."""
    bps = [Fraction(0)]
    for _ in range(pieces):
        bps.append(bps[-1] + Fraction(rng.randint(1, 8), 4))
    values = [L.Poly([Fraction(rng.randint(1, 9), rng.randint(1, 9))]) for _ in range(pieces + 1)]
    return L.PiecewisePoly(bps, values)


def residual_job(L, f, n: int, m: int, a: Fraction, scale: Fraction | None, ts, label) -> Job:
    """residual(f, delay(c*f, a)) = (c^m - c^n) * (f^n * f^m)(t - a): zero
    for c = 1, and for t > a nonzero with the sign of c^m - c^n, because
    f^n * f^m is positive for a positive f."""
    if scale is None:
        g = L.delay(f, a)
        sign = 0
    else:
        scaled = L.PiecewisePoly(f.breakpoints, [p * scale for p in f.pieces])
        g = L.delay(scaled, a)
        d = scale ** m - scale ** n
        sign = (d > 0) - (d < 0)

    def run(tr):
        values = []
        for t in ts:
            with tr.span("transforms.convolution_residual"):
                values.append(L.convolution_residual(f, g, n, m, t))
        return values

    def check(out, ctx):
        return [
            Verdict(
                isinstance(v, float) and (v > 0) - (v < 0) == sign,
                None,
                f"residual at t={t} is {v!r}, expected sign {sign}",
            )
            for t, v in zip(ts, out)
        ]

    return Job("convolution_residual", label, run, check)


def verify_round(
    L, rng, dims=(10, 20, 40), step_sizes=(4, 8), pairs=VERIFY_PAIRS, rpairs=RESIDUAL_PAIRS
) -> list[Job]:
    jobs = []
    for d in dims:
        for n, m in pairs:
            f = random_poly(L, rng, d, 0)
            g_equal = -f if (n - m) % 2 == 0 else f
            jobs.append(verify_job(L, f, g_equal, n, m, True, f"d={d} nm={n},{m} equal"))
            f = random_poly(L, rng, d, 0)
            if rng.random() < 0.5:
                g = f * Fraction(rng.choice((2, 3, 5)), rng.choice((1, 7)))
                how = "scaled"
            else:
                g = f + L.Poly.monomial(rng.randint(0, d), _rational(rng, nonzero=True))
                how = "perturbed"
            jobs.append(verify_job(L, f, g, n, m, False, f"d={d} nm={n},{m} {how}"))
    for pieces in step_sizes:
        for n, m in rpairs:
            f = step_function(L, rng, pieces)
            a = Fraction(rng.randint(1, 8), 4)
            ts = [a + f.breakpoints[-1] * Fraction(rng.randint(1, 99), 50) for _ in range(3)]
            label = f"pieces={pieces} nm={n},{m}"
            jobs.append(residual_job(L, f, n, m, a, None, ts, label + " equal"))
            c = Fraction(rng.choice((2, 3, 1)), rng.choice((3, 5, 7)))
            jobs.append(residual_job(L, f, n, m, a, c, ts, label + " scaled"))
    return jobs


SMALL_VERIFY = dict(dims=(10,), step_sizes=(4,), pairs=((2, 1),), rpairs=((2, 1),))


class ExactVerify(Workload):
    name = "exact_verify"
    ROUND_REF_S = 3.2

    def __init__(self, seed: int, workdir: str):
        import laplaceratio as L

        self.L, self.seed = L, seed
        self.first = self.round(0)
        warm = random.Random(f"{self.name}:{seed}:warmup")
        for job in verify_round(L, warm, **SMALL_VERIFY):
            job.check(job.run(NullTracer()), None)

    def round(self, index: int) -> list[Job]:
        return verify_round(self.L, random.Random(f"{self.name}:{self.seed}:{index}"))


def probe_jobs(seed: int, workdir: str) -> list[Job]:
    """One small job of each exact layer call, for the traced run's probe."""
    import laplaceratio as L
    from laplaceratio import fileformats as ff

    rng = random.Random(f"exact:{seed}:probe")
    return recover_round(L, ff, rng, PROBE_STRATA) + verify_round(L, rng, **SMALL_VERIFY)
