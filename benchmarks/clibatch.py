"""The cli_batch workload, and the in-process CLI probe every traced run makes.

Each job is one subprocess call of `python -m laplaceratio.cli`.  The mix
covers ratio --builtin sin, identify, transform, verify, auction-k
--lambda-grid, auction-identify and selftest, plus a fixed share (4 of 11)
of boundary or malformed inputs from ROADMAP item 3: a tiny lambda, NaN in
the model JSON, and a bad grid.  A valid call must exit 0 with finite,
correct output; a boundary call must exit 1 or 2 with a typed
"Name: message" on stderr.  Neither may print a traceback.

About 1.0 s of each 1.0-1.7 s call is interpreter start plus importing
scipy through `auction`, against 0.05 s for a bare `python`, so this is the
only workload where ROADMAP item 4 (lazy imports) shows; everywhere else
imports are paid inside setup_s.  Loads: cli, process start, imports.
Leaves alone: little; every subcommand's own work is small.

Since every call costs about the same, a round here is a single call, taken
in turn from the 11-call cycle.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import traceback
from fractions import Fraction
from math import factorial
from statistics import median
from time import perf_counter

from jobs import Job, Verdict
from refclock import ProcessClock

TYPED_LINE = re.compile(r"^[A-Z][A-Za-z]*: \S")
NON_FINITE = re.compile(r"(?i)\b(nan|-?inf(inity)?)\b")
SELFTEST_LINE = re.compile(r"^(\d+)/\1 checks passed$")
K_TOL = 1e-10

DEFECT_TINY_LAMBDA = "cli: tiny lambda gives a traceback or nan"
DEFECT_NAN_MODEL = "cli: NaN in model JSON passes validation"

CALL_TIMEOUT_S = 120


def _write(path, doc, raw: str | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(raw if raw is not None else json.dumps(doc))


def sin_tail(order: int) -> list[str]:
    """Tail of the closed form 2(l^2+1)/(l(l^2+4)) = l^-1 * 2(1+u^2)/(1+4u^2),
    u = 1/l: coefficients 2, then -6*(-4)^(i-1) at u^(2i)."""
    out = []
    for j in range(order + 1):
        if j == 0:
            out.append("2")
        elif j % 2:
            out.append("0")
        else:
            out.append(str(-6 * (-4) ** (j // 2 - 1)))
    return out


def _rows(stdout: str, header: str):
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


class Call:
    """One CLI invocation: its argv, and how to judge the outcome."""

    def __init__(self, sub, argv, content=None, boundary=False, defect=None):
        self.sub = sub
        self.argv = argv
        self.content = content  # content(stdout, ctx) -> list[Verdict], valid calls only
        self.boundary = boundary
        self.defect = defect

    def judge(self, code, stdout: str, stderr: str, ctx) -> list[Verdict]:
        bad = None
        if "Traceback" in stderr:
            bad = "printed a traceback"
        elif NON_FINITE.search(stdout):
            bad = "non-finite value in output"
        elif self.boundary:
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            if code not in (1, 2) or not TYPED_LINE.match(last):
                bad = f"exit {code}, stderr {last!r}: expected exit 1/2 with a typed message"
        elif code != 0:
            bad = f"exit {code}: {stderr.strip()[-200:]!r}"
        if bad is not None:
            ctx.count("cli.bad_outcome")
            return [Verdict(False, self.defect, f"{self.sub}: {bad}")]
        if self.content is None:
            return [Verdict(True)]
        try:
            verdicts = self.content(stdout, ctx)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            verdicts = [Verdict(False, None, f"{self.sub}: unparsable output ({exc})")]
        if not all(v.ok for v in verdicts):
            ctx.count("cli.bad_outcome")
        return verdicts


def build_calls(L, ff, seed: int, workdir: str) -> list[Call]:
    """Write the input documents for one seed through the public API and
    return the 11-call cycle."""
    rng = random.Random(f"cli_batch:{seed}:inputs")

    def path(name):
        return os.path.join(workdir, name)

    f = L.Poly([Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(4, 6) + 1)])
    _write(path("f.json"), ff.function_to_document(f))
    equal = rng.random() < 0.5
    g = -f if equal else f + L.Poly.monomial(rng.randint(0, f.degree), 1)
    _write(path("g.json"), ff.function_to_document(g))

    n, m = rng.choice(((2, 1), (3, 1)))
    p = L.Poly([Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(7)])
    H = L.ratio_expansion(p, n, m, p.degree + 1)
    _write(path("H.json"), ff.ratio_expansion_to_document(H))
    canonical = p if (n - m) % 2 or p.coeffs[0] > 0 else -p

    N = rng.choice((3, 5))
    k = rng.choice((0, 1))
    germ = L.Poly([0] * k + [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4 - k)])
    HK = L.ratio_expansion(germ, N - 1, N, k * (2 * N - 2) + germ.degree + 1)
    _write(path("HK.json"), ff.ratio_expansion_to_document(HK))

    mu, sigma = rng.uniform(-1, 1), rng.uniform(0.5, 1.5)
    ln_model = {
        "common": {"kind": "exponential", "theta": 1.0},
        "idiosyncratic": {"kind": "lognormal", "mu": mu, "sigma": sigma},
        "N": 5,
    }
    _write(path("ln.json"), ln_model)
    ff.model_from_document(ln_model)  # the model must be valid
    _write(
        path("nan.json"),
        None,
        '{"common": {"kind": "exponential", "theta": 1.0},'
        ' "idiosyncratic": {"kind": "point_mass", "v": NaN}, "N": 5}',
    )

    order = rng.randint(6, 14)

    def ratio_sin(out, ctx):
        doc = json.loads(out)
        return [Verdict(doc["lead"] == -1 and doc["tail"] == sin_tail(order), None, "sin tail")]

    def identify(out, ctx):
        doc = json.loads(out)
        ok = (
            doc["coeffs"] == [str(c) for c in canonical.coeffs]
            and doc["k"] == 0
            and doc["ambiguous_sign"] == ((n - m) % 2 == 0)
        )
        return [Verdict(ok, None, f"identify gave {doc}")]

    def transform(out, ctx):
        rows = _rows(out, "lambda,value")
        verdicts = [Verdict(len(rows) == 8, None, "expected 8 rows")]
        for lam, value in rows:
            lq = Fraction(lam)
            want = float(sum(factorial(i) * c / lq ** (i + 1) for i, c in enumerate(f.coeffs)))
            verdicts.append(
                Verdict(abs(value - want) <= 1e-10 * abs(want), None, f"transform at {lam}")
            )
        return verdicts

    def verify(out, ctx):
        doc = json.loads(out)
        return [Verdict(doc == {"equal": equal, "n": 3, "m": 1}, None, f"verify gave {doc}")]

    def auction_k(out, ctx):
        from floatpath import k_defect

        rows = _rows(out, "lambda,k")
        verdicts = [Verdict(len(rows) == 8, None, "expected 8 rows")]
        desc = ("lognormal", mu, sigma, 5)
        for lam, k_val in rows:
            want, log10_den = ctx.oracle.k_reference(desc, lam)
            verdicts.append(Verdict(abs(k_val - float(want)) <= K_TOL,
                                    k_defect(desc, lam, log10_den), f"K at {lam}"))
        return verdicts

    def auction_identify(out, ctx):
        doc = json.loads(out)
        ok = doc["coeffs"] == [str(c) for c in germ.coeffs] and not doc["ambiguous_sign"]
        return [Verdict(ok, None, f"auction-identify gave {doc}")]

    def selftest(out, ctx):
        lines = out.strip().splitlines()
        ok = bool(lines) and SELFTEST_LINE.match(lines[-1]) and "FAIL" not in out
        return [Verdict(bool(ok), None, "selftest reported a failure")]

    bad_grid = rng.choice(("1:0:5", "a:b", "0:10:5", "1:10:0"))
    return [
        Call("ratio", ["ratio", "--builtin", "sin", "--n", "2", "--m", "1", "--order", str(order)], ratio_sin),
        Call("identify", ["identify", "--input", path("H.json"), "--n", str(n), "--m", str(m), "--target-degree", str(p.degree)], identify),
        Call("transform", ["transform", "--input", path("f.json"), "--lambda-grid", "0.5:10:8"], transform),
        Call("verify", ["verify", "--input", path("f.json"), "--input", path("g.json"), "--n", "3", "--m", "1"], verify),
        Call("auction-k", ["auction-k", "--model", path("ln.json"), "--lambda-grid", "0.1:10:8"], auction_k),
        Call("auction-identify", ["auction-identify", "--input", path("HK.json"), "--n", str(N), "--target-degree", str(germ.degree)], auction_identify),
        Call("selftest", ["selftest"], selftest),
        Call("transform", ["transform", "--input", path("f.json"), "--lambda", "1e-300"], boundary=True, defect=DEFECT_TINY_LAMBDA),
        Call("ratio", ["ratio", "--builtin", "step_example", "--n", "2", "--m", "1", "--lambda", "1e-320"], boundary=True, defect=DEFECT_TINY_LAMBDA),
        Call("auction-sim", ["auction-sim", "--model", path("nan.json"), "--samples", "100", "--seed", str(seed)], boundary=True, defect=DEFECT_NAN_MODEL),
        Call("auction-k", ["auction-k", "--model", path("ln.json"), "--lambda-grid", bad_grid], boundary=True),
    ]


def run_cli(argv, timeout=CALL_TIMEOUT_S):
    """One subprocess call; returns (exit code or None on timeout, stdout, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "laplaceratio.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err + "\ntimed out"
    return proc.returncode, out, err


def subprocess_job(call: Call, stratum: int) -> Job:
    def run(tr):
        with tr.span("cli.subprocess", sub=call.sub):
            return run_cli(call.argv)

    def check(out, ctx):
        return call.judge(*out, ctx)

    return Job("cli", call.sub + (" boundary" if call.boundary else ""), run, check, stratum=stratum)


def main_inprocess(argv):
    """cli.main(argv) in this process, output captured: the subcommand's
    work without interpreter start or imports."""
    from laplaceratio import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def inprocess_job(call: Call) -> Job:
    def run(tr):
        with tr.span("cli.main_inprocess", sub=call.sub, boundary=call.boundary):
            return main_inprocess(call.argv)

    def check(out, ctx):
        return call.judge(*out, ctx)

    return Job("cli_inprocess", call.sub, run, check)


def import_times(repeats: int = 3) -> dict[str, float]:
    """Median time of a bare interpreter and of `import laplaceratio` in a
    fresh one, in reference seconds of the process clock; the difference is
    the package's import cost."""
    clock = ProcessClock()
    spans = []
    for code in ("pass", "import laplaceratio") * repeats:
        clock.sample()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        spans.append((code, t0, perf_counter()))
    clock.sample()

    def wall(code):
        return median(clock.scaled(t0, t1) for c, t0, t1 in spans if c == code)

    bare = wall("pass")
    full = wall("import laplaceratio")
    return {"cli.bare_python_s": bare, "cli.import_s": full - bare}


class CliBatch:
    name = "cli_batch"
    ROUND_REF_S = 0.85  # one call
    CLOCK = ProcessClock  # each job is a fresh process

    def __init__(self, seed: int, workdir: str):
        import laplaceratio as L
        from laplaceratio import fileformats as ff

        self.calls = build_calls(L, ff, seed, workdir)
        self.order = list(range(len(self.calls)))
        random.Random(f"cli_batch:{seed}:order").shuffle(self.order)

    def rounds(self):
        while True:
            for i in self.order:
                yield [subprocess_job(self.calls[i], i)]


def probe_jobs(seed: int, workdir: str) -> list[Job]:
    """Every call of the cycle, run in-process through cli.main."""
    import laplaceratio as L
    from laplaceratio import fileformats as ff

    return [inprocess_job(c) for c in build_calls(L, ff, seed, workdir)]
