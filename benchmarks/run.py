"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload exact_recover --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the library is imported from src/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, taken from a
separate traced run (see README.md in this directory).  Every time is in
reference seconds (refclock.py).  --seconds sets how many rounds of jobs
run: as many as take that long at the reference speed.  Spans, failures,
raw wall times and the run's environment go to .bench_out/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

from refclock import ProcessClock, RefClock

# one closed-loop client on a small machine: numpy/BLAS get one thread each
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "jobs_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

CLI_SUBCOMMANDS = ("ratio", "identify", "transform", "verify", "auction-k", "auction-identify", "selftest")

PER_LAYER = {
    "algebra.poly_pow.busy_s": "s",
    "algebra.series_div.busy_s": "s",
    "algebra.convolve.busy_s": "s",
    "algebra.tail_bits_max": "count",
    "transforms.ratio_expansion.busy_s": "s",
    "transforms.convolution_residual.busy_s": "s",
    "transforms.laplace_piecewise.per_call_s": "s",
    "transforms.ratio_eval_piecewise.busy_s": "s",
    "transforms.oracle_miss": "count",
    "identify.identify.busy_s": "s",
    "identify.per_coeff_s": "s",
    "identify.coeffs_recovered": "count",
    "identify.verify_identity.busy_s": "s",
    "auction.k_quadrature.per_lambda_s": "s",
    "auction.k_quadrature.failures": "count",
    "auction.k_quadrature.oracle_miss": "count",
    "auction.simulate_bids.rows_per_s": "rows/s",
    "auction.k_monte_carlo.busy_s": "s",
    "auction.memoryless_check.busy_s": "s",
    "fileformats.expansion_doc.busy_s": "s",
    "fileformats.save_samples.rows_per_s": "rows/s",
    "fileformats.load_samples.rows_per_s": "rows/s",
    "cli.import_s": "s",
    "cli.bare_python_s": "s",
    **{f"cli.main_inprocess_s.{sub}": "s" for sub in CLI_SUBCOMMANDS},
    "cli.bad_outcome": "count",
    "trace.traced_latency_p50_s": "s",
    "trace.overhead_s": "s",
}

# each traced run calls every layer once on small inputs, so that every
# per-layer metric is measured whatever the workload
PROBE_MODULES = ("exact", "floatpath", "clibatch")


# workload -> (module, class); a module is imported only when its workload runs.
# Each class states ROUND_REF_S, the reference seconds one of its rounds takes,
# and may name its reference clock in CLOCK (default RefClock).
WORKLOADS = {
    "exact_recover": ("exact", "ExactRecover"),
    "exact_verify": ("exact", "ExactVerify"),
    "float_pipeline": ("floatpath", "FloatPipeline"),
    "cli_batch": ("clibatch", "CliBatch"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name: str, seed: int, workdir: Path):
    """Import the library, build the first round of inputs through its
    public API, and warm up.  Returns (workload, reference seconds taken),
    scaled by process-clock samples taken just before and just after: the
    import, which is most of set-up, is work of the kind a fresh process
    does."""
    clock = ProcessClock()
    clock.sample()
    t0 = time.perf_counter()
    import laplaceratio  # noqa: F401  -- the import is part of set-up

    module, cls = WORKLOADS[name]
    wl = getattr(importlib.import_module(module), cls)(seed, str(workdir))
    t1 = time.perf_counter()
    clock.sample()
    return wl, (t1 - t0) * clock.median_scale()


def round_count(wl, seconds: float) -> int:
    """Rounds that take about `seconds` at the reference speed; at least one."""
    return max(1, math.ceil(seconds / wl.ROUND_REF_S - 0.5))


def child_setups(args, count: int) -> list[float]:
    """Set-up timed again in fresh processes: an import happens once per
    process, so repeating set-up means repeating the process."""
    out = []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(results) -> dict[str, float]:
    from jobs import mix_latency, stratified_ok_frac

    ok_frac = stratified_ok_frac(results)
    return {
        "latency_p50_s": mix_latency(results, 0.5),
        "latency_p90_s": mix_latency(results, 0.9),
        # correct jobs per second of the client's time in jobs, with the
        # mix's share of correct jobs so that a partly run cycle does not
        # shift it
        "jobs_per_s": len(results) / sum(r.latency for r in results) * ok_frac,
        "ok_frac": ok_frac,
    }


def per_layer(spans, results, counts, extra, clock) -> dict[str, float]:
    from spans import self_times

    st = self_times(spans, clock)

    def total(name):
        return sum(t for t, _ in st.get(name, ()))

    def mean(name):
        v = st.get(name, ())
        return total(name) / len(v) if v else 0.0

    def rows_per_s(name):
        t = total(name)
        return sum(s["rows"] for _, s in st.get(name, ())) / t if t else 0.0

    m = {
        name: mean(name[: -len(".busy_s")])
        for name in PER_LAYER
        if name.endswith(".busy_s")
    }
    m["transforms.laplace_piecewise.per_call_s"] = mean("transforms.laplace_piecewise")
    m["auction.k_quadrature.per_lambda_s"] = mean("auction.k_quadrature")
    for name in ("auction.simulate_bids", "fileformats.save_samples", "fileformats.load_samples"):
        m[name + ".rows_per_s"] = rows_per_s(name)
    coeffs = sum(s["coeffs"] for _, s in st.get("identify.identify", ()))
    m["identify.coeffs_recovered"] = coeffs
    m["identify.per_coeff_s"] = total("identify.identify") / coeffs if coeffs else 0.0
    bits = [r.probe_out["tail_bits"] for r in results if r.probe_out and "tail_bits" in r.probe_out]
    m["algebra.tail_bits_max"] = max(bits, default=0)
    by_sub = defaultdict(list)
    for t, s in st.get("cli.main_inprocess", ()):
        if not s["boundary"]:
            by_sub[s["sub"]].append(t)
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main_inprocess_s.{sub}"] = median(by_sub[sub]) if by_sub[sub] else 0.0
    for name in ("transforms.oracle_miss", "auction.k_quadrature.failures",
                 "auction.k_quadrature.oracle_miss", "cli.bad_outcome"):
        m[name] = counts.get(name, 0)
    m.update(extra)
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def failure_summary(results) -> dict:
    """Failed evaluations grouped by known-defect class (None = unexpected)."""
    out: dict[str, dict] = {}
    for r in results:
        for v in r.verdicts:
            if not v.ok:
                entry = out.setdefault(v.defect or "unexpected", {"count": 0, "examples": []})
                entry["count"] += 1
                if len(entry["examples"]) < 5:
                    entry["examples"].append(f"{r.job.kind} {r.job.label}: {v.detail}"[:400])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "laplaceratio" / "__init__.py").is_file():
        print(f"run.py: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # before anything imports numpy; subprocesses inherit these
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # the CLI subprocesses import the library from the same source tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    wl, setup_first = setup(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    import oracle
    from jobs import CheckContext, check_results, mix_latency, run_phase
    from spans import NullTracer, Tracer

    children = args.workload == "cli_batch"
    rounds = wl.rounds()
    count = round_count(wl, args.seconds)
    clock = getattr(wl, "CLOCK", RefClock)()
    tracer = Tracer()
    extra = {}
    if args.trace:
        # the same job stream, first untraced and then traced, half the rounds each
        half = max(1, math.ceil(count / 2 - 0.25))
        untraced = run_phase(rounds, half, NullTracer(), clock)
        traced = run_phase(rounds, half, tracer, clock, first_id=len(untraced))
        probes = []
        for module in PROBE_MODULES:
            probes += importlib.import_module(module).probe_jobs(args.seed, str(workdir))
        probe_results = run_phase(iter([probes]), 1, tracer, clock,
                                  first_id=len(untraced) + len(traced))
        from clibatch import import_times

        extra.update(import_times())
        results = untraced + traced + probe_results
        p50_plain = mix_latency(untraced, 0.5)
        p50_traced = mix_latency(traced, 0.5)
        extra["trace.traced_latency_p50_s"] = p50_traced
        extra["trace.overhead_s"] = p50_traced - p50_plain
    else:
        results = run_phase(rounds, count, NullTracer(), clock)
        rss = peak_rss_mb(children)

    OUT.mkdir(exist_ok=True)
    cache = oracle.OracleCache(str(OUT / "oracle-cache.json"))
    ctx = CheckContext(cache)
    if args.trace:
        # per-layer counters come from the traced phase and the probe only
        check_results(untraced, CheckContext(cache))
        check_results(traced + probe_results, ctx)
    else:
        check_results(results, ctx)
    cache.save()

    if args.trace:
        values = per_layer(tracer.spans, traced + probe_results, ctx.counts, extra, clock)
        units = PER_LAYER
    else:
        values = end_to_end(results)
        values["peak_rss_mb"] = rss
        values["setup_s"] = median([setup_first] + child_setups(args, 2))
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    failures = failure_summary(results)
    summary = {
        "correct": "unexpected" not in failures,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": metrics,
    }
    env = environment(args)
    env["ref_scale_median"] = clock.median_scale()
    env["ref_samples"] = len(clock.durations)
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {**summary, "env": env, "failures": failures,
              "latencies": [(r.job.kind, r.job.label, r.latency, r.end - r.start, r.ok)
                            for r in results]}
    record["ref_clock"] = list(zip(clock.times, clock.durations))
    if args.trace:
        record["spans"] = tracer.spans
    with open(runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)

    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for defect, entry in failures.items():
        print(f"failed evaluations [{defect}]: {entry['count']}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
