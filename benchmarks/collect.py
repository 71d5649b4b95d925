"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/collect.py --workloads exact_recover cli_batch --seeds 1-10 \
        --out .bench_out/BENCH_local.json

For every workload and end-to-end metric it reports the median, the
quartiles (statistics.quantiles(values, n=4)), and the spread: the
distance between the quartiles as a share of the median.  A spread must
stay within the metric's bound in BENCHMARK.json for the benchmark to be
usable.  Runs one process at a time; each run's last stdout line is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write all runs and the summary to this JSON file")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            env = next((json.loads(l)["env"] for l in lines if l.startswith('{"env"')), None)
            runs.append({"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]), "env": env})
            print(f"{workload} seed {seed}: {lines[-1][:160]}", file=sys.stderr, flush=True)
        names = runs[0]["result"]["metrics"].keys()
        summary = {
            name: summarise([r["result"]["metrics"][name]["value"] for r in runs]) for name in names
        }
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        print(f"{workload:15s} run wall time: max {max(r['wall_s'] for r in runs):.1f} s, "
              f"mean {statistics.mean(r['wall_s'] for r in runs):.1f} s")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None:
                flag = "ok" if s["spread"] <= bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"{workload:15s} {name:20s} median {s['median']:.6g}  spread "
                  f"{s['spread'] if s['spread'] is None else round(s['spread'], 4)}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
