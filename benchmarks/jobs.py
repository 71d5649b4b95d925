"""Jobs, the closed-loop runner, and the bookkeeping of checks.

One process acts as one closed-loop client: it starts a job, waits for it
to finish, then starts the next.  Jobs come in rounds; a round holds every
stratum of its workload once, so that whole rounds keep the mix of cheap
and expensive jobs the same from run to run.  A run's number of rounds
follows from --seconds alone, never from how fast the machine is, so the
same seed and seconds always run the same jobs and fail the same ones.
Between jobs the reference clock (refclock.py) is sampled, and every
job's time is reported scaled to the reference speed.

A job's output is checked after the timed region, so oracle work never
counts as job time.  A check yields one Verdict per evaluation.  A failed
evaluation that lies in a known-defect class (a regime README.md lists)
is counted as failed but does not make the run incorrect; any other
failed evaluation does.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from statistics import median, quantiles
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass
class JobError:
    """An exception a job raised, kept as its output."""

    type: str
    message: str


@dataclass
class Verdict:
    ok: bool
    defect: str | None = None  # known-defect class the evaluation lies in
    detail: str = ""


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[Any], Any]  # run(tracer) -> output
    check: Callable[[Any, Any], list[Verdict]]  # check(output, ctx) -> verdicts
    probe: Callable[[Any], dict] | None = None  # traced runs only: layer calls outside the job
    stratum: int | None = None  # position in the mix; defaults to the position in its round


class Workload:
    """Rounds of jobs: round 0 is built during set-up, later ones on demand
    from their own seeded stream, so a run's inputs do not depend on how
    many rounds it gets through."""

    first: list[Job]

    def round(self, index: int) -> list[Job]:
        raise NotImplementedError

    def rounds(self):
        yield self.first
        index = 1
        while True:
            yield self.round(index)
            index += 1


@dataclass
class Result:
    job: Job
    job_id: int
    output: Any
    start: float
    end: float
    stratum: int = 0
    latency: float = 0.0  # reference seconds, set by run_phase
    probe_out: dict | None = None
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.verdicts) and all(v.ok for v in self.verdicts)


def error_of(exc: Exception) -> JobError:
    return JobError(type(exc).__name__, str(exc))


def run_job(job: Job, job_id: int, tracer, stratum: int = 0) -> Result:
    tracer.job = job_id
    t0 = perf_counter()
    try:
        with tracer.span("job", kind=job.kind, label=job.label):
            output = job.run(tracer)
    except Exception as exc:  # a failing job never aborts the run
        output = error_of(exc)
        output.message += "\n" + traceback.format_exc(limit=3)
    t1 = perf_counter()
    probe_out = None
    if tracer.enabled and job.probe is not None and not isinstance(output, JobError):
        try:
            probe_out = job.probe(tracer)
        except Exception as exc:
            probe_out = {"error": error_of(exc)}
    tracer.job = None
    stratum = job.stratum if job.stratum is not None else stratum
    return Result(job, job_id, output, t0, t1, stratum, probe_out=probe_out)


def run_phase(rounds: Iterator[list[Job]], count: int, tracer, clock, first_id: int = 0):
    """Run the next `count` rounds, sampling the reference clock between
    jobs, and return their results with latencies in reference seconds."""
    results: list[Result] = []
    clock.sample()
    for _ in range(count):
        for pos, job in enumerate(next(rounds)):
            clock.tick()
            results.append(run_job(job, first_id + len(results), tracer, pos))
    clock.sample()
    for r in results:
        r.latency = clock.scaled(r.start, r.end)
    return results


def check_results(results: list[Result], ctx) -> None:
    for r in results:
        if isinstance(r.output, JobError):
            r.verdicts = [Verdict(False, None, f"raised {r.output.type}: {r.output.message}")]
            continue
        try:
            r.verdicts = r.job.check(r.output, ctx) or [Verdict(False, None, "no verdict")]
        except Exception as exc:
            r.verdicts = [Verdict(False, None, f"check raised {exc!r}")]
        if r.probe_out is not None and not r.probe_out.get("ok", False):
            r.verdicts.append(Verdict(False, None, f"layer probe disagrees: {r.probe_out}"))


class CheckContext:
    """What checks share: the oracle, and per-layer counters they bump."""

    def __init__(self, oracle_cache):
        self.oracle = oracle_cache
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def mix_latency(results: list[Result], q: float) -> float:
    """The q-quantile of job latency over the mix: each stratum counts once,
    at the median latency of its jobs.

    A round puts cheap and expensive strata side by side (in exact_recover
    the two (5, 4) d=40 strata are 2 of 18 jobs, and cost 20x the median),
    so a quantile of the raw latencies sits on the edge of a stratum and
    jumps with machine noise and with the number of rounds run.  Per-stratum
    medians are steady, and the mix has the same strata in every run."""
    by_stratum: dict[int, list[float]] = {}
    for r in results:
        by_stratum.setdefault(r.stratum, []).append(r.latency)
    values = sorted(median(v) for v in by_stratum.values())
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def stratified_ok_frac(results: list[Result]) -> float:
    """Share of the mix that succeeds, each stratum weighted equally, so a
    partly run cycle does not shift it.  With whole rounds it is simply the
    share of jobs that succeeded."""
    by_stratum: dict[int, list[bool]] = {}
    for r in results:
        by_stratum.setdefault(r.stratum, []).append(r.ok)
    return sum(sum(v) / len(v) for v in by_stratum.values()) / len(by_stratum)
