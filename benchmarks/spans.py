"""In-memory span recorder for the traced run.

A span is recorded around each public library call the benchmark makes:
its name, start, end, the span that encloses it, and the id of the job it
belongs to.  Spans stay in memory and are written out once, when the run
ends.  The untimed runs use NullTracer, which records nothing.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        self.tracer._stack.append(self.rec["id"])
        self.rec["start"] = perf_counter()
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job = None

    def span(self, name: str, **attrs) -> _Span:
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": None,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            **attrs,
        }
        self.spans.append(rec)
        return _Span(self, rec)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False
    job = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN


def self_times(spans: list[dict], clock) -> dict[str, list[tuple[float, dict]]]:
    """Per span name, the (self time, span) pairs: a span's duration minus
    the part of it that its child spans cover, in reference seconds
    (refclock.py) at the span's midpoint."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, list[tuple[float, dict]]] = defaultdict(list)
    for s in spans:
        if s["end"] is not None:
            own = s["end"] - s["start"] - child_time[s["id"]]
            out[s["name"]].append((own * clock.scale_at((s["start"] + s["end"]) / 2), s))
    return out
