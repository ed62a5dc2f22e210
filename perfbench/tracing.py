"""In-memory span tracer used by the benchmark's traced runs.

A span records its name, start, end, parent span and trace id.  Spans of
one grid point or one HTTP request share a trace id: a span opened with
``trace=...`` starts a new trace, every span opened beneath it inherits
it.  The current span lives in a :class:`contextvars.ContextVar`, so the
parent link holds across ``await`` in the serving event loop as well as
in plain synchronous code.

Hot layers are entered millions of times per sweep, so the tracer keeps
per-name aggregates (count, total and self time) for every span and a
full record only for the first ``keep`` spans, enough for a Chrome trace
of the run's opening stretch without holding millions of objects.
Self time is computed when a span closes: its duration minus the union
of its children's intervals (:func:`helpers.self_time`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time

from helpers import self_time

_clock = time.perf_counter


class _Span:
    __slots__ = ("name", "start", "trace", "sid", "parent", "children")

    def __init__(self, name, start, trace, sid, parent):
        self.name = name
        self.start = start
        self.trace = trace
        self.sid = sid
        self.parent = parent
        self.children = None


class Tracer:
    """Spans, counters and gauges of one process, kept in memory."""

    def __init__(self, keep: int = 50_000, durations_for=()) -> None:
        self.current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
        self.keep = keep
        self.records: list = []  # (name, start, end, sid, parent_sid, trace)
        self.dropped = 0
        self.spans = 0
        #: name -> [count, total_s, self_s]
        self.agg: dict = {}
        self.counters: dict = {}
        self.gauges: dict = {}
        #: names whose every duration is kept (for percentiles)
        self.durations: dict = {name: [] for name in durations_for}
        #: trace id -> duration of the root span that opened it
        self.trace_roots: dict = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------ recording

    def open(self, name: str, trace=None):
        parent = self.current.get()
        if trace is None and parent is not None:
            trace = parent.trace
        span = _Span(name, _clock(), trace, next(self._ids), parent)
        return span, self.current.set(span)

    def close(self, span, token, new_trace: bool = False) -> None:
        end = _clock()
        self.current.reset(token)
        start = span.start
        children = span.children
        own = end - start
        mine = own if not children else self_time(start, end, children)
        parent = span.parent
        if parent is not None:
            if parent.children is None:
                parent.children = [(start, end)]
            else:
                parent.children.append((start, end))
        entry = self.agg.get(span.name)
        if entry is None:
            self.agg[span.name] = [1, own, mine]
        else:
            entry[0] += 1
            entry[1] += own
            entry[2] += mine
        durations = self.durations.get(span.name)
        if durations is not None:
            durations.append(own)
        if new_trace:
            self.trace_roots[span.trace] = own
        self.spans += 1
        if len(self.records) < self.keep:
            self.records.append(
                (span.name, start, end, span.sid, parent.sid if parent else 0, span.trace)
            )
        else:
            self.dropped += 1

    # ------------------------------------------------------------- wrapping

    def wrap(self, fn, name: str, after=None, trace_of=None):
        """``fn`` inside a span called ``name``.

        ``after(result, args)`` runs once the span closed, for counts that
        need the call's outcome.  ``trace_of(args)`` returning a value opens
        a new trace with that id (a grid point, an HTTP request).
        """
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = trace_of(args) if trace_of is not None else None
            span, token = open_(name, trace)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span, token, new_trace=trace is not None)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def wrap_async(self, fn, name: str, trace_of=None):
        """Coroutine-function form of :meth:`wrap` (no ``after`` hook)."""
        open_, close = self.open, self.close

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            trace = trace_of(args) if trace_of is not None else None
            span, token = open_(name, trace)
            try:
                return await fn(*args, **kwargs)
            finally:
                close(span, token, new_trace=trace is not None)
        return wrapper

    def wrap_count(self, fn, name: str):
        """``fn`` counted under ``name`` without a span (cheap, for hot calls)."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------ readouts

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-able data."""
        return {
            "agg": self.agg,
            "counters": self.counters,
            "gauges": self.gauges,
            "durations": self.durations,
            "trace_roots": {str(k): v for k, v in self.trace_roots.items()},
            "records": self.records,
            "spans": self.spans,
            "dropped": self.dropped,
        }


def wrapper_cost_ns(iterations: int = 50_000) -> float:
    """Median extra nanoseconds one span wrapper adds to a call."""
    tracer = Tracer(keep=0)

    def noop(x):
        return x

    wrapped = tracer.wrap(noop, "calibrate")
    samples = []
    for _ in range(5):
        start = _clock()
        for i in range(iterations):
            noop(i)
        bare = _clock() - start
        start = _clock()
        for i in range(iterations):
            wrapped(i)
        samples.append((_clock() - start - bare) / iterations * 1e9)
    samples.sort()
    return samples[len(samples) // 2]


def chrome_trace(records_by_process: dict) -> dict:
    """Chrome trace-event JSON: one process per program, one lane per layer.

    ``records_by_process`` maps a process label to span records as kept by
    :class:`Tracer`.  Times are microseconds from the earliest span.
    """
    starts = [rec[1] for recs in records_by_process.values() for rec in recs]
    origin = min(starts) if starts else 0.0
    events = []
    lanes: dict = {}
    for pid, (label, records) in enumerate(sorted(records_by_process.items()), start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "args": {"name": label}})
        for name, start, end, sid, parent, trace in records:
            layer = name.split(".", 1)[0]
            tid = lanes.setdefault((pid, layer), len(lanes) + 1)
            events.append({
                "ph": "X", "name": name, "cat": layer, "pid": pid, "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": sid, "parent": parent, "trace": trace},
            })
    for (pid, layer), tid in lanes.items():
        events.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                       "args": {"name": layer}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
