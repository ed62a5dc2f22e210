"""Pure helpers of the benchmark: percentiles, self time, open-loop accounting.

Nothing here touches the program under test, the clock or the file
system, so every function is covered by ``perfbench/tests``.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in (0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``-th."""
    return n - max(1, math.ceil(q / 100.0 * n))


def has_tail(n: int, q: float, min_beyond: int = 10) -> bool:
    """Whether ``n`` samples leave at least ``min_beyond`` above percentile ``q``."""
    return n > 0 and beyond(n, q) >= min_beyond


def quartile_spread(values) -> tuple:
    """``(q1, median, q3, (q3 - q1) / median)`` as ``statistics.quantiles`` gives
    them; the spread is ``None`` for a zero median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, ((q3 - q1) / q2 if q2 else None)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for start, end in intervals if end > lo and start < hi
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children's intervals cover.

    Children may nest, overlap each other or stick out of the parent
    (a child still running when the parent returned); only the covered
    part of ``[start, end]`` is subtracted, once.
    """
    return (end - start) - union_length(children, start, end)


def open_loop_accounting(records) -> dict:
    """Latency and generator lag of an open-loop schedule.

    Each record is ``(due, dispatched, done)``: when the request was due,
    when the generator got round to queueing it and when its response
    finished.  Latency runs from the due time, so a stall also charges
    every request that was due behind it; lag is how late the generator
    itself was.
    """
    latencies = [done - due for due, _, done in records]
    lags = [max(0.0, dispatched - due) for due, dispatched, _ in records]
    return {"latencies": latencies, "lags": lags}


def rung_keeps_up(offered: int, completed: int, first_due: float, last_done: float,
                  rate: float, min_share: float = 0.95) -> bool:
    """Whether a rung completed every offered request at (nearly) the offered rate."""
    if completed < offered or offered == 0:
        return False
    span = last_done - first_due
    return span > 0 and completed / span >= min_share * rate


def max_rps_slo(rungs, slo_ms: float) -> float:
    """Highest ladder rate met before the first rung that misses the SLO.

    ``rungs`` are dicts with ``rate``, ``read_p99_ms`` and ``keeps_up``.
    Walking the ladder upwards stops at the first miss, so a lucky rung
    above a failing one never counts.  0.0 when the lowest rung misses.
    """
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        if rung["read_p99_ms"] is None or rung["read_p99_ms"] > slo_ms or not rung["keeps_up"]:
            break
        best = float(rung["rate"])
    return best


def canonical_json(value) -> str:
    """Deterministic JSON text of a point value (sorted keys, tight separators)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def digest(data) -> str:
    """SHA-256 hex digest of bytes, or of a value's canonical JSON."""
    if not isinstance(data, (bytes, bytearray)):
        data = canonical_json(data).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def mismatches(observations) -> int:
    """Observations that disagree with the first one seen for their key.

    ``observations`` is an iterable of ``(key, digest)``; every digest of a
    key after the first that differs from it counts once.
    """
    first: dict = {}
    bad = 0
    for key, value in observations:
        expected = first.setdefault(key, value)
        if value != expected:
            bad += 1
    return bad
