"""Host-speed calibration: a frozen loop timed next to every measurement.

The benchmark runs on shared virtual machines whose speed drifts by
+-20% over tens of seconds, far more than the changes it has to resolve.
Drift hits interpreted simulation code and this loop alike, so each
sweep timing is divided by the time of this loop measured around it
and multiplied by :data:`REFERENCE_S`: a time is reported in seconds on
a host where the loop takes exactly that long.  The raw times are
reported alongside.  (The serving workload's time goes to sockets,
wake-ups and two processes, which this loop does not track;
``refserver.py`` is its yardstick.)

The loop belongs to the benchmark, not to the program: it must never
change with the code under test, or a gain would cancel itself.  It is
a small discrete-event loop (heap, dict updates, short-lived dicts), the
same instruction mix as the simulator.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: seconds one ``calibrate()`` loop takes on the reference host
REFERENCE_S = 0.04
_EVENTS = 30_000


def calibrate() -> float:
    """Seconds one pass of the frozen loop takes on this host, right now."""
    start = time.perf_counter()
    queue = [(i * 0.5, i, i % 8) for i in range(64)]
    heapq.heapify(queue)
    state: dict = {}
    seq = len(queue)
    for _ in range(_EVENTS):
        when, _, key = heapq.heappop(queue)
        state[key] = state.get(key, 0) + 1
        msg = {"src": key, "t": when, "n": state[key]}
        seq += 1
        heapq.heappush(queue, (when + 1.0 + (seq % 7) * 0.1, seq, (key + msg["n"]) % 8))
    return time.perf_counter() - start


class Timeline:
    """Calibration samples taken between consecutive measurements.

    ``mark()`` calibrates and returns the sample's index; a measurement
    taken between marks ``a`` and ``b`` is scaled by :meth:`factor`.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def mark(self) -> int:
        self.samples.append(calibrate())
        return len(self.samples) - 1

    def factor(self, before: int, after: int) -> float:
        """Reference seconds per host second around a measurement.

        The host's speed is the median of the samples from one mark before
        ``before`` to one after ``after``: wide enough that one noisy
        calibration does not swing the factor, narrow enough to follow
        drift over tens of seconds.
        """
        window = self.samples[max(0, before - 1):after + 2]
        return REFERENCE_S / statistics.median(window)
