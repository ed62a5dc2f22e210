"""Tests of the benchmark's own helpers and output checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import asyncio
import statistics

import pytest

import helpers
import serving
import sweeps
import tracing


# ------------------------------------------------------------ percentiles


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert helpers.percentile(values, 50) == 50
    assert helpers.percentile(values, 99) == 99
    assert helpers.percentile(values, 100) == 100
    assert helpers.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        helpers.percentile([], 50)


def test_p99_needs_ten_samples_beyond_it():
    assert helpers.beyond(1000, 99) == 10
    assert helpers.has_tail(1000, 99)
    # 999 samples leave only 9 beyond the p99, but 49 beyond the p95
    assert not helpers.has_tail(999, 99)
    assert helpers.has_tail(999, 95)
    assert helpers.has_tail(100, 90) and not helpers.has_tail(99, 90)
    assert helpers.has_tail(20, 50) and not helpers.has_tail(19, 50)
    assert not helpers.has_tail(0, 50)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, q2, q3, spread = helpers.quartile_spread(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert spread == pytest.approx((q3 - q1) / q2)


# ------------------------------------------------------------ self time


def test_self_time_without_children_is_the_duration():
    assert helpers.self_time(1.0, 4.0, []) == pytest.approx(3.0)


def test_self_time_subtracts_disjoint_children():
    assert helpers.self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    # two concurrent children covering [2, 7] between them
    assert helpers.self_time(0.0, 10.0, [(2.0, 6.0), (4.0, 7.0)]) == pytest.approx(5.0)
    # a child nested inside another child's interval adds nothing
    assert helpers.self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    assert helpers.self_time(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0)]) == pytest.approx(8.0)
    assert helpers.self_time(0.0, 10.0, [(11.0, 12.0)]) == pytest.approx(10.0)


def test_tracer_self_time_with_nested_spans():
    tracer = tracing.Tracer()
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    tracing._clock, saved = (lambda: next(clock)), tracing._clock
    try:
        outer, t_outer = tracer.open("a.outer", trace="req-1")
        mid, t_mid = tracer.open("b.mid")  # 1.0
        inner, t_inner = tracer.open("c.inner")  # 2.0
        tracer.close(inner, t_inner)  # 3.0
        tracer.close(mid, t_mid)  # 4.0
        tracer.close(outer, t_outer, new_trace=True)  # 10.0
    finally:
        tracing._clock = saved
    # agg: name -> [count, total, self]
    assert tracer.agg["c.inner"] == [1, pytest.approx(1.0), pytest.approx(1.0)]
    assert tracer.agg["b.mid"] == [1, pytest.approx(3.0), pytest.approx(2.0)]
    assert tracer.agg["a.outer"] == [1, pytest.approx(10.0), pytest.approx(7.0)]
    assert {rec[5] for rec in tracer.records} == {"req-1"}
    assert tracer.trace_roots == {"req-1": pytest.approx(10.0)}


def test_tracer_links_spans_across_await():
    tracer = tracing.Tracer()

    async def child():
        await asyncio.sleep(0)

    async def parent():
        await traced_child()

    traced_child = tracer.wrap_async(child, "b.child")
    traced_parent = tracer.wrap_async(parent, "a.parent", trace_of=lambda args: "t1")
    asyncio.run(traced_parent())
    by_name = {rec[0]: rec for rec in tracer.records}
    assert by_name["b.child"][4] == by_name["a.parent"][3]
    assert by_name["b.child"][5] == "t1"


# ------------------------------------------------------------ open loop


def test_latency_runs_from_the_due_time_and_lag_is_generator_lateness():
    # due, dispatched, done: the second request was queued 3 ms late
    records = [(0.000, 0.000, 0.002), (0.010, 0.013, 0.020), (0.020, 0.019, 0.021)]
    acc = helpers.open_loop_accounting(records)
    assert acc["latencies"] == pytest.approx([0.002, 0.010, 0.001])
    assert acc["lags"] == pytest.approx([0.0, 0.003, 0.0])


def test_rung_keeps_up_needs_every_request_at_the_offered_rate():
    assert helpers.rung_keeps_up(100, 100, 0.0, 1.0, rate=100)
    assert not helpers.rung_keeps_up(100, 99, 0.0, 1.0, rate=100)
    # a backlog: 100 requests offered in 1 s took 2 s to complete
    assert not helpers.rung_keeps_up(100, 100, 0.0, 2.0, rate=100)


def test_max_rps_slo_stops_at_the_first_miss():
    rungs = [
        {"rate": 400, "read_p99_ms": 9.0, "keeps_up": True},
        {"rate": 200, "read_p99_ms": 8.0, "keeps_up": True},
        {"rate": 800, "read_p99_ms": 25.0, "keeps_up": True},
        {"rate": 1200, "read_p99_ms": 12.0, "keeps_up": True},  # lucky, above a miss
    ]
    assert helpers.max_rps_slo(rungs, slo_ms=20.0) == 400.0
    rungs[2]["read_p99_ms"] = 19.0
    assert helpers.max_rps_slo(rungs, slo_ms=20.0) == 1200.0
    rungs[0]["keeps_up"] = False
    assert helpers.max_rps_slo(rungs, slo_ms=20.0) == 200.0
    rungs[1]["read_p99_ms"] = None
    assert helpers.max_rps_slo(rungs, slo_ms=20.0) == 0.0


# ------------------------------------------------------------ output checks


def test_sweep_check_fires_on_a_corrupted_point_value():
    good = [helpers.digest({"lost": 1.5}), helpers.digest({"lost": 2.5})]
    checks = sweeps._Checks()
    checks.add("fig8", good)
    checks.add("fig8", list(good))
    assert checks.failed() == 0
    checks.add("fig8", [good[0], helpers.digest({"lost": 2.5000001})])
    assert checks.failed() == 1


def _outcome(kind, seed, body, source="hot", status=200):
    outcome = serving.Outcome(serving.Request(kind, seed), "t")
    outcome.status, outcome.source, outcome.body = status, source, body
    return outcome


def _body(seed, value):
    return (helpers.canonical_json({"experiment": "table1", "key": "k", "params": {"seed": seed},
                                    "value": value}) + "\n").encode()


def test_serve_check_passes_identical_bodies_across_tiers():
    expected = {7: {"msgs": [1, 2]}}
    body = _body(7, {"msgs": [1, 2]})
    outcomes = [_outcome("write", 7, body, "computed"), _outcome("read", 7, body, "hot"),
                _outcome("verify", 7, body, "disk")]
    assert serving.check_outcomes(outcomes, expected) == 0


def test_serve_check_fires_on_a_corrupted_body_or_value():
    expected = {7: {"msgs": [1, 2]}}
    good = _body(7, {"msgs": [1, 2]})
    corrupt = _body(7, {"msgs": [1, 3]})
    outcomes = [_outcome("read", 7, good, "hot"), _outcome("read", 7, corrupt, "disk")]
    assert serving.check_outcomes(outcomes, expected) == 2  # differs, and wrong value
    # consistent across tiers but not the value the point computes
    assert serving.check_outcomes([_outcome("read", 7, corrupt, "disk")], expected) == 1
    # one byte of whitespace is already a different body
    assert serving.check_outcomes([_outcome("read", 7, good), _outcome("read", 7, good + b" ")],
                                  expected) == 1


def test_serve_check_counts_refusals_and_cached_writes():
    expected = {7: 1}
    body = _body(7, 1)
    assert serving.check_outcomes([_outcome("read", 7, b"{}", status=429)], expected) == 1
    assert serving.check_outcomes([_outcome("write", 7, body, "hot")], expected) == 1


def _chunk(latencies_ms, cpu_s):
    outcomes = []
    for i, ms in enumerate(latencies_ms):
        outcome = _outcome("read", i, b"")
        outcome.due, outcome.done = 10.0, 10.0 + ms / 1e3
        outcomes.append(outcome)
    return serving.Chunk(outcomes, cpu_s)


def test_serve_figures_are_median_ratios_to_the_reference_server():
    # the host slows down in the second pair: both servers take twice as long
    pairs = [(_chunk([1.0, 2.0, 3.0], 0.003), _chunk([0.5, 1.0, 1.5], 0.0015)),
             (_chunk([2.0, 4.0, 6.0], 0.006), _chunk([1.0, 2.0, 3.0], 0.003)),
             (_chunk([9.0, 9.0, 9.0], 0.030), _chunk([1.0, 1.0, 1.0], 0.001))]
    assert pairs[0][0].cpu_ms == pytest.approx(1.0)
    assert pairs[1][0].read_p50_ms == pytest.approx(4.0)
    # ratios 2, 2 and 30 (cpu) / 2, 2 and 9 (p50): the outlier pair does not move the median
    assert serving.relative(pairs, "cpu_ms", 0.25) == pytest.approx(0.5)
    assert serving.relative(pairs, "read_p50_ms", 1.5) == pytest.approx(3.0)


def test_reference_server_bodies_are_deterministic(tmp_path):
    import refserver

    refserver._populate(tmp_path)
    first = refserver.render(tmp_path, "/experiments/table1/points?scale=tiny&seed=3")
    assert first == refserver.render(tmp_path, "/experiments/table1/points?scale=tiny&seed=3")
    assert first != refserver.render(tmp_path, "/experiments/table1/points?scale=tiny&seed=4")


# ------------------------------------------------------------ known defect


@pytest.mark.xfail(raises=KeyError, strict=True,
                   reason="mtbf points with no rollback read a missing 'total'; "
                          "add mtbf back to sweep-families once this passes")
def test_mtbf_point_without_rollback():
    from repro.experiments import registry

    experiment = registry.get("mtbf")
    experiment.point(experiment.build_grid({"seed": 13})[0])


# ------------------------------------------------------------ calibration


def test_calibration_factor_is_a_rolling_median_around_the_measurement():
    import calibration

    timeline = calibration.Timeline()
    timeline.samples = [0.04, 0.05, 0.04, 0.08, 0.04]
    ref = calibration.REFERENCE_S
    assert timeline.factor(0, 1) == pytest.approx(ref / 0.04)  # window [0.04, 0.05, 0.04]
    # one slow sample next to the measurement moves the factor only halfway
    assert timeline.factor(2, 3) == pytest.approx(ref / 0.045)
    # window [0.04, 0.08, 0.04]: the single slow sample is outvoted
    assert timeline.factor(3, 4) == pytest.approx(ref / 0.04)
