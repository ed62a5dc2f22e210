"""Wrappers around each layer's public functions, and the per-layer metrics.

Everything here patches classes of the program from the outside; nothing
under ``src/`` knows about it.  :func:`install` puts the wrappers in and
returns a function that takes them out again, so one process can run an
untraced pass and a traced pass of the same sweep back to back.

Layers are the program's own packages: ``sim`` (kernel), ``network``
(fabric), ``cluster`` (node runtime), ``core`` (the HC3I protocol),
``baselines`` (the other checkpointing families), ``experiments``
(grid, point, cache, reduce) and ``serve`` (HTTP tiers).
"""

from __future__ import annotations

import dataclasses

from helpers import percentile

#: HTTP header that carries a request's trace id into the server
TRACE_HEADER = "x-perfbench-trace"

#: agent classes of the five families that do not reuse the HC3I agent
#: (cic-always and hc3i-transitive run Hc3iNodeAgent, so they count as core)
BASELINE_AGENTS = (
    ("repro.baselines.independent", "IndependentAgent"),
    ("repro.baselines.pessimistic_log", "PessimisticAgent"),
    ("repro.baselines.clc_cic", "CicAgent"),
    ("repro.baselines.global_coordinated", "GlobalAgent"),
    ("repro.baselines.min_process_coordinated", "MinProcAgent"),
)


class _Patches:
    """Class attributes replaced so far, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def count_events(counter: list):
    """Add every ``Simulator.run``'s dispatched events to ``counter[0]``.

    The only hook of an untraced run: one extra call per ``run``, so the
    event count behind ``work_per_s`` is exact without tracing.
    Returns the undo function.
    """
    from repro.sim.kernel import Simulator

    patches = _Patches()
    original = Simulator.run

    def run(self, until=None):
        before = self._processed
        try:
            return original(self, until)
        finally:
            counter[0] += self._processed - before

    patches.set(Simulator, "run", run)
    return patches.undo


def install(tracer, serve: bool = False):
    """Wrap every layer's public entry points; returns the undo function."""
    import importlib

    from repro.cluster.node import Node
    from repro.core.garbage import CentralizedGarbageCollector, DistributedGarbageCollector
    from repro.core.hc3i import ClcCoordinator, Hc3iNodeAgent
    from repro.core.rollback import Hc3iRecoveryManager
    from repro.experiments.cache import ResultCache
    from repro.experiments.registry import Experiment
    from repro.network.fabric import Fabric
    from repro.sim.kernel import Simulator

    patches = _Patches()
    wrap, count = tracer.wrap, tracer.wrap_count
    counters, gauges = tracer.counters, tracer.gauges

    def span(owner, attr, name, **kwargs):
        patches.set(owner, attr, wrap(owner.__dict__[attr], name, **kwargs))

    def counted(owner, attr, name):
        patches.set(owner, attr, count(owner.__dict__[attr], name))

    # sim: run spans (events exact from `processed`), schedule counts
    run = Simulator.run
    open_, close = tracer.open, tracer.close

    def traced_run(self, until=None):
        before = self._processed
        span_, token = open_("sim.run")
        try:
            return run(self, until)
        finally:
            close(span_, token)
            counters["sim.events"] = counters.get("sim.events", 0) + self._processed - before

    patches.set(Simulator, "run", traced_run)
    gauges.setdefault("sim.peak_pending", 0)
    for attr in ("schedule", "schedule_at", "reschedule", "schedule_many"):
        patches.set(Simulator, attr, _scheduling(Simulator.__dict__[attr], counters, gauges))

    # network
    def sent_bytes(_result, args):
        counters["network.bytes"] = counters.get("network.bytes", 0) + args[1].size

    span(Fabric, "send", "network.send", after=sent_bytes)

    # cluster
    span(Node, "send_raw", "cluster.send_raw")
    span(Node, "send_app", "cluster.send_app")
    counted(Node, "deliver_app", "cluster.app_deliveries")
    counted(Node, "fail", "cluster.failures")
    counted(Node, "recover", "cluster.recoveries")

    # core (HC3I and its two variants share this agent)
    span(Hc3iNodeAgent, "on_receive", "core.agent_receive")
    span(Hc3iNodeAgent, "app_send", "core.agent_send")
    span(ClcCoordinator, "initiate", "core.clc_initiate")
    span(ClcCoordinator, "on_ack", "core.clc_ack")
    for collector in (CentralizedGarbageCollector, DistributedGarbageCollector):
        span(collector, "collect_now", "core.gc_collect")
        span(collector, "on_message", "core.gc_message")
    counted(Hc3iRecoveryManager, "on_failure_detected", "core.rollbacks")

    # baselines
    for module, cls_name in BASELINE_AGENTS:
        cls = getattr(importlib.import_module(module), cls_name)
        span(cls, "on_receive", "baselines.agent_receive")
        span(cls, "app_send", "baselines.agent_send")

    # experiments (point and reduce are wrapped per sweep: see traced_experiment)
    span(Experiment, "build_grid", "experiments.grid_build")
    span(ResultCache, "get", "experiments.cache_get")
    span(ResultCache, "put", "experiments.cache_put")
    span(ResultCache, "record", "experiments.cache_record")

    if serve:
        _install_serve(tracer, patches)
    return patches.undo


def _scheduling(original, counters, gauges):
    """A scheduling method that counts what it queued and tracks peak pending."""
    batch = original.__name__ == "schedule_many"

    def wrapper(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        counters["sim.schedules"] = counters.get("sim.schedules", 0) + (
            len(result) if batch else 1
        )
        pending = len(self._queue) - self._cancelled_in_heap
        if pending > gauges["sim.peak_pending"]:
            gauges["sim.peak_pending"] = pending
        return result

    wrapper.__name__ = original.__name__
    wrapper.__qualname__ = original.__qualname__
    return wrapper


def _install_serve(tracer, patches) -> None:
    from repro.experiments.cache import ResultCache
    from repro.serve.app import ServeApp
    from repro.serve.hot_tier import HotTier

    counters = tracer.counters

    def request_trace(args):
        return args[1].headers.get(TRACE_HEADER)

    patches.set(ServeApp, "handle",
                tracer.wrap_async(ServeApp.handle, "serve.handle", trace_of=request_trace))
    patches.set(ServeApp, "_compute_point",
                tracer.wrap(ServeApp._compute_point, "serve.compute"))
    patches.set(ServeApp, "_reject_429", tracer.wrap_count(ServeApp._reject_429, "serve.rejected"))
    patches.set(ResultCache, "journal_watermark",
                tracer.wrap(ResultCache.__dict__["journal_watermark"], "serve.watermark"))

    hot_get, hot_put = HotTier.get, HotTier.put

    def get(self, key, generation):
        flushed = self.invalidations
        payload = hot_get(self, key, generation)
        counters["serve.hot_gets"] = counters.get("serve.hot_gets", 0) + 1
        if payload is not None:
            counters["serve.hot_hits"] = counters.get("serve.hot_hits", 0) + 1
        counters["serve.hot_invalidations"] = (
            counters.get("serve.hot_invalidations", 0) + self.invalidations - flushed
        )
        return payload

    def put(self, key, payload, generation):
        flushed = self.invalidations
        hot_put(self, key, payload, generation)
        counters["serve.hot_invalidations"] = (
            counters.get("serve.hot_invalidations", 0) + self.invalidations - flushed
        )

    patches.set(HotTier, "get", get)
    patches.set(HotTier, "put", put)


def traced_experiment(experiment, tracer):
    """A copy of ``experiment`` whose ``point`` and ``reduce`` run in spans.

    Each point opens its own trace, so every span below one grid point
    shares that point's id.  The copy keeps the name, so cache keys and
    values are those of the registered experiment.
    """
    ids = iter(range(1, 1 << 62))

    def point_trace(_args):
        return f"{experiment.name}#{next(ids)}"

    return dataclasses.replace(
        experiment,
        point=tracer.wrap(experiment.point, "experiments.point", trace_of=point_trace),
        reduce=tracer.wrap(experiment.reduce, "experiments.reduce"),
    )


# ---------------------------------------------------------------- metrics


class _View:
    """Read-only access to one or more merged tracer dumps."""

    def __init__(self, *dumps) -> None:
        self.agg: dict = {}
        self.counters: dict = {}
        self.gauges: dict = {}
        self.durations: dict = {}
        for dump in dumps:
            if not dump:
                continue
            for name, (n, total, own) in dump["agg"].items():
                entry = self.agg.setdefault(name, [0, 0.0, 0.0])
                entry[0] += n
                entry[1] += total
                entry[2] += own
            for name, n in dump["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + n
            for name, value in dump["gauges"].items():
                self.gauges[name] = max(value, self.gauges.get(name, value))
            for name, values in dump["durations"].items():
                self.durations.setdefault(name, []).extend(values)

    def n(self, *names) -> int:
        return sum(self.agg.get(name, (0, 0.0, 0.0))[0] for name in names)

    def total(self, *names) -> float:
        return sum(self.agg.get(name, (0, 0.0, 0.0))[1] for name in names)

    def own(self, *names) -> float:
        return sum(self.agg.get(name, (0, 0.0, 0.0))[2] for name in names)

    def c(self, name: str) -> int:
        return self.counters.get(name, 0)

    def p(self, name: str, q: float) -> float:
        values = self.durations.get(name)
        return percentile(values, q) if values else 0.0


def per_layer(main_dump, server_dump=None, outside_ms=None) -> dict:
    """Every per-layer metric of a traced run, by name.

    ``main_dump`` is the benchmark process's tracer (sweeps) and
    ``server_dump`` the serving process's; layer metrics below ``serve``
    add the two.  ``outside_ms`` lists, per traced request, client
    latency minus server handle time.
    """
    every = _View(main_dump, server_dump)
    srv = _View(server_dump)
    events = every.c("sim.events")
    sends = every.n("network.send")
    hot_gets = srv.c("serve.hot_gets")
    return {
        "sim.events": events,
        "sim.run_s": every.total("sim.run"),
        "sim.self_s": every.own("sim.run"),
        "sim.schedules": every.c("sim.schedules"),
        "sim.peak_pending": every.gauges.get("sim.peak_pending", 0),
        "network.sends": sends,
        "network.send_s": every.total("network.send"),
        "network.send_self_s": every.own("network.send"),
        "network.bytes": every.c("network.bytes"),
        "network.sends_per_event": sends / events if events else 0.0,
        "cluster.node_sends": every.n("cluster.send_raw", "cluster.send_app"),
        "cluster.node_send_self_s": every.own("cluster.send_raw", "cluster.send_app"),
        "cluster.app_deliveries": every.c("cluster.app_deliveries"),
        "cluster.failures": every.c("cluster.failures"),
        "cluster.recoveries": every.c("cluster.recoveries"),
        "core.agent_receives": every.n("core.agent_receive"),
        "core.agent_receive_self_s": every.own("core.agent_receive"),
        "core.agent_send_self_s": every.own("core.agent_send"),
        "core.clc_rounds": every.n("core.clc_initiate"),
        "core.clc_round_self_s": every.own("core.clc_initiate", "core.clc_ack"),
        "core.gc_runs": every.n("core.gc_collect"),
        "core.gc_self_s": every.own("core.gc_collect", "core.gc_message"),
        "core.rollbacks": every.c("core.rollbacks"),
        "baselines.agent_receives": every.n("baselines.agent_receive"),
        "baselines.agent_receive_self_s": every.own("baselines.agent_receive"),
        "baselines.agent_send_self_s": every.own("baselines.agent_send"),
        "experiments.points": every.n("experiments.point"),
        "experiments.point_s_p50": every.p("experiments.point", 50),
        "experiments.point_s_max": max(every.durations.get("experiments.point") or [0.0]),
        "experiments.cache_put_s": every.total("experiments.cache_put"),
        "experiments.cache_record_s": every.total("experiments.cache_record"),
        "experiments.reduce_s": every.total("experiments.reduce"),
        "experiments.grid_build_s": every.total("experiments.grid_build"),
        "serve.requests": srv.n("serve.handle"),
        "serve.handle_s_p50": srv.p("serve.handle", 50),
        "serve.handle_self_s": srv.own("serve.handle"),
        "serve.outside_handle_ms_p50": percentile(outside_ms, 50) if outside_ms else 0.0,
        "serve.outside_handle_ms_p99": percentile(outside_ms, 99) if outside_ms else 0.0,
        "serve.hot_hit_ratio": srv.c("serve.hot_hits") / hot_gets if hot_gets else 0.0,
        "serve.hot_invalidations": srv.c("serve.hot_invalidations"),
        "serve.disk_gets": srv.n("experiments.cache_get"),
        "serve.disk_get_s": srv.total("experiments.cache_get"),
        "serve.watermark_calls": srv.n("serve.watermark"),
        "serve.watermark_s": srv.total("serve.watermark"),
        "serve.grid_builds": srv.n("experiments.grid_build"),
        "serve.grid_build_s": srv.total("experiments.grid_build"),
        "serve.compute_s": srv.total("serve.compute"),
        "serve.rejected": srv.c("serve.rejected"),
    }


def layer_table(main_dump, server_dump=None) -> list:
    """``(layer, spans, total_s, self_s)`` rows, largest self time first."""
    view = _View(main_dump, server_dump)
    rows: dict = {}
    for name, (n, total, own) in view.agg.items():
        layer = name.split(".", 1)[0]
        row = rows.setdefault(layer, [0, 0.0, 0.0])
        row[0] += n
        row[1] += total
        row[2] += own
    return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[3])
