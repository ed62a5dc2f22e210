"""Sweep workloads: cold serial sweeps through ``run_experiment``.

A unit of work is one experiment's whole grid run cold: a fresh
:class:`ResultCache` in an empty directory, ``jobs=1``, the seed
override as the only grid input.  An untraced run repeats the units
round-robin for the run's seconds and reports, per experiment, the
median time; ``busy_s`` is their sum, i.e. one cold pass over the
workload with transient stalls filtered out.

Every unit's point values are hashed (canonical JSON) and must agree
across repeats, with a warm all-hit pass over the same cache, with the
traced pass, and -- for the grids' default seed -- with the reference
hashes in ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import calibration
import layers
import tracing
from helpers import digest, mismatches

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "sweep-hc3i": ("fig6-fig7", "fig8", "fig9", "table3", "overhead"),
    # `mtbf` belongs here but is left out while its point function raises
    # KeyError('total') for a run with no rollback (about one seed in ten);
    # perfbench/tests pins that defect with a strict xfail.
    "sweep-families": (
        "protocol-tournament", "baselines", "ablation-transitive", "ablation-components",
    ),
}

#: the grids' own default seed; its point hashes are pinned in reference.json
REFERENCE_SEED = 42
#: set-up repetitions per run (the reported set-up time is their median)
SETUP_REPEATS = 5


def setup_probe(workload: str, seed: int, cache_dir: str) -> None:
    """What a user pays before the first point runs: import, grids, cache."""
    from repro.experiments import registry
    from repro.experiments.cache import ResultCache

    for name in WORKLOADS[workload]:
        registry.get(name).build_grid({"seed": seed})
    ResultCache(root=Path(cache_dir))


def measure_setup(workload: str, seed: int, scratch: Path, src: Path) -> list:
    """Wall seconds of ``SETUP_REPEATS`` fresh set-up processes.

    Not host-normalized: set-up is mostly imports and file reads, which
    the calibration loop does not track.
    """
    times = []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, str(HERE / "sweeps.py"), "--probe", workload, str(seed),
                str(scratch / f"probe-{i}")]
        start = time.perf_counter()
        # no timeout: with one, the wait polls every 50 ms and rounds the time up
        subprocess.run(argv, check=True, env=dict(os.environ, PYTHONPATH=str(src)),
                       cwd=src.parent)
        times.append(time.perf_counter() - start)
    return times


class _Unit:
    """One cold (or warm) run of an experiment's grid, with its point values."""

    def __init__(self, name: str, seed: int, scratch: Path, tracer=None) -> None:
        from repro.experiments import registry

        self.name = name
        self.overrides = {"seed": seed}
        self.scratch = scratch
        self.experiment = registry.get(name)
        self.tracer = tracer

    def run(self, cache_dir=None):
        """``(seconds, point seconds, point hashes, cache dir, report)`` of one pass."""
        from repro.experiments.cache import ResultCache
        from repro.experiments.runner import run_experiment

        if cache_dir is None:
            cache_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))
        captured: list = []
        experiment = self.experiment
        if self.tracer is not None:
            experiment = layers.traced_experiment(experiment, self.tracer)
        point, reduce = experiment.point, experiment.reduce
        point_times: list = []

        def timed(params):
            start = time.perf_counter()
            value = point(params)
            point_times.append(time.perf_counter() - start)
            return value

        def capture(grid, points):
            captured.extend(points)
            return reduce(grid, points)

        experiment = dataclasses.replace(experiment, point=timed, reduce=capture)
        cache = ResultCache(root=cache_dir)
        start = time.perf_counter()
        report = run_experiment(experiment, overrides=self.overrides, jobs=1, cache=cache)
        elapsed = time.perf_counter() - start
        return elapsed, point_times, [digest(v) for v in captured], cache_dir, report


class _Checks:
    """Point-hash observations; a point whose hash differs counts as failed."""

    def __init__(self) -> None:
        self.observations: list = []
        self.attempted = 0
        self.errors = 0

    def add(self, name: str, hashes: list) -> None:
        self.attempted += len(hashes)
        self.observations.extend(((name, i), h) for i, h in enumerate(hashes))

    def failed(self) -> int:
        return self.errors + mismatches(self.observations)


def _reference(workload: str) -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()).get(workload, {}) if path.exists() else {}


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path, src: Path,
        out: Path) -> dict:
    """Run one sweep workload; returns the result fields for ``run.py``.

    Caches and probes go under ``scratch``, which the caller removes.
    """
    names = WORKLOADS[workload]
    checks = _Checks()
    if seed == REFERENCE_SEED:
        for name, hashes in _reference(workload).items():
            checks.observations.extend(((name, i), h) for i, h in enumerate(hashes))
    result: dict = {"lines": []}
    timeline = calibration.Timeline()
    if not trace:
        setup = measure_setup(workload, seed, scratch, src)

    events = [0]
    undo_count = layers.count_events(events)
    units = {name: _Unit(name, seed, scratch) for name in names}
    times: dict = {name: [] for name in names}  # raw seconds per repeat
    norm: dict = {name: [] for name in names}  # host-normalized seconds per repeat
    point_times: dict = {}  # (experiment, index) -> normalized seconds per repeat
    unit_events: dict = {name: [] for name in names}
    last_cache: dict = {}
    deadline = time.perf_counter() + seconds
    mark = timeline.mark()
    try:
        while True:
            for name in names:
                before = events[0]
                try:
                    elapsed, per_point, hashes, cache_dir, _ = units[name].run()
                except Exception as exc:  # a failing point fails the run, loudly
                    print(f"[perfbench] {name}: {exc!r}", file=sys.stderr)
                    checks.errors += 1
                    continue
                after = timeline.mark()
                factor = timeline.factor(mark, after)
                mark = after
                times[name].append(elapsed)
                norm[name].append(elapsed * factor)
                for i, seconds_ in enumerate(per_point):
                    point_times.setdefault((name, i), []).append(seconds_ * factor)
                unit_events[name].append(events[0] - before)
                checks.add(name, hashes)
                last_cache[name] = cache_dir
            if trace or time.perf_counter() >= deadline:
                break
    finally:
        undo_count()
    for name in names:
        if len(set(unit_events[name])) > 1:  # the same grid must dispatch the same events
            checks.errors += 1

    # warm pass: every point a cache hit, same values
    for name, cache_dir in last_cache.items():
        _, _, hashes, _, report = units[name].run(cache_dir)
        checks.add(name, hashes)
        if report.cache_hits != report.points:
            checks.errors += 1

    if trace:
        result.update(_traced(workload, names, seed, scratch, times, unit_events, checks, out))
    elif all(times.values()):
        wall = sum(median(norm[name]) for name in names)
        wall_raw = sum(median(times[name]) for name in names)
        total_events = sum(unit_events[name][0] for name in names)
        per_point = [median(samples) for samples in point_times.values()]
        result["e2e"] = {
            "setup_s": median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "busy_s": wall,
            "work_per_s": total_events / wall,
            "p50_ms": median(per_point) * 1e3,
        }
        result["info"] = {
            "raw_wall_s": (wall_raw, "s"),
            "raw_sim_events_per_s": (total_events / wall_raw, "1/s"),
            "calibration_ms": (median(timeline.samples) * 1e3, "ms"),
            "slowest_point_ms": (max(per_point) * 1e3, "ms"),
            "cold_repeats_min": (min(map(len, times.values())), "count"),
            **{f"{name}_s": (median(norm[name]), "s") for name in names},
        }
        result["lines"].append(
            f"{workload}: {len(per_point)} grid points, {total_events} events per cold pass; "
            f"cold repeats per experiment {min(map(len, times.values()))}-"
            f"{max(map(len, times.values()))} (medians summed); set-up samples {len(setup)}"
        )
    result["attempted"] = max(1, checks.attempted)
    result["failed"] = checks.failed()
    return result


def _traced(workload, names, seed, scratch, untraced_times, untraced_events, checks, out):
    """One traced cold pass per experiment, after the untraced one."""
    tracer = tracing.Tracer(durations_for=("experiments.point",))
    undo = layers.install(tracer)
    traced_times = {}
    try:
        for name in names:
            before = tracer.counters.get("sim.events", 0)
            elapsed, _, hashes, _, _ = _Unit(name, seed, scratch, tracer).run()
            traced_times[name] = elapsed
            checks.add(name, hashes)
            if untraced_events[name] and (
                tracer.counters.get("sim.events", 0) - before != untraced_events[name][0]
            ):
                checks.errors += 1  # the wrappers must not perturb dispatch
    finally:
        undo()
    plain = sum(untraced_times[name][0] for name in names if untraced_times[name])
    traced = sum(traced_times.values())
    dump = tracer.dump()
    tracing.write_json(out / f"{workload}-seed{seed}.trace.json",
                       tracing.chrome_trace({"perfbench": dump["records"]}))
    return {
        "per_layer": layers.per_layer(dump),
        "dumps": (dump, None),
        "overhead": {
            "untraced_s": plain,
            "traced_s": traced,
            "overhead_ratio": traced / plain - 1.0 if plain else 0.0,
            "spans": dump["spans"],
            "spans_kept": len(dump["records"]),
        },
    }


def write_reference(scratch: Path) -> None:
    """Pin the point hashes of every sweep workload at the reference seed."""
    reference = {}
    for workload, names in WORKLOADS.items():
        reference[workload] = {}
        for name in names:
            _, _, hashes, _, _ = _Unit(name, REFERENCE_SEED, scratch).run()
            reference[workload][name] = hashes
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--probe":
        setup_probe(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    elif sys.argv[1:] == ["--reference"]:  # python3 perfbench/sweeps.py --reference
        sys.path.insert(0, str(HERE.parent / "src"))
        (HERE.parent / ".perfbench-tmp").mkdir(exist_ok=True)
        scratch_dir = Path(tempfile.mkdtemp(dir=HERE.parent / ".perfbench-tmp"))
        try:
            write_reference(scratch_dir)
        finally:
            shutil.rmtree(scratch_dir, ignore_errors=True)
    else:
        sys.exit("usage: sweeps.py --probe WORKLOAD SEED CACHE_DIR | sweeps.py --reference")
