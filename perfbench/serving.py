"""The ``serve-mixed`` workload: an open-loop generator against ``repro serve``.

The server is a separate process started the way a user starts it
(``python -m repro.cli serve``) over a cache this module pre-warms.  The
generator is one asyncio process holding at most ``nproc`` keep-alive
connections.  Its schedule, built from the seed alone, is mostly GETs of
warmed grid points plus a fixed share of first fetches of points never
computed (writes: compute tier, ``ResultCache.put``/``record``, a journal
append that advances the watermark and flushes the hot tier).

The gated figures come from a fixed number of open-loop chunks at the
low rate (Poisson arrivals), each sent to ``repro serve`` and then to
the frozen reference server of ``refserver.py`` on the same CPU: the
server's CPU time per request and the read p50, each the median over
the chunks of the ratio to the reference, scaled by the reference's
figures on the reference host.  The ratio cancels the host's drift,
which moves both servers alike; the median makes one slow moment
matter little.  Raw figures are reported beside them.  (At saturation
the server's CPU time per request swings far more from moment to
moment on a shared host, so nothing gated is measured there.)  A
ladder of rising open-loop rates follows for the informational figures
(high-rate latency, ``max_rps_slo``); how far it climbs depends on the
host, so it runs after everything gated.

Every latency runs from the request's due time, so a stall is charged
to all requests queued behind it; the generator's own lateness is
reported apart.  A verify pass re-reads every written key.  Each key's
bodies must be byte-identical whichever tier answered, and must carry
the value the benchmark computes for that point itself.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import math
import os
import random
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import layers
import refserver
import tracing
from helpers import (
    canonical_json,
    digest,
    has_tail,
    max_rps_slo,
    mismatches,
    open_loop_accounting,
    percentile,
    rung_keeps_up,
)

HERE = Path(__file__).resolve().parent


@functools.cache
def design() -> dict:
    """The workload's parameters, as recorded in ``design.json``."""
    return json.loads((HERE / "design.json").read_text())["serve-mixed"]


_clock = time.perf_counter

#: the CPUs this process may use, as ``nproc`` counts them
CPUS = sorted(os.sched_getaffinity(0))
#: with two or more CPUs the server runs on the first and the generator on
#: the second, so the generator's own work never queues behind the server's
SERVER_CPU, GENERATOR_CPU = (CPUS[0], CPUS[1]) if len(CPUS) >= 2 else (None, None)


# ------------------------------------------------------------------ schedule


class Request:
    __slots__ = ("kind", "seed", "offset")

    def __init__(self, kind: str, seed: int, offset: float = 0.0) -> None:
        self.kind = kind  # "read" | "write" | "verify"
        self.seed = seed  # grid seed of the point fetched
        self.offset = offset  # due time from the start of the phase


def path_for(seed: int) -> str:
    point = design()["point"]
    return (f"/experiments/{point['experiment']}/points?scale={point['scale']}"
            f"&total_time={point['total_time']!r}&seed={seed}")


def warm_seeds(seed: int) -> list:
    rng = random.Random(f"warm-{seed}")
    return rng.sample(range(1, 10**6), design()["warm_keys"])


def rung_requests(rate: float, seconds: float) -> int:
    """Requests in one rung: its seconds of offered load, at least the floor
    that leaves ten reads beyond the p99."""
    return max(design()["min_rung_requests"], math.ceil(rate * seconds))


def first_write_seed(seed: int) -> int:
    """Writes fetch grid seeds from here up: far from every warmed seed."""
    return 10**7 + seed % 10**6 * 10**4


def _mix(rng: random.Random, n: int, warm: list, writes, rate=None) -> list:
    """``n`` requests: ``write_share`` of them writes, the rest reads of warm keys.

    With a ``rate``, arrivals are Poisson; without, every request is due at once.
    """
    write_at = set(rng.sample(range(n), round(n * design()["write_share"])))
    offset, requests = 0.0, []
    for i in range(n):
        if rate is not None:
            offset += rng.expovariate(rate)
        if i in write_at:
            requests.append(Request("write", next(writes), offset))
        else:
            requests.append(Request("read", rng.choice(warm), offset))
    return requests


def chunk_count(seconds: float) -> int:
    """Measured chunks in a run of ``seconds`` (the design's count at its
    ``run_seconds``, never fewer than ``min_chunks``)."""
    return max(design()["min_chunks"],
               round(design()["chunks"] * seconds / design()["run_seconds"]))


def chunk_schedule(seed: int, index: int, writes) -> list:
    """One open-loop chunk at the low rate.

    ``writes`` yields the grid seeds of never-computed points.
    """
    rng = random.Random(f"chunk-{seed}-{index}")
    return _mix(rng, design()["chunk_requests"], warm_seeds(seed), writes,
                design()["low_rate"])


def ladder_schedule(seed: int, writes, scale: float = 1.0) -> list:
    """One list of requests per ladder rung, offsets from each rung's start.

    ``scale`` stretches every rung's seconds (a run's seconds over the
    design's ``run_seconds``); each rung keeps its floor of requests.
    """
    rng = random.Random(f"ladder-{seed}")
    warm = warm_seeds(seed)
    return [
        _mix(rng, rung_requests(rung["rate"], rung["seconds"] * scale), warm, writes,
             rung["rate"])
        for rung in design()["ladder"]
    ]


# ------------------------------------------------------------------ client


class Connection:
    """One keep-alive HTTP/1.1 connection speaking just enough for GETs."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def get(self, path: str, trace: str) -> tuple:
        self.writer.write(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nx-perfbench-trace: {trace}\r\n\r\n"
            .encode("latin-1")
        )
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = await self.reader.readexactly(int(headers.get("content-length", "0")))
        return status, headers.get("x-repro-source", ""), body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Outcome:
    __slots__ = ("request", "due", "dispatched", "sent", "done", "status", "source", "body",
                 "trace")

    def __init__(self, request, trace: str) -> None:
        self.request = request
        self.trace = trace
        self.due = self.dispatched = self.sent = self.done = 0.0
        self.status = 0
        self.source = ""
        self.body = b""


async def drive(port: int, requests: list, connections: int, label: str,
                open_loop: bool = True) -> list:
    """Send ``requests`` over ``connections`` keep-alive connections.

    Open loop: each request is queued at its due time whatever the
    server's progress.  Closed loop: every request is due at once and a
    connection sends its next request when the previous one returned.
    """
    conns = [await Connection.open(port) for _ in range(connections)]
    queue: asyncio.Queue = asyncio.Queue()
    outcomes = [Outcome(r, f"{label}-{i}") for i, r in enumerate(requests)]

    async def worker(conn: Connection) -> None:
        while True:
            outcome = await queue.get()
            if outcome is None:
                return
            outcome.sent = _clock()
            try:
                outcome.status, outcome.source, outcome.body = await conn.get(
                    path_for(outcome.request.seed), outcome.trace
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError) as exc:
                outcome.status, outcome.body = -1, repr(exc).encode()
            outcome.done = _clock()

    workers = [asyncio.create_task(worker(conn)) for conn in conns]
    start = _clock() + 0.01
    try:
        if open_loop:
            i = 0
            while i < len(outcomes):
                now = _clock()
                while i < len(outcomes) and start + outcomes[i].request.offset <= now:
                    outcomes[i].due = start + outcomes[i].request.offset
                    outcomes[i].dispatched = now
                    queue.put_nowait(outcomes[i])
                    i += 1
                if i < len(outcomes):
                    await asyncio.sleep(max(0.0, start + outcomes[i].request.offset - _clock()))
        else:
            now = _clock()
            for outcome in outcomes:
                outcome.due = outcome.dispatched = now
                queue.put_nowait(outcome)
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    finally:
        for task in workers:
            task.cancel()
        for conn in conns:
            await conn.close()
    return outcomes


# ------------------------------------------------------------------ server


class Server:
    """A server child process on an ephemeral port, pinned to the server CPU."""

    def __init__(self, argv: list, src: Path, log: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self.started = _clock()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self._log, env=env,
                                     cwd=src.parent)
        if SERVER_CPU is not None:
            os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
        self.port = 0

    @classmethod
    def repro(cls, src: Path, cache_dir: Path, log: Path, trace_dump=None) -> "Server":
        """``repro serve`` over ``cache_dir``, or the traced launcher with a dump path."""
        args = ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
        if trace_dump is None:
            return cls([sys.executable, "-m", "repro.cli", *args], src, log)
        return cls([sys.executable, str(HERE / "serve_launcher.py"), str(trace_dump), *args],
                   src, log)

    @classmethod
    def reference(cls, src: Path, data_dir: Path, log: Path) -> "Server":
        """The frozen reference server (``refserver.py``)."""
        return cls([sys.executable, str(HERE / "refserver.py"), str(data_dir)], src, log)

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``/healthz`` answered 200."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        # "repro serve: listening on http://127.0.0.1:PORT (cache: ...)"; likewise refserver
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = _clock() + timeout
        while True:
            try:
                status = asyncio.run(_healthz(self.port))
            except OSError:
                status = 0
            if status == 200:
                return _clock() - self.started
            if _clock() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)

    def cpu_seconds(self) -> float:
        """CPU seconds of all the server's threads, to the nanosecond."""
        total = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            total += int((task / "schedstat").read_text().split()[0])
        return total / 1e9

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT, the way a user stops a server, and wait for it to exit.

        The kernel may hand a process-directed signal to one of the
        server's worker threads while its event loop sleeps in
        ``epoll_wait``; Python runs the handler only once the main thread
        wakes.  So while the server has not exited, its loop is woken
        with a connection every second; after 30 s it is killed.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            deadline = _clock() + 30
            while True:
                try:
                    self.proc.wait(timeout=1.0)
                    break
                except subprocess.TimeoutExpired:
                    if _clock() > deadline:
                        self.proc.kill()
                        self.proc.wait()
                        break
                    self._wake()
        self.proc.stdout.close()
        self._log.close()

    def _wake(self) -> None:
        if not self.port:
            return
        try:
            socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
        except OSError:
            pass


async def _healthz(port: int) -> int:
    conn = await Connection.open(port)
    try:
        status, _, _ = await conn.get("/healthz", "healthz")
    finally:
        await conn.close()
    return status


def prewarm(cache_dir: Path, seeds) -> dict:
    """Compute the warmed points into the server's cache; returns expected values.

    ``background_entries`` more points, never requested, fill the cache
    around them, so that it starts populated like a user's: every
    per-request cost that grows with the cache (a directory listing,
    say) is at its steady level from the first request on, instead of
    growing with the writes a run makes.
    """
    from repro.experiments import registry
    from repro.experiments.cache import ResultCache

    cache = ResultCache(root=cache_dir, journal_shards=4)
    experiment = registry.get(design()["point"]["experiment"])
    base = point_params(0)
    first = design()["background_seed"]
    for seed in range(first, first + design()["background_entries"]):
        params = dict(base, seed=seed)
        cache.put(experiment.name, params, experiment.point(params))
        cache.record(experiment.name, params, host="perfbench")
    expected = {}
    for seed in seeds:
        params = point_params(seed)
        value = experiment.point(params)
        cache.put(experiment.name, params, value)
        cache.record(experiment.name, params, host="perfbench")
        expected[seed] = value
    return expected


def point_params(seed: int) -> dict:
    from repro.experiments import registry

    point = design()["point"]
    experiment = registry.get(point["experiment"])
    return experiment.build_grid(
        {"nodes": point["nodes"], "total_time": point["total_time"], "seed": seed}
    )[0]


# ------------------------------------------------------------------ checks


def check_outcomes(outcomes: list, expected: dict) -> int:
    """Failed requests: errors, refusals, wrong tier for a write, wrong bytes.

    ``expected`` maps a grid seed to the value the benchmark computed for
    it; a body must carry exactly that value, and all bodies of one key
    must be byte-identical whichever tier answered.
    """
    failed = 0
    observations = []
    for o in outcomes:
        if o.status != 200:
            failed += 1
            continue
        if o.request.kind == "write" and o.source != "computed":
            failed += 1
            continue
        observations.append((o.request.seed, digest(o.body)))
    failed += mismatches(observations)
    checked: dict = {}
    for o in outcomes:
        if o.status != 200 or o.request.seed not in expected:
            continue
        key = (o.request.seed, digest(o.body))
        if key not in checked:
            try:
                value = json.loads(o.body)["value"]
            except (ValueError, KeyError):
                value = None
            checked[key] = canonical_json(value) == canonical_json(
                json.loads(canonical_json(expected[o.request.seed]))
            )
        if not checked[key]:
            failed += 1
    return failed


# ------------------------------------------------------------------ workload


def _measure(server: Server, reference: Server, seed: int, seconds: float) -> dict:
    """Paired low-rate chunks, the ladder and a verify pass against running servers.

    Each chunk goes to ``server`` and then, unchanged, to ``reference``.
    """
    connections = len(CPUS)  # design.json: "connections": "nproc"
    warm = warm_seeds(seed)
    for target in (server, reference):
        asyncio.run(drive(target.port, [Request("read", s) for s in warm], 1, "warmup",
                          open_loop=False))
    writes = itertools.count(first_write_seed(seed))
    pause = design()["pause_s"]
    chunks = []
    for index in range(chunk_count(seconds)):
        requests = chunk_schedule(seed, index, writes)
        pair = []
        for target in (server, reference):
            cpu = target.cpu_seconds()
            outcomes = asyncio.run(drive(target.port, requests, connections, f"l{index}"))
            pair.append(Chunk(outcomes, target.cpu_seconds() - cpu))
            time.sleep(pause)
        chunks.append(pair)

    rungs = ladder_schedule(seed, writes, seconds / design()["run_seconds"])
    high = [rung["rate"] for rung in design()["ladder"]].index(design()["high_rate"])
    measured = []
    for index, requests in enumerate(rungs):
        outcomes = asyncio.run(drive(server.port, requests, connections, f"r{index}"))
        measured.append(outcomes)
        time.sleep(pause)
        reads = [o for o in outcomes if o.request.kind == "read" and o.status == 200]
        p99 = percentile([o.done - o.due for o in reads], 99) * 1e3 if reads else None
        if index >= high and (p99 is None or p99 > design()["slo_ms"]):
            break
    every = [o for own, _ in chunks for o in own.outcomes] + [o for r in measured for o in r]
    written = sorted({o.request.seed for o in every if o.request.kind == "write"})
    verify = asyncio.run(drive(
        server.port, [Request("verify", s) for s in written + warm[:8]], 1, "verify",
        open_loop=False))
    return {"chunks": chunks, "rungs": measured, "verify": verify, "written": written,
            "connections": connections, "outcomes": every + verify}


class Chunk:
    """One open-loop chunk sent to one server: its outcomes and the server's CPU."""

    __slots__ = ("outcomes", "cpu_s")

    def __init__(self, outcomes: list, cpu_s: float) -> None:
        self.outcomes = outcomes
        self.cpu_s = cpu_s

    @property
    def cpu_ms(self) -> float:
        """Server CPU milliseconds per request."""
        return self.cpu_s / len(self.outcomes) * 1e3

    @property
    def read_p50_ms(self) -> float:
        return percentile([(o.done - o.due) * 1e3 for o in self.outcomes
                           if o.request.kind == "read" and o.status == 200], 50)


def relative(chunks: list, figure: str, reference_value: float) -> float:
    """Median over the chunk pairs of ``figure``'s ratio to the reference
    server's, times the reference server's figure on the reference host."""
    return median(getattr(own, figure) / getattr(ref, figure) for own, ref in chunks) \
        * reference_value


def _expected_for(written: list, expected: dict) -> dict:
    from repro.experiments import registry

    experiment = registry.get(design()["point"]["experiment"])
    out = dict(expected)
    for seed in written:
        out[seed] = experiment.point(point_params(seed))
    return out


def _rung_summary(chunks: list, rate: float) -> dict:
    """Read latencies of one rate's open-loop chunks, pooled."""
    read_ms = []
    offered = completed = 0
    span = 0.0
    for outcomes in chunks:
        ok = [o for o in outcomes if o.status == 200]
        reads = [o for o in ok if o.request.kind == "read"]
        acc = open_loop_accounting([(o.due, o.dispatched, o.done) for o in reads])
        read_ms.extend(x * 1e3 for x in acc["latencies"])
        offered += len(outcomes)
        completed += len(ok)
        span += max(o.done for o in outcomes) - min(o.due for o in outcomes)
    return {
        "rate": rate,
        "offered": offered,
        "reads": len(read_ms),
        "read_p50_ms": percentile(read_ms, 50) if read_ms else None,
        "read_p90_ms": percentile(read_ms, 90) if read_ms else None,
        "read_p99_ms": percentile(read_ms, 99) if has_tail(len(read_ms), 99) else None,
        # the chunks back to back, as one rung
        "keeps_up": rung_keeps_up(offered, completed, 0.0, span, rate),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path, src: Path,
        out: Path) -> dict:
    """Run ``serve-mixed``; returns the result fields for ``run.py``."""
    # A shell's background job starts with SIGINT ignored, and the servers
    # would inherit that and never stop; a caught signal resets on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    warm = warm_seeds(seed)
    if GENERATOR_CPU is not None:
        os.sched_setaffinity(0, {GENERATOR_CPU})
    if trace:
        return _traced(seed, seconds, scratch, src, out, warm)
    result: dict = {"lines": []}
    setup = []
    servers = []
    try:
        cache_dir = scratch / "cache"
        expected = prewarm(cache_dir, warm)
        for i in range(design()["setup_repeats"]):
            server = Server.repro(src, cache_dir, scratch / "server.log")
            servers.append(server)
            setup.append(server.wait_ready())
            if i + 1 < design()["setup_repeats"]:
                server.stop()
        server = servers[-1]
        reference = Server.reference(src, scratch / "reference", scratch / "reference.log")
        servers.append(reference)
        reference.wait_ready()
        run_data = _measure(server, reference, seed, seconds)
        rss = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()

    expected = _expected_for(run_data["written"], expected)
    every = run_data["outcomes"]
    failed = check_outcomes(every, expected)
    chunks = run_data["chunks"]
    own = [pair[0] for pair in chunks]
    ladder = design()["ladder"]
    low = _rung_summary([chunk.outcomes for chunk in own], design()["low_rate"])
    summaries = [low] + [_rung_summary([o], ladder[i]["rate"])
                         for i, o in enumerate(run_data["rungs"])]
    high = next(s for s in summaries if s["rate"] == design()["high_rate"])
    opened = [o for chunk in own for o in chunk.outcomes]
    opened += [o for rung in run_data["rungs"] for o in rung]
    opened = [o for o in opened if o.status == 200]
    write_ms = [(o.done - o.due) * 1e3 for o in opened if o.request.kind == "write"]
    lag_ms = [lag * 1e3 for lag in open_loop_accounting(
        [(o.due, o.dispatched, o.done) for o in opened])["lags"]]
    cpu_ms = relative(chunks, "cpu_ms", refserver.REFERENCE_CPU_MS)
    result["e2e"] = {
        "setup_s": median(setup),
        "peak_rss_mb": rss,
        "busy_s": cpu_ms,
        "work_per_s": 1e3 / cpu_ms,
        "p50_ms": relative(chunks, "read_p50_ms", refserver.REFERENCE_P50_MS),
    }
    result["info"] = {
        "read_p50_ms_low": (low["read_p50_ms"], "ms"),
        "read_p90_ms_low": (low["read_p90_ms"], "ms"),
        "read_p99_ms_low": (low["read_p99_ms"], "ms"),
        "read_p50_ms_high": (high["read_p50_ms"], "ms"),
        "read_p99_ms_high": (high["read_p99_ms"], "ms"),
        "write_p50_ms": (percentile(write_ms, 50), "ms"),
        "write_p90_ms": (percentile(write_ms, 90), "ms"),
        "max_rps_slo": (max_rps_slo(summaries, design()["slo_ms"]), "1/s"),
        "gen_lag_p99_ms": (percentile(lag_ms, 99), "ms"),
        "writes": (len(write_ms), "count"),
        "raw_cpu_ms": (median(chunk.cpu_ms for chunk in own), "ms"),
        "raw_p50_ms": (median(chunk.read_p50_ms for chunk in own), "ms"),
        "reference_cpu_ms": (median(ref.cpu_ms for _, ref in chunks), "ms"),
        "reference_p50_ms": (median(ref.read_p50_ms for _, ref in chunks), "ms"),
    }
    lines = result["lines"]
    lines.append(f"serve-mixed: {len(chunks)} open-loop chunks of {design()['chunk_requests']} "
                 f"requests at {design()['low_rate']} rps, each also sent to the reference "
                 f"server, then the ladder; "
                 f"{run_data['connections']} keep-alive connections, write share "
                 f"{design()['write_share']}, SLO read p99 <= {design()['slo_ms']} ms; "
                 f"set-up samples {len(setup)}")
    for s in summaries:
        lines.append(f"  rung {s['rate']:>5} rps: {s['reads']} reads, p50 {s['read_p50_ms']:.3f} ms,"
                     f" p90 {s['read_p90_ms']:.3f} ms, p99 {s['read_p99_ms'] or float('nan'):.3f} ms,"
                     f" keeps up {s['keeps_up']}")
    result["attempted"] = len(every)
    result["failed"] = failed
    return result


def _traced(seed, seconds, scratch, src, out, warm) -> dict:
    """The same schedule against an untraced and then a traced server."""
    runs = {}
    outcomes_all = []
    reference = Server.reference(src, scratch / "reference", scratch / "reference.log")
    try:
        reference.wait_ready()
        for mode in ("plain", "traced"):
            cache_dir = scratch / f"cache-{mode}"
            expected = prewarm(cache_dir, warm)
            dump_path = scratch / "server-trace.json" if mode == "traced" else None
            server = Server.repro(src, cache_dir, scratch / f"server-{mode}.log",
                                  trace_dump=dump_path)
            try:
                server.wait_ready()
                data = _measure(server, reference, seed, seconds)
            finally:
                server.stop()
            every = data["outcomes"]
            outcomes_all.extend(every)
            runs[mode] = {"cpu_ms": relative(data["chunks"], "cpu_ms",
                                             refserver.REFERENCE_CPU_MS),
                          "outcomes": every,
                          "expected": _expected_for(data["written"], expected)}
    finally:
        reference.stop()
    failed = sum(check_outcomes(r["outcomes"], r["expected"]) for r in runs.values())
    server_dump = json.loads((scratch / "server-trace.json").read_text())
    handle = server_dump["trace_roots"]
    traced = runs["traced"]["outcomes"]
    outside = [((o.done - o.sent) - handle[o.trace]) * 1e3 for o in traced if o.trace in handle]
    per_cpu = {mode: r["cpu_ms"] for mode, r in runs.items()}
    client = [("client.request", o.sent, o.done, 0, 0, o.trace) for o in traced[:20_000]]
    tracing.write_json(out / f"serve-mixed-seed{seed}.trace.json", tracing.chrome_trace(
        {"generator": client, "repro serve": server_dump["records"]}))
    return {
        "lines": [],
        "per_layer": layers.per_layer(None, server_dump, outside),
        "dumps": (None, server_dump),
        "overhead": {
            "untraced_cpu_ms_per_request": per_cpu["plain"],
            "traced_cpu_ms_per_request": per_cpu["traced"],
            "overhead_ratio": per_cpu["traced"] / per_cpu["plain"] - 1.0,
            "spans": server_dump["spans"],
            "spans_kept": len(server_dump["records"]),
        },
        "attempted": len(outcomes_all),
        "failed": failed,
    }
