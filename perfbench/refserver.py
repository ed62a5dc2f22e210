"""A frozen reference HTTP server: the yardstick of the ``serve-mixed`` figures.

Usage::

    python3 perfbench/refserver.py DIR

Prints ``refserver: listening on http://127.0.0.1:PORT`` and answers every keep-alive
GET with a small JSON body until SIGINT.  Per request it does what a
point fetch of ``repro serve`` does in kind, on stdlib asyncio streams:
parse the head and the query, stat a few journal-like files, hash the
canonical parameters, load a pickle from ``DIR`` for every other key,
and render sorted JSON.

On a shared virtual machine the cost of exactly this kind of work --
wake-ups, loopback sockets, small file reads -- drifts by +-20% over
minutes, and a pure-Python loop (``calibration.py``) does not follow
it.  The benchmark therefore sends every open-loop chunk of requests to
``repro serve`` and then the same chunk to this server, pinned to the
same CPU, and reports the ratio scaled by :data:`REFERENCE_CPU_MS` and
:data:`REFERENCE_P50_MS`: server CPU time and latency on a host where
this server takes exactly that long.

This file belongs to the benchmark, not to the program, and must never
change with the code under test, or a gain would cancel itself.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pickle
import sys
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

#: server CPU milliseconds per request of this server at the benchmark's
#: low rate, on the reference host (2-vCPU VM, Intel Xeon, Python 3.11.7)
REFERENCE_CPU_MS = 0.28
#: read p50 in milliseconds of this server at the low rate, same host
REFERENCE_P50_MS = 1.12

_JOURNALS = 4
_VALUES = 16


def _populate(root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for i in range(_JOURNALS):
        (root / f"journal.{i:02d}.jsonl").write_text("{}\n" * (i + 1))
    for i in range(_VALUES):
        value = {"messages": {f"{a}->{b}": (i + a * 2 + b) % 3 for a in range(2) for b in range(2)}}
        (root / f"value.{i:02d}.pkl").write_bytes(pickle.dumps(value))


def render(root: Path, target: str) -> bytes:
    """The body for one request target."""
    url = urlsplit(target)
    params = dict(parse_qsl(url.query))
    watermark = sum(os.stat(root / f"journal.{i:02d}.jsonl").st_size for i in range(_JOURNALS))
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(canonical.encode()).hexdigest()
    index = int(key[:8], 16)
    value = None
    if index % 2:
        with open(root / f"value.{index % _VALUES:02d}.pkl", "rb") as fh:
            value = pickle.load(fh)
    body = {"path": url.path, "key": key, "params": params, "value": value,
            "watermark": watermark}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


async def _connection(root: Path, reader, writer) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            _method, target, _version = lines[0].split(" ", 2)
            headers = {}
            for line in lines[1:]:
                name, sep, value = line.partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            body = render(root, target)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def _serve(root: Path) -> None:
    server = await asyncio.start_server(
        lambda r, w: _connection(root, r, w), "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"refserver: listening on http://127.0.0.1:{port}", flush=True)
    async with server:
        await server.serve_forever()


def main(argv) -> int:
    root = Path(argv[0])
    _populate(root)
    try:
        asyncio.run(_serve(root))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
