"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py DUMP.json serve --port 0 --cache-dir DIR

Runs the same ``repro.cli.main`` a user's ``repro serve`` runs, after
wrapping each layer's public functions (:func:`layers.install`).  A
request's ``x-perfbench-trace`` header becomes the trace id of every
span under it, including the point compute that ``ServeApp`` hands to a
worker thread: ``run_in_executor`` is made to carry the caller's
context into the thread.  On exit (SIGINT) the spans and counts are
written to ``DUMP.json``.
"""

from __future__ import annotations

import asyncio.base_events
import contextvars
import sys

import layers
import tracing


def _carry_context(original):
    def run_in_executor(self, executor, func, *args):
        return original(self, executor, contextvars.copy_context().run, func, *args)

    return run_in_executor


def main(argv) -> int:
    dump_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as repro_main

    tracer = tracing.Tracer(durations_for=("serve.handle",))
    loop_cls = asyncio.base_events.BaseEventLoop
    loop_cls.run_in_executor = _carry_context(loop_cls.run_in_executor)
    layers.install(tracer, serve=True)
    try:
        return repro_main(cli_args)
    finally:
        tracing.write_json(dump_path, tracer.dump())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
