"""Benchmark entry point: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-hc3i --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced pass and prints every per-layer metric,
a per-layer self-time table with the tracing overhead, and writes a
Chrome trace to ``.perfbench-out/``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.

Workload inputs come from ``--seed`` alone; the program only ever sees
the generated grid overrides or request schedule.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SCRATCH = ROOT / ".perfbench-tmp"


def _workloads() -> dict:
    import serving  # imported once src/ is on sys.path
    import sweeps

    return {**{name: sweeps.run for name in sweeps.WORKLOADS}, "serve-mixed": serving.run}


def _table(result: dict) -> list:
    import layers

    lines = ["layer         spans        total_s      self_s"]
    for layer, spans, total, own in layers.layer_table(*result["dumps"]):
        lines.append(f"{layer:<12} {spans:>9d} {total:>12.4f} {own:>11.4f}")
    overhead = result["overhead"]
    lines.append(
        "tracing overhead: "
        + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in overhead.items())
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(sorted(workloads))}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    SCRATCH.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        result = workloads[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), scratch, SRC, OUT
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    import tracing

    if args.trace:
        values = result["per_layer"]
        values["trace.overhead_ratio"] = result["overhead"]["overhead_ratio"]
        values["trace.spans"] = result["overhead"]["spans"]
        values["trace.wrapper_ns"] = result["overhead"]["wrapper_ns"] = tracing.wrapper_cost_ns()
    else:
        values = result.get("e2e", {})
        values["ok_ratio"] = 1.0 - result["failed"] / result["attempted"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            continue  # only when a failed run could not measure it
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        print(f"{name:<34} {values[name]!r:>22} {metric['unit']}")
    info = result.get("info", {})
    for name, (value, unit) in info.items():
        print(f"  {name:<32} {value!r:>22} {unit}")
    for line in result["lines"] + (_table(result) if args.trace else []):
        print(line)
    everything = {**metrics, **{k: {"value": v, "unit": u} for k, (v, u) in info.items()}}
    tracing.write_json(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                       {"attempted": result["attempted"], "failed": result["failed"],
                        "metrics": everything})
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
