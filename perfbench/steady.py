"""Run workloads over several seeds and summarise each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workloads sweep-hc3i,serve-mixed --seeds 1-10
    python3 perfbench/steady.py --seeds 1-10 --record perfbench/trajectory.json \\
        --label "<commit> <host description>"

Each run is ``perfbench/run.py`` in its own process, one after another.
For every metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median`` that the benchmark's bounds are judged against.
``--record`` appends the summary as one trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from helpers import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    # the run's full record: gated metrics plus the informational ones
    path = ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summarise(results: list) -> dict:
    values: dict = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    out = {}
    for name, series in values.items():
        q1, med, q3, spread = quartile_spread(series)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(series)}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="trajectory JSON file to append the summary to")
    parser.add_argument("--label", default="", help="what was measured (commit, host)")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    entry = {"label": args.label, "seeds": args.seeds, "seconds": args.seconds,
             "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in seeds_of(args.seeds)]
        summary = summarise(results)
        entry["workloads"][workload] = summary
        print(f"{workload}: {len(results)} runs, "
              f"{sum(r['failed'] for r in results)} failed of {sum(r['attempted'] for r in results)}")
        for name, s in summary.items():
            bound, spread = bounds.get(name), s["spread"]
            flag = ""
            if bound is not None and spread is not None:
                flag = f"  bound {bound}  {'ok' if spread <= bound else 'WIDE'}"
            print(f"  {name:<34} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {'-' if spread is None else f'{spread:.3f}'}{flag}")
        sys.stdout.flush()
    if args.record:
        path = Path(args.record)
        trajectory = json.loads(path.read_text()) if path.exists() else {"entries": []}
        trajectory["entries"].append(entry)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
