#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root)::

    python3 perfbench/spread.py [--seeds 10] [--first-seed 0]
        [--out results.json] [--against earlier.json]

Runs ``run.py`` once per (seed, workload) for every workload of
``BENCHMARK.json``, at its ``run_seconds``, serially. Workloads are
interleaved within each seed and their order rotates from seed to seed,
so a slow phase of the host does not land on one workload. For each
workload and end-to-end metric it prints the median, the quartiles and
the spread (distance between the quartiles over the median). With
``--against`` it also prints how far each median moved from an earlier
set's, which is the drift a metric's bound must cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n"
                         f"{completed.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for i in range(args.seeds):
        seed = args.first_seed + i
        k = i % len(workloads)
        for workload in workloads[k:] + workloads[:k]:
            metrics = run_once(workload, seed, seconds)
            runs[workload].append(metrics)
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{n}={v:.4g}" for n, v in metrics.items()), flush=True)

    summary = {w: {name: summarize([r[name] for r in rs])
                   for name in rs[0]} for w, rs in runs.items()}
    earlier = None
    if args.against is not None:
        with open(args.against) as handle:
            earlier = json.load(handle)["summary"]
    for workload, metrics in summary.items():
        print(f"{workload}:")
        for name, s in metrics.items():
            line = (f"  {name:<14} median {s['median']:.5g}  "
                    f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                    f"spread {s['spread']:.2%} (bound {bounds[name]:.0%})")
            if earlier is not None:
                before = earlier[workload][name]["median"]
                line += f"  drift {s['median'] / before - 1:+.2%}"
            print(line)
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump({"runs": runs, "summary": summary}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
