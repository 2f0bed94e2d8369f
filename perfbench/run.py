#!/usr/bin/env python3
"""Benchmark runner for the Colloid reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-grid [--seed N]
        [--seconds S] [--trace 0|1]

One run assembles the workload's cells from the shipped simulation seeds
as ``--seed`` selects (``cells.assemble``), times several cold starts of
a fresh interpreter (imports plus spec, machine and workload
construction), then executes whole passes over the cells, serially in
this process and without a result cache, until ``--seconds`` are used
up. Successive untraced passes run each cell at another shipped seed. Every cell's simulated outputs are checked against
``reference.json``; a cell that raises or mismatches is counted as
failed and the run goes on.

Host times are scaled to a reference host speed (:class:`HostSpeed`):
a small shared VM's speed swings by tens of percent for seconds to
minutes at a time, which would otherwise dominate every comparison.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` the first pass runs untraced and later passes run the same
grid with the layer wrappers of ``layers.py`` installed; the run reports
per-layer metrics per pass and writes the spans to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

import cells
import layers

#: Cold starts timed per run; ``setup_s`` is their median.
COLD_STARTS = 5

OUT_DIR = cells.ROOT / ".perfbench"

END_TO_END_UNITS = {
    "wall_s": "s",
    "quanta_per_s": "quanta/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}


class HostSpeed:
    """Scales host seconds to a reference host speed.

    A calibration burst — a fixed mix of interpreter work and small numpy
    operations, like the simulator's, that calls nothing in ``repro`` —
    samples the host's current speed. Bursts run before and after each
    timed interval and, while :meth:`sampling` is active, every
    :attr:`PERIOD_S` from a ``SIGALRM`` handler inside it; time spent in
    those handlers is taken out of the interval. The interval's host
    time is then multiplied by :attr:`REFERENCE_BURST_S` over the mean
    burst time within it, so a phase in which the host runs everything
    30% slower leaves the result unchanged, while a change to the
    program moves it in full.
    """

    #: Burst time on the host that defines the reference speed (about
    #: the median on a 2-vCPU Xeon VM).
    REFERENCE_BURST_S = 0.0016
    ROUNDS = 200
    PERIOD_S = 0.1

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 64)
        #: Every burst time measured, in host seconds.
        self.samples: List[float] = []
        #: Host seconds spent in timer-driven bursts so far.
        self.paused_s = 0.0

    def _burst(self) -> None:
        np, x = self._np, self._x
        table = {}
        acc = 0.0
        start = perf_counter()
        for i in range(self.ROUNDS):
            y = x * 1.0001 + i
            np.sqrt(y, out=y)
            acc += float(y.sum())
            for j in range(16):
                table[j] = j * acc
        self.samples.append(perf_counter() - start)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self._burst()
        self.paused_s += perf_counter() - start

    def _boundary_burst(self) -> None:
        # A tick must not land inside a burst it would inflate; a tick
        # held here fires when the mask is lifted, outside any interval.
        blocked = {signal.SIGALRM}
        signal.pthread_sigmask(signal.SIG_BLOCK, blocked)
        try:
            self._burst()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, blocked)

    @contextmanager
    def sampling(self):
        """Sample the host speed every :attr:`PERIOD_S` inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn: Callable):
        """``(fn(), host seconds, seconds at the reference speed)``."""
        self._boundary_burst()
        first = len(self.samples) - 1
        paused = self.paused_s
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start - (self.paused_s - paused)
        self._boundary_burst()
        window = self.samples[first:]
        scale = self.REFERENCE_BURST_S * len(window) / sum(window)
        return result, elapsed, elapsed * scale


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=cells.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="selects each cell's shipped simulation seed "
                             "and the cell order (default 0)")
    parser.add_argument("--seconds", type=float, default=33.0,
                        help="measuring time budget (default 33)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> None:
    """Everything a run imports before its first cell."""
    import repro.check  # noqa: F401 — imported lazily by execute_spec
    import repro.exec.runner  # noqa: F401
    import repro.experiments.colocation  # noqa: F401
    import repro.experiments.fig5  # noqa: F401
    import repro.experiments.fig9  # noqa: F401
    import repro.obs.metrics  # noqa: F401
    import repro.runtime.colocation  # noqa: F401


def setup_probe(workload: str, seed: int) -> None:
    """A cold start's work: imports plus spec, machine and workload
    construction (runs in a fresh interpreter)."""
    _import_program()
    cells.construct_inputs(cells.assemble(workload, seed)[0])


def cold_start_s(workload: str, seed: int, speed: HostSpeed) -> float:
    """Seconds, at the reference speed, from launching a fresh
    interpreter to the end of its set-up."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed), "--setup-probe"]
    completed, __, ref_s = speed.time(lambda: subprocess.run(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True))
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr}")
    return ref_s


@dataclass
class Pass:
    """One pass over every cell."""

    #: Host seconds per cell, the same at the reference speed, and the
    #: simulated quanta of each cell that passed its check.
    cell_s: Dict[str, float] = field(default_factory=dict)
    cell_ref_s: Dict[str, float] = field(default_factory=dict)
    cell_quanta: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def host_s(self) -> float:
        return sum(self.cell_s.values())

    @property
    def ref_s(self) -> float:
        return sum(self.cell_ref_s.values())


def run_pass(runner, grid, reference, workload: str,
             speed: HostSpeed) -> Pass:
    record = Pass()
    for key, seed, spec in grid:
        (result, error), host_s, ref_s = speed.time(
            lambda: cells.run_cell(runner, spec))
        record.cell_s[key] = host_s
        record.cell_ref_s[key] = ref_s
        if error is None:
            error = cells.mismatch(
                cells.outputs(result),
                cells.expected_outputs(reference, workload, seed, key))
        if error is None:
            record.cell_quanta[key] = cells.quanta_of(spec, result)
        else:
            record.failures.append(f"{key}: {error}")
    return record


def end_to_end(passes: List[Pass], setup_s: float,
               attempted: int, failed: int) -> Dict[str, float]:
    """End-to-end metrics from the untraced passes.

    ``wall_s`` sums each cell's median time across passes, so one slow
    moment of the host moves one sample of one cell, not the total;
    ``quanta_per_s`` divides the matching sum of quanta by it.
    """
    keys = passes[0].cell_ref_s
    wall_s = sum(statistics.median(p.cell_ref_s[key] for p in passes)
                 for key in keys)
    quanta = sum(statistics.median(p.cell_quanta.get(key, 0) for p in passes)
                 for key in keys)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": wall_s,
        "quanta_per_s": quanta / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cells.harden_environment()
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"error: the repro package is not importable from "
              f"{cells.ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    from repro.exec.runner import Runner

    workload, seed = args.workload, args.seed
    reference = cells.load_reference()
    _import_program()
    grids = cells.assemble(workload, seed)
    speed = HostSpeed()
    setup_s = statistics.median(
        cold_start_s(workload, seed, speed) for _ in range(COLD_STARTS))

    runner = Runner()
    recorder = layers.SpanRecorder()
    untraced: List[Pass] = []
    traced: List[Pass] = []
    start = perf_counter()
    while True:
        if args.trace and untraced:
            # No timer bursts here: they would land inside layer spans.
            with layers.installed(recorder):
                traced.append(run_pass(runner, grids[0], reference,
                                       workload, speed))
        else:
            grid = grids[len(untraced) % len(grids)]
            with speed.sampling():
                untraced.append(run_pass(runner, grid, reference, workload,
                                         speed))
        done = untraced + traced
        elapsed = perf_counter() - start
        shortest = min(p.host_s for p in done)
        if elapsed + shortest > args.seconds and (traced or not args.trace):
            break

    attempted = len(grids[0]) * len(done)
    failures = [f for p in done for f in p.failures]
    print(f"{workload}: seed {seed} (simulation seeds "
          f"{list(cells.SHIPPED_SEEDS)}), {len(grids[0])} cells, "
          f"{len(untraced)} untraced + {len(traced)} traced passes, "
          f"{elapsed:.1f} s measured")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(f"  attempted {attempted} cells, failed_frac "
          f"{len(failures) / attempted:.4f}")
    print(f"  host seconds per untraced pass: "
          + ", ".join(f"{p.host_s:.3f}" for p in untraced)
          + "; calibration burst median "
          f"{statistics.median(speed.samples) * 1e3:.3f} ms "
          f"(reference {speed.REFERENCE_BURST_S * 1e3:.3f} ms)")
    if args.trace:
        traced_wall = statistics.mean(p.host_s for p in traced)
        overhead = (statistics.mean(p.ref_s for p in traced)
                    / statistics.median(p.ref_s for p in untraced) - 1.0)
        metrics = layers.layer_metrics(recorder, len(traced), traced_wall,
                                       overhead)
        units = layers.METRIC_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"trace-{workload}-seed{seed}.json.gz"
        recorder.dump(spans, origin=start)
        for layer in layers.LAYERS:
            share = metrics[f"{layer}.self_s"] / traced_wall
            print(f"  {layer:<20} {share:7.1%} of traced wall")
        print(f"  spans written to {spans.relative_to(cells.ROOT)}")
    else:
        metrics = end_to_end(untraced, setup_s, attempted, len(failures))
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
