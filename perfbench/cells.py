"""The benchmark's workloads: which cells each one runs, per seed.

Every workload is a list of ``(key, RunSpec)`` cells built through the
public experiment harnesses (``repro.experiments.fig5``, ``fig9`` and
``colocation``). A cell's simulated outputs are a pure function of its
spec, so each shipped seed has committed reference outputs in
``reference.json``; the benchmark compares every executed cell against
them at the golden suite's relative tolerance.

Regenerate the references (after a deliberate change to simulated
behaviour) with::

    python3 perfbench/cells.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: The golden suite's relative tolerance (tests/golden/test_golden.py).
REL_TOL = 1e-9

#: The bench config's migration limit: 8 MiB per 10 ms quantum.
MIGRATION_LIMIT_BYTES = 8 << 20

#: Steady-state duration caps (simulated seconds) per base system. The
#: Fig. 5 grid keeps the bench suite's caps, long enough for its cells
#: to settle; colocation runs only HeMem-based tenants and uses a longer
#: cap than the bench suite's so that its pass is about as long as the
#: others'.
FIG5_CAPS = {"hemem": 8.0, "memtis": 12.0, "tpp": 20.0}
COLOC_CAPS = {"hemem": 12.0}

#: Contention levels of the Fig. 5 grid: 1x, where the known seed
#: failures sit, and 3x, where Colloid's gain peaks. The full 0-3x sweep
#: takes about 30 s per pass, too long to time more than once in a run.
FIG5_INTENSITIES = (1, 3)

#: Fig. 9 timeline (disturbance time, total duration), simulated seconds.
FIG9_TIMELINE = (3.0, 4.5)
FIG9_SYSTEMS = ("hemem", "hemem+colloid")
FIG9_SCENARIOS = ("hotshift-3x", "contention")

SCALES = {"fig5-grid": 0.0625, "fig9-dynamic": 0.5, "coloc-silo": 0.0625}

#: Simulation seeds whose every cell of every workload completes, with
#: committed reference outputs. A run mixes them across cells (see
#: :func:`assemble`).
SHIPPED_SEEDS = (2, 3, 7)

WORKLOADS = tuple(SCALES)

Cell = Tuple[str, int, object]  # (key, simulation seed, RunSpec)


def harden_environment() -> None:
    """Pin native thread pools to one thread, drop every ``REPRO_*``
    switch (checks, metrics, caches, fault injection) so a run measures
    the plain program, and put ``src/`` on the import path. Call before
    numpy or ``repro`` is imported."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _config(workload: str, seed: int, caps=None):
    from repro.experiments.common import ExperimentConfig

    return ExperimentConfig(
        scale=SCALES[workload],
        seed=seed,
        migration_limit_bytes=MIGRATION_LIMIT_BYTES,
        duration_caps=caps,
    )


def build_cells(workload: str, seed: int) -> List[Tuple[str, object]]:
    """The workload's ``(key, spec)`` cells at simulation seed ``seed``,
    in grid order."""
    if workload == "fig5-grid":
        from repro.experiments import fig5

        grid = fig5.build_cells(_config(workload, seed, FIG5_CAPS),
                                intensities=FIG5_INTENSITIES)
        return [(f"{name}@{level}x", spec)
                for (name, level), spec in grid.items()]
    if workload == "fig9-dynamic":
        from repro.experiments import fig9

        config = _config(workload, seed)
        return [
            (f"{name}/{scenario}",
             fig9.scenario_spec(name, scenario, config,
                                timeline=FIG9_TIMELINE)[0])
            for name in FIG9_SYSTEMS for scenario in FIG9_SCENARIOS
        ]
    if workload == "coloc-silo":
        from repro.experiments import colocation

        grid = colocation.build_cells(_config(workload, seed, COLOC_CAPS))
        return [(f"{name}@{level}x", spec)
                for (name, level), spec in grid.items()]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose one of {', '.join(WORKLOADS)}")


def assemble(workload: str, seed: int) -> List[List[Cell]]:
    """The grids of cells a run with benchmark seed ``seed`` executes,
    one per shipped simulation seed; pass ``p`` of the run executes grid
    ``p % len(SHIPPED_SEEDS)``.

    In grid ``r``, cell ``i`` runs at shipped simulation seed
    ``SHIPPED_SEEDS[(seed + r + i) % k]``, and the order of every grid
    is rotated by ``seed``. Every seed thus gives other inputs, and each
    pass mixes all shipped seeds. Which cell draws which seed changes a
    pass's work by several percent, so successive passes rotate the
    draw: ``k`` passes run every cell at every shipped seed once, and
    host time does not hinge on the draw.
    """
    seeds = SHIPPED_SEEDS
    by_seed = [build_cells(workload, s) for s in seeds]
    shift = seed % len(by_seed[0])
    grids = []
    for r in range(len(seeds)):
        picked = []
        for i, (key, __) in enumerate(by_seed[0]):
            j = (seed + r + i) % len(seeds)
            picked.append((key, seeds[j], by_seed[j][i][1]))
        grids.append(picked[shift:] + picked[:shift])
    return grids


def construct_inputs(cells: Sequence[Cell]) -> None:
    """Build every workload and machine the cells describe — the set-up
    a cold start pays before its first cell."""
    for __, __, spec in cells:
        tenants = spec.tenants or ()
        workloads = [t.workload for t in tenants] or [spec.workload]
        built = [w.build() for w in workloads]
        spec.machine.build(built[0])


def run_cell(runner, spec):
    """Execute one cell; a ``ReproError`` is returned, never raised, so
    one failing cell cannot abort the workload."""
    from repro.errors import ReproError

    try:
        return runner.run_one(spec), None
    except ReproError as error:
        return None, f"{type(error).__name__}: {error}"


def quanta_of(spec, result) -> int:
    """Simulated quanta the cell executed (0 for an oracle sweep)."""
    return int(round(result.duration_s * 1000.0 / spec.quantum_ms))


def outputs(result) -> dict:
    """The simulated outputs a cell is checked on."""
    return {
        "throughput": float(result.throughput),
        "converged": result.converged,
        "duration_s": float(result.duration_s),
        "tail_latencies_ns": [float(x) for x in result.tail_latencies_ns],
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def mismatch(actual: dict, expected: Optional[dict]) -> Optional[str]:
    """None when ``actual`` matches the reference, else a reason."""
    if expected is None:
        return "no reference output"
    if actual["converged"] != expected["converged"]:
        return f"converged {actual['converged']} != {expected['converged']}"
    for field in ("throughput", "duration_s"):
        if not _close(actual[field], expected[field]):
            return f"{field} {actual[field]!r} != {expected[field]!r}"
    got, want = actual["tail_latencies_ns"], expected["tail_latencies_ns"]
    if len(got) != len(want) or not all(map(_close, got, want)):
        return f"tail_latencies_ns {got} != {want}"
    return None


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def expected_outputs(reference: dict, workload: str, seed: int,
                     key: str) -> Optional[dict]:
    return reference.get(workload, {}).get(str(seed), {}).get(key)


def write_reference(workloads: Sequence[str] = WORKLOADS) -> None:
    """Run every shipped seed's cells of ``workloads`` and commit their
    outputs; other workloads keep their committed references."""
    from repro.exec.runner import Runner

    reference = load_reference() if REFERENCE_PATH.exists() else {}
    for workload in workloads:
        reference[workload] = {}
        for seed in SHIPPED_SEEDS:
            per_cell = {}
            for key, spec in build_cells(workload, seed):
                result, error = run_cell(Runner(), spec)
                if error is not None:
                    raise SystemExit(f"{workload} seed {seed} {key}: {error}")
                per_cell[key] = outputs(result)
            reference[workload][str(seed)] = per_cell
            print(f"{workload} seed {seed}: {len(per_cell)} cells",
                  file=sys.stderr)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    harden_environment()
    write_reference(sys.argv[1:] or WORKLOADS)
