"""Tests of the benchmark itself.

Run from the repository root with::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import functools
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import cells

cells.harden_environment()

import layers  # noqa: E402
import run  # noqa: E402
from repro.exec.runner import Runner  # noqa: E402
from repro.memhw.fixedpoint import EquilibriumSolver  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEED = run.HostSpeed()


def _cell(workload: str, seed: int, key: str):
    spec = dict(cells.build_cells(workload, seed))[key]
    return key, seed, spec


def test_seed_42_failure_is_counted_not_raised():
    # Seed 42's (hemem+colloid, 1x) solve exhausts the fixed-point
    # iteration; the pass must record it and go on to the next cell.
    grid = [_cell("fig5-grid", 42, "hemem+colloid@1x"),
            _cell("fig5-grid", 2, "best-case@1x")]
    reference = cells.load_reference()
    record = run.run_pass(Runner(), grid, reference, "fig5-grid", SPEED)
    assert len(record.failures) == 1
    assert record.failures[0].startswith(
        "hemem+colloid@1x: ConvergenceError")
    assert set(record.cell_s) == {"hemem+colloid@1x", "best-case@1x"}


def test_missing_reference_counts_as_failure():
    grid = [_cell("fig5-grid", 42, "best-case@1x")]
    record = run.run_pass(Runner(), grid, cells.load_reference(),
                          "fig5-grid", SPEED)
    assert record.failures == ["best-case@1x: no reference output"]


def test_mismatch_uses_golden_tolerance():
    reference = cells.load_reference()
    expected = cells.expected_outputs(reference, "fig5-grid", 2, "hemem@1x")
    assert cells.mismatch(dict(expected), expected) is None
    close = dict(expected, throughput=expected["throughput"] * (1 + 1e-12))
    assert cells.mismatch(close, expected) is None
    far = dict(expected, throughput=expected["throughput"] * (1 + 1e-6))
    assert cells.mismatch(far, expected).startswith("throughput")
    flipped = dict(expected, converged=not expected["converged"])
    assert cells.mismatch(flipped, expected).startswith("converged")


def _draws(grids):
    return [[(key, seed) for key, seed, __ in grid] for grid in grids]


def test_assemble_is_deterministic_and_mixes_shipped_seeds():
    first = cells.assemble("fig5-grid", 5)
    assert _draws(first) == _draws(cells.assemble("fig5-grid", 5))
    assert _draws(first) != _draws(cells.assemble("fig5-grid", 6))
    for grid in first:
        assert {s for __, s, __ in grid} == set(cells.SHIPPED_SEEDS)
    # One pass per grid runs every cell at every shipped seed once.
    keys = [key for key, __ in cells.build_cells("fig5-grid", 2)]
    assert sorted(pair for draw in _draws(first) for pair in draw) == \
        sorted((key, s) for key in keys for s in cells.SHIPPED_SEEDS)


def test_every_shipped_cell_has_a_settled_reference():
    # Steady-state cells must settle before their duration cap, so that
    # a run times the steady-state grid and not a truncated transient.
    reference = cells.load_reference()
    for workload in cells.WORKLOADS:
        for seed in cells.SHIPPED_SEEDS:
            for key, __ in cells.build_cells(workload, seed):
                expected = cells.expected_outputs(reference, workload, seed,
                                                  key)
                assert expected is not None, (workload, seed, key)
                assert expected["converged"] is not False, (workload, seed,
                                                            key)


def test_traced_counts_repeat_and_outputs_match_reference():
    grids = {
        "fig5-grid": [_cell("fig5-grid", 2, "best-case@3x"),
                      _cell("fig5-grid", 3, "tpp+colloid@1x"),
                      _cell("fig5-grid", 7, "memtis@3x")],
        "coloc-silo": [_cell("coloc-silo", 2, "hemem+colloid@2x")],
    }
    reference = cells.load_reference()
    original_solve = EquilibriumSolver.__dict__["solve"]
    counts = []
    for __ in range(2):
        recorder = layers.SpanRecorder()
        with layers.installed(recorder):
            for workload, grid in grids.items():
                record = run.run_pass(Runner(), grid, reference, workload,
                                      SPEED)
                assert record.failures == []
        counts.append((dict(recorder.calls), dict(recorder.counts)))
        assert EquilibriumSolver.__dict__["solve"] is original_solve
    assert counts[0] == counts[1]
    calls, events = counts[0]
    assert calls["pages.oracle"] == 1
    assert events["exec.cells"] == 4
    for layer in ("memhw.solve", "memhw.solve_multi", "tracking",
                  "core.finder", "runtime.colocation"):
        assert calls[layer] > 0, layer


def _spin(n: int = 20_000) -> int:
    total = 0
    for i in range(n):
        total += i
    return total


def test_scaled_time_shows_an_injected_slowdown():
    # Fixed extra work in every solve must raise the scaled cell time by
    # that work's own scaled cost: the calibration bursts that run inside
    # the cell must not cancel part of a real slowdown.
    grid = [_cell("fig5-grid", 2, "memtis+colloid@3x")]
    reference = cells.load_reference()
    original = EquilibriumSolver.__dict__["solve"]
    calls = [0]

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        calls[0] += 1
        _spin()
        return original(*args, **kwargs)

    def cell_ref_s() -> float:
        with SPEED.sampling():
            record = run.run_pass(Runner(), grid, reference, "fig5-grid",
                                  SPEED)
        assert record.failures == []
        return record.ref_s

    plain, slow = [], []
    for __ in range(3):
        plain.append(cell_ref_s())
        EquilibriumSolver.solve = slowed
        try:
            slow.append(cell_ref_s())
        finally:
            EquilibriumSolver.solve = original
    spin_ref_s = statistics.median(
        SPEED.time(lambda: [_spin() for __ in range(100)])[2] / 100
        for __ in range(5))
    injected = calls[0] / 3 * spin_ref_s
    rise = statistics.median(slow) - statistics.median(plain)
    assert injected > 0.5 * statistics.median(plain)
    assert 0.8 * injected < rise < 1.2 * injected, (rise, injected)


def test_metric_names_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        layers.METRIC_UNITS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(cells.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    # A directory holding only BENCHMARK.json and the benchmark's files
    # has nothing to measure: the run must fail without a result line.
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


@pytest.mark.parametrize("argv", [["--workload", "nope"],
                                  ["--workload", "fig5-grid", "--seed", "-1"]])
def test_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit):
        run.parse_args(argv)
