"""Per-layer attribution for a traced benchmark run.

The program is not edited: :func:`installed` wraps the public entry
points of each ``repro`` package from here, records one span per call
(layer, start, end, parent span) in memory, and restores every original
binding on exit. Class methods are wrapped on the class that defines
them; functions are re-bound in each module that imported them by name
(``repro.exec.runner.execute_spec``, ``repro.exec.execute.best_case_sweep``
and so on), because patching only the defining module would miss those
call sites.

A layer's self time is its spans' duration minus the part covered by
child spans, so self times of all layers add up to the traced wall time
less whatever ran outside every span (``trace.unattributed_s``).
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

#: Layers in report order.
LAYERS = (
    "exec", "runtime.loop", "runtime.colocation", "workloads",
    "pages.tier_split", "memhw.solve", "memhw.solve_multi", "tiering.decide",
    "tracking", "core.controller", "core.finder", "pages.migrate",
    "pages.oracle",
)

#: Per-layer metrics a traced run reports, with their units.
METRIC_UNITS = {
    "memhw.solve.calls": "count",
    "memhw.solve.self_s": "s",
    "memhw.solve.hit_ratio": "ratio",
    "memhw.solve.sweeps_per_miss": "sweeps",
    "memhw.solve_multi.calls": "count",
    "memhw.solve_multi.self_s": "s",
    "memhw.solve_multi.hit_ratio": "ratio",
    "memhw.solve_multi.sweeps_per_miss": "sweeps",
    "tracking.calls": "count",
    "tracking.self_s": "s",
    "core.finder.calls": "count",
    "core.finder.self_s": "s",
    "core.controller.self_s": "s",
    "tiering.decide.self_s": "s",
    "pages.tier_split.self_s": "s",
    "pages.migrate.self_s": "s",
    "pages.migrate.bytes_moved": "bytes",
    "pages.migrate.deferred_ratio": "ratio",
    "pages.oracle.calls": "count",
    "pages.oracle.self_s": "s",
    "workloads.self_s": "s",
    "workloads.shifts": "count",
    "runtime.loop.self_s": "s",
    "runtime.colocation.self_s": "s",
    "runtime.quanta": "count",
    "exec.self_s": "s",
    "exec.cells": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

After = Callable[[Counter, tuple, object, bool], None]


class SpanRecorder:
    """In-memory spans plus per-layer self time, call and event counts.

    ``calls`` counts outermost entries only: a span nested directly in a
    span of the same layer (a subclass method calling its base's) is part
    of the same call.
    """

    def __init__(self) -> None:
        #: (layer, start_s, end_s, parent span index or -1).
        self.spans: List[Optional[tuple]] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        #: Layer-specific counts filled by the ``after`` hooks.
        self.counts: Counter = Counter()
        self._stack: List[list] = []

    def wrap(self, layer: str, fn: Callable,
             after: Optional[After] = None) -> Callable:
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer = parent is None or parent[0] != layer
            if outer:
                self.calls[layer] += 1
            index = len(spans)
            spans.append(None)
            # [layer, start, time covered by children, span index]
            frame = [layer, 0.0, 0.0, index]
            stack.append(frame)
            start = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                spans[index] = (layer, start, end,
                                parent[3] if parent is not None else -1)
            if after is not None:
                after(self.counts, args, result, outer)
            return result

        return wrapper

    def dump(self, path, origin: float) -> None:
        """Write the spans as a gzipped Chrome trace (Perfetto loads it);
        times are microseconds from ``origin``."""
        events = [
            {"name": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"span": i, "parent": parent}}
            for i, (layer, start, end, parent) in enumerate(
                span for span in self.spans if span is not None)
        ]
        with gzip.open(path, "wt") as handle:
            json.dump({"traceEvents": events}, handle)


# -- count hooks -------------------------------------------------------------

def _solve_counts(prefix: str) -> After:
    def after(counts, args, result, outer):
        if args[0].last_was_cache_hit:
            counts[f"{prefix}.hits"] += 1
        else:
            counts[f"{prefix}.misses"] += 1
            counts[f"{prefix}.sweeps"] += result.iterations
    return after


def _migrate_counts(counts, args, result, outer):
    counts["pages.migrate.planned"] += len(args[1])
    counts["pages.migrate.deferred"] += result.moves_deferred
    counts["pages.migrate.bytes_moved"] += result.bytes_moved


def _shift_counts(counts, args, result, outer):
    if outer and result:
        counts["workloads.shifts"] += 1


def _quantum_counts(counts, args, result, outer):
    counts["runtime.quanta"] += 1


def _cell_counts(counts, args, result, outer):
    counts["exec.cells"] += 1


# -- what gets wrapped ---------------------------------------------------------

def _subclasses(base) -> Iterator[type]:
    yield base
    for sub in base.__subclasses__():
        yield from _subclasses(sub)


def _defined(base, names) -> Iterator[tuple]:
    """(class, name) for every class under ``base`` whose own body
    defines a concrete ``name``."""
    seen = set()
    for cls in _subclasses(base):
        for name in names:
            fn = cls.__dict__.get(name)
            if (callable(fn) and not getattr(fn, "__isabstractmethod__",
                                             False)
                    and (cls, name) not in seen):
                seen.add((cls, name))
                yield cls, name


def _targets() -> List[tuple]:
    """(owner, attribute, layer, after hook) for every wrapped entry."""
    import repro.core.integrate  # noqa: F401 — registers Colloid systems
    import repro.exec.execute as execute
    import repro.exec.runner as runner
    import repro.pages.oracle as oracle
    import repro.runtime.experiment as experiment
    import repro.tiering.hemem  # noqa: F401
    import repro.tiering.memtis  # noqa: F401
    import repro.tiering.tpp  # noqa: F401
    import repro.workloads.dynamic  # noqa: F401
    import repro.workloads.gups  # noqa: F401
    import repro.workloads.silo  # noqa: F401
    from repro.core.controller import ColloidController
    from repro.core.finder import BinnedPageFinder, HotListPageFinder
    from repro.exec.spec import RunSpec
    from repro.memhw.fixedpoint import EquilibriumSolver
    from repro.pages.migration import MigrationExecutor
    from repro.pages.placement import PlacementState
    from repro.runtime.colocation import ColocatedLoop
    from repro.runtime.loop import SimulationLoop
    from repro.tiering.base import TieringSystem
    from repro.workloads.base import Workload

    targets = [
        (runner.Runner, "run", "exec", None),
        (runner, "execute_spec", "exec", _cell_counts),
        (execute, "execute_spec", "exec", _cell_counts),
        (RunSpec, "content_hash", "exec", None),
        (execute, "run_steady_state", "runtime.loop", None),
        (experiment, "run_steady_state", "runtime.loop", None),
        (SimulationLoop, "run", "runtime.loop", None),
        (SimulationLoop, "step", "runtime.loop", _quantum_counts),
        (ColocatedLoop, "run", "runtime.colocation", None),
        (ColocatedLoop, "step", "runtime.colocation", _quantum_counts),
        (PlacementState, "tier_probabilities", "pages.tier_split", None),
        (EquilibriumSolver, "solve", "memhw.solve",
         _solve_counts("memhw.solve")),
        (EquilibriumSolver, "solve_multi", "memhw.solve_multi",
         _solve_counts("memhw.solve_multi")),
        (ColloidController, "observe", "core.controller", None),
        (ColloidController, "decide", "core.controller", None),
        (BinnedPageFinder, "find", "core.finder", None),
        (HotListPageFinder, "find", "core.finder", None),
        (MigrationExecutor, "execute", "pages.migrate", _migrate_counts),
        (execute, "best_case_sweep", "pages.oracle", None),
        (oracle, "best_case_sweep", "pages.oracle", None),
    ]
    targets += [(cls, name, "tiering.decide", None)
                for cls, name in _defined(TieringSystem, ("quantum",))]
    targets += [(cls, name, "tracking", None)
                for cls, name in _defined(
                    TieringSystem, ("update_tracking", "collect_faults"))]
    targets += [(cls, name, "workloads",
                 _shift_counts if name == "advance" else None)
                for cls, name in _defined(
                    Workload, ("advance", "access_probabilities"))]
    return targets


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every target for the duration of the block, then restore
    the original bindings."""
    originals = []
    try:
        for owner, name, layer, after in _targets():
            original = (owner.__dict__[name] if isinstance(owner, type)
                        else getattr(owner, name))
            originals.append((owner, name, original))
            setattr(owner, name, recorder.wrap(layer, original, after))
        yield recorder
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


# -- metrics -----------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, passes: int, traced_wall_s: float,
                  overhead_frac: float) -> Dict[str, float]:
    """Per-pass layer metrics from ``passes`` traced passes whose mean
    host time was ``traced_wall_s``; ``overhead_frac`` compares them
    with the untraced passes of the same run."""
    self_s, calls, counts = recorder.self_s, recorder.calls, recorder.counts
    per = 1.0 / passes
    metrics = {f"{layer}.self_s": self_s[layer] * per
               for layer in LAYERS}
    for prefix in ("memhw.solve", "memhw.solve_multi"):
        hits, misses = counts[f"{prefix}.hits"], counts[f"{prefix}.misses"]
        metrics[f"{prefix}.calls"] = calls[prefix] * per
        metrics[f"{prefix}.hit_ratio"] = _ratio(hits, hits + misses)
        metrics[f"{prefix}.sweeps_per_miss"] = _ratio(
            counts[f"{prefix}.sweeps"], misses)
    for layer in ("tracking", "core.finder", "pages.oracle"):
        metrics[f"{layer}.calls"] = calls[layer] * per
    metrics["pages.migrate.bytes_moved"] = (
        counts["pages.migrate.bytes_moved"] * per)
    metrics["pages.migrate.deferred_ratio"] = _ratio(
        counts["pages.migrate.deferred"], counts["pages.migrate.planned"])
    for name in ("workloads.shifts", "runtime.quanta", "exec.cells"):
        metrics[name] = counts[name] * per
    attributed = sum(self_s.values()) * per
    metrics["trace.wall_s"] = traced_wall_s
    metrics["trace.unattributed_s"] = traced_wall_s - attributed
    metrics["trace.overhead_frac"] = overhead_frac
    return {name: metrics[name] for name in METRIC_UNITS}
