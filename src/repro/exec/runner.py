"""Batch execution of run specs — serial or process-parallel.

The :class:`Runner` is the single entry point the figure harnesses
submit their spec lists to. It deduplicates identical specs within a
batch, consults the optional :class:`~repro.exec.cache.ResultCache`,
and executes the remainder either inline or over a
``ProcessPoolExecutor`` (``jobs > 1``). Because each spec seeds all of
its own randomness, parallel results are bit-identical to serial ones —
regardless of completion order or resumes. The Runner's
:class:`~repro.options.RunOptions` travel to every cell with its spec;
a cached result that lacks a payload they ask for (diagnostics, the
placement summary) is a miss, and the cell runs again.

The cache is also the resume store: every executed cell is stored the
moment it completes, so re-running a killed fleet with the same cache
executes only the cells that were missing. The pool keeps one cell in
flight per worker and consumes results in completion order, so a slow
cell never holds up the progress line or the stores behind it. A cell
that raises anything but a :class:`~repro.errors.ReproError` stops the
batch with a :class:`CellError` naming it; a deterministic cell would
only fail again on a retry, and the cells that completed are already in
the cache.

Repetition (the paper's mean-of-3 with min/max bars, Figure 1) is
first-class: :meth:`Runner.run_grid` expands every repeatable spec into
seed-varied copies and aggregates them into :class:`AggregatedCell`.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Callable,
    Dict,
    Hashable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.check.roundtrip import check_cache_fidelity
from repro.errors import ConfigurationError, ReproError
from repro.exec.cache import ResultCache
from repro.exec.execute import execute_spec
from repro.exec.progress import FleetProgress
from repro.exec.result import CellResult
from repro.exec.spec import RunSpec
from repro.options import RunOptions

#: How often a pool worker checks that the process that started it is
#: still there.
_PARENT_POLL_S = 0.25


def _exit_with_parent() -> None:
    """Pool-worker initializer: end the worker once its parent is gone.

    A fleet killed with SIGKILL cannot shut its pool down; its idle
    workers would block on the call queue forever and keep the fleet's
    stdout open. A daemon thread watches ``os.getppid()``, which changes
    when the parent dies and the worker is re-parented, and then exits
    the worker, mid-cell or idle.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch",
                     daemon=True).start()


def _serves(result: CellResult, spec: RunSpec,
            options: RunOptions) -> bool:
    """Whether a stored result carries every payload ``options`` ask
    for (best-case cells never carry any)."""
    if spec.mode == "best_case":
        return True
    return not ((options.diagnose and result.diagnostics is None)
                or (options.placement_audit is not None
                    and result.placement is None))


def derive_run_seed(spec: RunSpec, run_index: int) -> int:
    """Decorrelated per-run seed: hash of the spec content + run index.

    The previous scheme (``seed, seed + 1, ...``) made grid cells with
    consecutive base seeds share identical runs — cell A's run 1 was
    bit-identical to cell B's run 0 — silently correlating their error
    bars. Hash-derived seeds depend on the *whole* spec (including its
    base seed), so no two distinct cells can share a run stream.
    """
    if run_index < 0:
        raise ConfigurationError("run index must be non-negative")
    digest = hashlib.sha256(
        f"{spec.content_hash()}:run:{run_index}".encode()
    ).digest()
    # 63 bits keeps the seed a non-negative int64 for numpy and JSON.
    return int.from_bytes(digest[:8], "big") >> 1


def expand_seeds(spec: RunSpec, n_runs: int) -> Tuple[RunSpec, ...]:
    """``n_runs`` seed-varied copies of a spec.

    Run 0 keeps the spec's own seed (so a one-run grid cell equals
    ``run_one`` of the same spec); runs 1+ use
    :func:`derive_run_seed`'s content-hash derivation.
    """
    if n_runs < 1:
        raise ConfigurationError("need at least one run")
    return (spec,) + tuple(
        spec.with_seed(derive_run_seed(spec, i)) for i in range(1, n_runs)
    )


@dataclass(frozen=True)
class AggregatedCell:
    """Statistics over a cell's repeated runs.

    With a single run, the mean equals the run and the range collapses.
    Latency/share tails are averaged component-wise across runs.
    """

    throughput: float
    minimum: float
    maximum: float
    tail_latencies_ns: Tuple[float, ...]
    tail_default_share: float
    runs: Tuple[CellResult, ...]

    @property
    def throughput_range(self) -> Tuple[float, float]:
        """(min, max) error bars across runs."""
        return (self.minimum, self.maximum)

    @property
    def spread(self) -> float:
        """(max - min) / mean — the error-bar width."""
        if self.throughput == 0:
            return 0.0
        return (self.maximum - self.minimum) / self.throughput

    @property
    def tenants(self):
        """Per-tenant summaries for colocated cells, with throughput
        averaged across runs (other fields from the first run); None
        for single-tenant cells."""
        payloads = [r.tenants for r in self.runs if r.tenants]
        if not payloads:
            return None
        merged = {}
        for name, first in payloads[0].items():
            entry = dict(first)
            entry["throughput"] = (
                sum(p[name]["throughput"] for p in payloads)
                / len(payloads)
            )
            merged[name] = entry
        return merged

    @property
    def placement(self):
        """Placement-audit summaries for audited cells: mean shrinking
        gap across runs, worst churn (other fields from the first run);
        None for unaudited cells."""
        payloads = [r.placement for r in self.runs if r.placement]
        if not payloads:
            return None
        merged = dict(payloads[0])
        for key in ("gap_balance_last", "gap_packed_last"):
            values = [p[key] for p in payloads
                      if p.get(key) is not None]
            if values:
                merged[key] = sum(values) / len(values)
        merged["ping_pong_pages_peak"] = max(
            int(p.get("ping_pong_pages_peak", 0)) for p in payloads
        )
        merged["wasted_migration_bytes"] = max(
            int(p.get("wasted_migration_bytes", 0)) for p in payloads
        )
        return merged


def aggregate(results: Sequence[CellResult]) -> AggregatedCell:
    """Fold repeated runs of one cell into an :class:`AggregatedCell`.

    All runs must agree on mode and tier count: indexing every run by
    the first run's ``tail_latencies_ns`` length would otherwise raise
    a bare ``IndexError`` or silently drop tiers.
    """
    if not results:
        raise ConfigurationError("cannot aggregate zero results")
    modes = {r.mode for r in results}
    if len(modes) > 1:
        raise ConfigurationError(
            f"cannot aggregate mixed run modes {sorted(modes)}"
        )
    lengths = {len(r.tail_latencies_ns) for r in results}
    if len(lengths) > 1:
        raise ConfigurationError(
            "cannot aggregate runs with mismatched tail_latencies_ns "
            f"tier counts {sorted(lengths)}"
        )
    throughputs = [r.throughput for r in results]
    n_tiers = len(results[0].tail_latencies_ns)
    latencies = tuple(
        sum(r.tail_latencies_ns[i] for r in results) / len(results)
        for i in range(n_tiers)
    )
    share = sum(r.tail_default_share for r in results) / len(results)
    return AggregatedCell(
        throughput=sum(throughputs) / len(throughputs),
        minimum=min(throughputs),
        maximum=max(throughputs),
        tail_latencies_ns=latencies,
        tail_default_share=share,
        runs=tuple(results),
    )


class CellError(ReproError):
    """A cell raised something other than a :class:`ReproError`.

    The batch stops at once: every cell seeds its own randomness, so a
    retry would only repeat the failure. Cells that completed before it
    are already in the cache, so re-running the batch with it runs only
    the rest. A worker that died breaks the whole pool; the
    ``BrokenProcessPool`` is reported the same way, naming a cell that
    was in flight or being submitted (the pool cannot say which cell
    killed it). The original exception is chained as ``__cause__``.

    Attributes:
        spec: The failing cell.
    """

    def __init__(self, spec: RunSpec, error: BaseException) -> None:
        self.spec = spec
        super().__init__(f"cell {spec.describe()} failed: "
                         f"{type(error).__name__}: {error}")


@contextmanager
def _cell_errors(spec: RunSpec):
    """Wrap a cell's non-``ReproError`` failure in a :class:`CellError`;
    a ``ReproError`` passes through unchanged."""
    try:
        yield
    except ReproError:
        raise
    except Exception as error:  # noqa: BLE001 — names the cell
        raise CellError(spec, error) from error


@dataclass
class RunnerStats:
    """Cumulative accounting across a Runner's lifetime."""

    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    deduped: int = 0
    per_mode: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line summary (the CLI prints this after figure runs)."""
        return (f"cells: {self.cache_hits} cache hits, "
                f"{self.deduped} deduplicated, "
                f"new cells executed: {self.executed}")


class Runner:
    """Executes batches of :class:`RunSpec`, optionally in parallel.

    Args:
        jobs: Worker processes; 1 executes inline. Parallel execution
            is deterministic — results are keyed by spec and every spec
            seeds its own randomness, so completion order cannot change
            any value.
        cache: Optional on-disk result cache (opt-in), which is also
            the resume store: each executed cell is stored as it
            completes.
        progress: Optional callback receiving a short message as cells
            complete.
        reporter: Optional :class:`~repro.exec.progress.FleetProgress`
            receiving per-cell start/finish events (live ETA line and
            ``run_progress``/``cell_start`` trace events).
        options: What every cell observes, pickled with it to pool
            workers; None takes the environment defaults.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 reporter: Optional[FleetProgress] = None,
                 *,
                 options: Optional[RunOptions] = None) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.reporter = reporter
        self.options = RunOptions.resolve(options)
        self.stats = RunnerStats()

    # -- core batch API --------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> Dict[RunSpec, CellResult]:
        """Execute a batch; returns a result per *distinct* spec.

        Raises:
            CellError: As soon as a cell raises anything but a
                ``ReproError`` (which propagates unchanged). Cells
                completed before it are in the cache by then.
        """
        unique = list(dict.fromkeys(specs))
        self.stats.deduped += len(specs) - len(unique)
        options = self.options
        results: Dict[RunSpec, CellResult] = {}
        todo = []
        for spec in unique:
            cached = (self.cache.get(spec)
                      if self.cache is not None else None)
            if cached is not None and _serves(cached, spec, options):
                self.stats.cache_hits += 1
                self._note(f"cache hit  {spec.describe()}")
                results[spec] = cached
                continue
            if self.cache is not None:
                self.stats.cache_misses += 1
            todo.append(spec)
        total = len(todo)
        reporter = self.reporter
        if reporter is not None:
            reporter.begin(total)
        try:
            for index, (spec, result) in enumerate(self._execute(todo), 1):
                self.stats.executed += 1
                mode_counts = self.stats.per_mode
                mode_counts[spec.mode] = mode_counts.get(spec.mode, 0) + 1
                if self.cache is not None:
                    self.cache.put(spec, result)
                    if options.check:
                        check_cache_fidelity(self.cache, spec, result)
                self._note(f"[{index}/{total}] {spec.describe()}")
                if reporter is not None:
                    reporter.cell_done(spec.describe())
                results[spec] = result
        finally:
            if reporter is not None:
                reporter.finish()
        return results

    def run_one(self, spec: RunSpec) -> CellResult:
        """Execute (or fetch) a single spec."""
        return self.run([spec])[spec]

    def run_grid(self, cells: Mapping[Hashable, RunSpec],
                 n_runs: int = 1) -> Dict[Hashable, AggregatedCell]:
        """Run a keyed grid with uniform repetition.

        Every *repeatable* (steady-mode) spec is expanded into
        ``n_runs`` seed-varied copies; best-case and trace cells run
        once — repetition is a measurement concept and those cells are
        deterministic solves or explicit time series.
        """
        expanded: Dict[Hashable, Tuple[RunSpec, ...]] = {}
        for key, spec in cells.items():
            copies = n_runs if spec.repeatable else 1
            expanded[key] = expand_seeds(spec, max(1, copies))
        batch = [spec for specs in expanded.values() for spec in specs]
        results = self.run(batch)
        grid: Dict[Hashable, AggregatedCell] = {}
        for key, specs in expanded.items():
            try:
                grid[key] = aggregate([results[spec] for spec in specs])
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"cell {key!r} ({specs[0].describe()}): {error}"
                ) from error
        return grid

    # -- execution engines -----------------------------------------------

    def _execute(self, todo):
        """Yield ``(spec, CellResult)`` in completion order."""
        if self.jobs > 1 and len(todo) > 1:
            yield from self._execute_parallel(todo)
            return
        for spec in todo:
            self._report_start(spec)
            with _cell_errors(spec):
                result = execute_spec(spec, self.options)
            yield spec, result

    def _execute_parallel(self, todo):
        """``submit`` + completion-order consumption over a window of
        ``workers`` in-flight cells.

        The window equals the worker count, so every submitted cell is
        actually running (submission is a faithful start time for
        ``cell_start``), and a slow cell never head-of-line blocks the
        cells or progress behind it.
        """
        workers = min(self.jobs, len(todo))
        queue = iter(todo)
        inflight: Dict = {}
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_exit_with_parent) as pool:

            def submit(spec: RunSpec) -> None:
                # A pool broken by a worker that died refuses new work.
                with _cell_errors(spec):
                    future = pool.submit(execute_spec, spec, self.options)
                inflight[future] = spec
                self._report_start(spec)

            for spec in islice(queue, workers):
                submit(spec)
            while inflight:
                done, __ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    spec = inflight.pop(future)
                    with _cell_errors(spec):
                        result = future.result()
                    following = next(queue, None)
                    if following is not None:
                        submit(following)
                    yield spec, result

    # -- reporting -------------------------------------------------------

    def _report_start(self, spec: RunSpec) -> None:
        if self.reporter is not None:
            self.reporter.cell_start(spec.describe())

    def _note(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)
