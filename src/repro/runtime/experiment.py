"""Steady-state experiment running.

The paper "allows enough time so that each system reaches steady-state,
and measures steady-state application throughput" (§2.1). This module
automates that: run in chunks until the chunk-mean throughput stops
moving, then report the tail mean, with a hard duration cap as a backstop
for systems that converge slowly by design (TPP).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.runtime.loop import SimulationLoop
from repro.runtime.metrics import MetricsRecorder


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady-state measurement of one run.

    Attributes:
        throughput: Steady-state application throughput (GB/s demand
            reads) — the chunk-mean after settling.
        converged: Whether the settling criterion was met (False means
            the duration cap hit first and the tail mean is reported).
        duration_s: Total simulated time.
        metrics: The full time series for deeper analysis.
    """

    throughput: float
    converged: bool
    duration_s: float
    metrics: MetricsRecorder


def run_steady_state(
    loop: SimulationLoop,
    min_duration_s: float = 3.0,
    max_duration_s: float = 60.0,
    chunk_s: float = 1.0,
    tolerance: float = 0.01,
    settle_chunks: int = 2,
) -> SteadyStateResult:
    """Run ``loop`` until throughput settles; return the steady state.

    The steady-cell settle rule, not controller convergence (see "Three
    meanings of converged" in docs/OBSERVABILITY.md).

    Settling criterion: ``settle_chunks`` consecutive chunk means within
    ``tolerance`` (relative) of each other, after at least
    ``min_duration_s``.
    """
    if chunk_s <= 0 or min_duration_s <= 0 or max_duration_s < min_duration_s:
        raise ConfigurationError("invalid duration parameters")
    if not 0 < tolerance < 1:
        raise ConfigurationError("tolerance must be in (0, 1)")
    if settle_chunks < 1:
        raise ConfigurationError("settle_chunks must be >= 1")

    chunk_quanta = max(1, int(round(chunk_s / loop.quantum_s)))
    chunk_means: list = []
    elapsed = 0.0
    converged = False
    while elapsed < max_duration_s:
        total = 0.0
        for __ in range(chunk_quanta):
            total += loop.step().throughput
        elapsed += chunk_quanta * loop.quantum_s
        chunk_means.append(total / chunk_quanta)
        if elapsed >= min_duration_s and len(chunk_means) > settle_chunks:
            recent = chunk_means[-(settle_chunks + 1):]
            reference = recent[-1]
            if reference > 0 and all(
                abs(m - reference) <= tolerance * reference for m in recent
            ):
                converged = True
                break
    tail = chunk_means[-settle_chunks:]
    return SteadyStateResult(
        throughput=sum(tail) / len(tail),
        converged=converged,
        duration_s=elapsed,
        metrics=loop.metrics,
    )


@dataclass(frozen=True)
class RepeatedResult:
    """Steady-state statistics across repeated runs (the paper reports
    the mean of 3 runs with min/max error bars, Figure 1)."""

    mean: float
    minimum: float
    maximum: float
    runs: tuple

    @property
    def spread(self) -> float:
        """(max - min) / mean — the error-bar width."""
        if self.mean == 0:
            return 0.0
        return (self.maximum - self.minimum) / self.mean


def repeat_steady_state(loop_factory, n_runs: int = 3,
                        **steady_kwargs) -> RepeatedResult:
    """Run ``loop_factory(seed_index)`` ``n_runs`` times to steady state.

    Args:
        loop_factory: Callable taking a run index and returning a fresh
            :class:`~repro.runtime.loop.SimulationLoop` (vary the seed
            inside).
        n_runs: Number of repetitions.
        steady_kwargs: Forwarded to :func:`run_steady_state`.
    """
    if n_runs < 1:
        raise ConfigurationError("need at least one run")
    results = tuple(
        run_steady_state(loop_factory(i), **steady_kwargs)
        for i in range(n_runs)
    )
    throughputs = [r.throughput for r in results]
    return RepeatedResult(
        mean=sum(throughputs) / len(throughputs),
        minimum=min(throughputs),
        maximum=max(throughputs),
        runs=results,
    )
