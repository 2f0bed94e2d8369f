"""Per-quantum metrics recording."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QuantumRecord:
    """Snapshot of one simulation quantum.

    Attributes:
        time_s: Quantum start time.
        throughput: Application demand-read bandwidth (bytes/ns == GB/s).
        latencies_ns: Per-tier CPU-observed loaded latency.
        p_true: True default-tier share of application access probability.
        p_measured: CHA-measured request share of the default tier
            (includes antagonist and migration traffic).
        app_tier_bandwidth: Application wire bandwidth per tier.
        migration_bytes: Bytes migrated during the quantum.
        antagonist_intensity: Contention level in effect.
    """

    time_s: float
    throughput: float
    latencies_ns: np.ndarray
    p_true: float
    p_measured: float
    app_tier_bandwidth: np.ndarray
    migration_bytes: int
    antagonist_intensity: int


class MetricsRecorder:
    """Accumulates :class:`QuantumRecord` rows and exposes numpy views.

    The array views are memoized: the steady-state driver reads
    ``throughput`` after every chunk and the exporters read every
    series, so rebuilding an O(n) array per access made the accessors a
    hot path in their own right. ``record()`` invalidates the memo, and
    the arrays are marked read-only so a cached view can never be
    silently mutated by one consumer under another.
    """

    def __init__(self) -> None:
        self._records: List[QuantumRecord] = []
        self._built: dict = {}

    def record(self, record: QuantumRecord) -> None:
        """Append one quantum's snapshot (invalidates cached views)."""
        self._records.append(record)
        if self._built:
            self._built.clear()

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[QuantumRecord]:
        """All recorded quanta, in time order."""
        return list(self._records)

    def tail(self, n: int) -> List[QuantumRecord]:
        """The last ``n`` (at least one) recorded quanta, in time order."""
        if n < 1:
            raise ConfigurationError(f"tail length must be >= 1, got {n}")
        self._require_data()
        return self._records[-n:]

    def _require_data(self) -> None:
        if not self._records:
            raise ConfigurationError("no records yet")

    def _series(self, name: str, builder) -> np.ndarray:
        self._require_data()
        array = self._built.get(name)
        if array is None:
            array = builder()
            array.flags.writeable = False
            self._built[name] = array
        return array

    @property
    def time_s(self) -> np.ndarray:
        return self._series("time_s", lambda: np.array(
            [r.time_s for r in self._records]))

    @property
    def throughput(self) -> np.ndarray:
        return self._series("throughput", lambda: np.array(
            [r.throughput for r in self._records]))

    @property
    def latencies_ns(self) -> np.ndarray:
        """Shape (n_quanta, n_tiers)."""
        return self._series("latencies_ns", lambda: np.vstack(
            [r.latencies_ns for r in self._records]))

    @property
    def p_true(self) -> np.ndarray:
        return self._series("p_true", lambda: np.array(
            [r.p_true for r in self._records]))

    @property
    def p_measured(self) -> np.ndarray:
        return self._series("p_measured", lambda: np.array(
            [r.p_measured for r in self._records]))

    @property
    def app_tier_bandwidth(self) -> np.ndarray:
        """Shape (n_quanta, n_tiers)."""
        return self._series("app_tier_bandwidth", lambda: np.vstack(
            [r.app_tier_bandwidth for r in self._records]))

    @property
    def migration_bytes(self) -> np.ndarray:
        return self._series("migration_bytes", lambda: np.array(
            [r.migration_bytes for r in self._records]))

    def migration_rate_bytes_per_s(self, quantum_s: float) -> np.ndarray:
        """Migration rate series (Figure 10's metric)."""
        if quantum_s <= 0:
            raise ConfigurationError("quantum must be positive")
        return self.migration_bytes / quantum_s

    def steady_state_throughput(self, tail_fraction: float = 0.25) -> float:
        """Mean throughput over the last ``tail_fraction`` of the run.

        Raises:
            ConfigurationError: If ``tail_fraction`` is outside ``(0, 1]``
                — 0 would silently average the whole series and negative
                values would slice nonsense.
        """
        if not 0.0 < tail_fraction <= 1.0:
            raise ConfigurationError(
                f"tail_fraction must be in (0, 1], got {tail_fraction}"
            )
        series = self.throughput
        start = int(len(series) * (1 - tail_fraction))
        return float(series[start:].mean())
