"""Fleet-level metrics: counters, gauges, and log-bucket histograms.

The tracing layer (:mod:`repro.obs.tracer`) answers "what did one run
decide, quantum by quantum"; this module answers "what did the whole
fleet do" — how many cells executed per mode, how wall time distributed
across quanta and cells, what the cache hit rate was. The design follows
Prometheus conventions (monotonic counters, point-in-time gauges,
fixed-bucket histograms with ``_sum``/``_count``) so snapshots export
directly as Prometheus text exposition, and every aggregate is
*mergeable*: per-worker snapshots from a ``--jobs N`` process pool fold
into one fleet view with :meth:`MetricsSnapshot.merge`, which is
associative and commutative by construction (counter sums, gauge
maxima, bucket-wise histogram sums).

Collection is the ``metrics`` field of :class:`~repro.options.RunOptions`.
The loop and the exec layer record when their options say so; components
below them (solver, executor, cache, placement observer) record when the
module-level :data:`METRICS` registry is enabled, which the CLI, each
:class:`~repro.exec.runner.Runner` batch and each ``--jobs`` worker
switch from the options. Disabled, every such site
costs one attribute check on the registry, the same contract the null
tracer makes.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Bumped whenever the snapshot payload layout changes (the JSON export
#: embeds snapshots).
METRICS_SCHEMA_VERSION = 1

_NAME_OK = set("abcdefghijklmnopqrstuvwxyz"
               "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(c not in _NAME_OK
                                            for c in name):
        raise ConfigurationError(
            f"invalid metric name {name!r}: use [a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


class Counter:
    """Monotonically increasing value (events, bytes, cells)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value (queue depth, RSS, worker count).

    Gauges merge across workers by **maximum** — the only of the three
    obvious policies (last-write, sum, max) that is associative and
    order-independent, and the right semantics for the gauges we track
    (peak RSS, high-watermark concurrency).
    """

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the running maximum (high-watermark gauges)."""
        if value > self._value:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed log-bucket histogram.

    Buckets are geometric: bucket ``i`` covers
    ``[start * factor**i, start * factor**(i+1))``. Values below
    ``start`` land in the underflow bucket, values at or above the top
    edge in the overflow bucket; exact lower edges belong to their
    bucket (half-open intervals). The geometry ties per-tier loaded
    latency (hundreds of ns to tens of us under contention) and wall
    times (us to minutes) into a handful of buckets with bounded
    relative error, and the fixed layout is what makes cross-worker
    merge a plain element-wise sum.
    """

    __slots__ = ("name", "help", "start", "factor", "n_buckets",
                 "counts", "underflow", "overflow", "sum", "count",
                 "_log_factor", "_log_start", "_edges")

    def __init__(self, name: str, start: float, factor: float,
                 n_buckets: int, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        if start <= 0:
            raise ConfigurationError("histogram start must be positive")
        if factor <= 1:
            raise ConfigurationError("histogram factor must be > 1")
        if n_buckets < 1:
            raise ConfigurationError("histogram needs >= 1 bucket")
        self.start = float(start)
        self.factor = float(factor)
        self.n_buckets = int(n_buckets)
        self.counts = [0] * self.n_buckets
        self.underflow = 0
        self.overflow = 0
        self.sum = 0.0
        self.count = 0
        self._log_factor = math.log(self.factor)
        self._log_start = math.log(self.start)
        self._edges = tuple(self.start * self.factor ** i
                            for i in range(self.n_buckets + 1))

    def bucket_index(self, value: float) -> int:
        """Bucket for ``value``: -1 underflow, ``n_buckets`` overflow."""
        if value < self.start:
            return -1
        if value >= self._edges[self.n_buckets]:
            return self.n_buckets
        index = min(int((math.log(value) - self._log_start)
                        / self._log_factor), self.n_buckets - 1)
        # Float log rounding can land an exact edge one bucket off in
        # either direction; nudge against the true half-open bounds.
        if value >= self._edges[index + 1]:
            index += 1
        elif index > 0 and value < self._edges[index]:
            index -= 1
        return index

    @property
    def edges(self) -> Tuple[float, ...]:
        """Bucket edges: ``edges[i]`` is bucket i's inclusive lower
        bound; ``edges[n_buckets]`` is the overflow threshold."""
        return self._edges

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.sum += value
        self.count += 1
        index = self.bucket_index(value)
        if index < 0:
            self.underflow += 1
        elif index >= self.n_buckets:
            self.overflow += 1
        else:
            self.counts[index] += 1

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "factor": self.factor,
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "sum": self.sum,
            "count": self.count,
        }


#: Snapshot payloads: plain dicts, JSON-safe, picklable across the pool.
CounterData = Dict[str, float]
GaugeData = Dict[str, float]
HistogramData = Dict[str, dict]


class MetricsSnapshot:
    """Immutable-by-convention value copy of a registry's state.

    This is what crosses process boundaries (workers return snapshots,
    the parent merges them) and what the exporters consume.
    """

    def __init__(self, counters: Optional[CounterData] = None,
                 gauges: Optional[GaugeData] = None,
                 histograms: Optional[HistogramData] = None,
                 help_texts: Optional[Dict[str, str]] = None) -> None:
        self.counters: CounterData = dict(counters or {})
        self.gauges: GaugeData = dict(gauges or {})
        self.histograms: HistogramData = {
            name: dict(data) for name, data in (histograms or {}).items()
        }
        self.help_texts: Dict[str, str] = dict(help_texts or {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return (self.counters == other.counters
                and self.gauges == other.gauges
                and self.histograms == other.histograms)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots (associative and commutative).

        Counters add, gauges take the maximum, histograms add
        bucket-wise. Histograms present in both snapshots must share
        their bucket geometry.
        """
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)
        histograms = {name: dict(data)
                      for name, data in self.histograms.items()}
        for name, data in other.histograms.items():
            mine = histograms.get(name)
            if mine is None:
                histograms[name] = dict(data)
                continue
            if (mine["start"] != data["start"]
                    or mine["factor"] != data["factor"]
                    or len(mine["counts"]) != len(data["counts"])):
                raise ConfigurationError(
                    f"cannot merge histogram {name!r}: bucket geometry "
                    "differs between snapshots"
                )
            histograms[name] = {
                "start": mine["start"],
                "factor": mine["factor"],
                "counts": [a + b for a, b in zip(mine["counts"],
                                                 data["counts"])],
                "underflow": mine["underflow"] + data["underflow"],
                "overflow": mine["overflow"] + data["overflow"],
                "sum": mine["sum"] + data["sum"],
                "count": mine["count"] + data["count"],
            }
        help_texts = dict(self.help_texts)
        help_texts.update(other.help_texts)
        return MetricsSnapshot(counters, gauges, histograms, help_texts)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "metrics_schema": METRICS_SCHEMA_VERSION,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {n: dict(d)
                           for n, d in self.histograms.items()},
            "help": dict(self.help_texts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        schema = data.get("metrics_schema")
        if schema != METRICS_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported metrics schema {schema!r} (expected "
                f"{METRICS_SCHEMA_VERSION})"
            )
        return cls(
            counters=data.get("counters", {}),
            gauges=data.get("gauges", {}),
            histograms=data.get("histograms", {}),
            help_texts=data.get("help", {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (one fleet-level scrape).

        Histogram buckets are rendered cumulatively with ``le`` labels
        on the buckets' upper edges plus ``+Inf``; our half-open
        intervals place an exact upper edge in the *next* bucket, a
        one-observation boundary approximation Prometheus consumers
        tolerate by design (bucket edges are advisory).
        """
        lines: List[str] = []

        def emit_meta(name: str, kind: str) -> None:
            help_text = self.help_texts.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        for name in sorted(self.counters):
            emit_meta(name, "counter")
            lines.append(f"{name} {_format_value(self.counters[name])}")
        for name in sorted(self.gauges):
            emit_meta(name, "gauge")
            lines.append(f"{name} {_format_value(self.gauges[name])}")
        for name in sorted(self.histograms):
            data = self.histograms[name]
            emit_meta(name, "histogram")
            cumulative = data["underflow"]
            edges = [data["start"] * data["factor"] ** (i + 1)
                     for i in range(len(data["counts"]))]
            for edge, count in zip(edges, data["counts"]):
                cumulative += count
                lines.append(
                    f'{name}_bucket{{le="{_format_value(edge)}"}} '
                    f"{cumulative}"
                )
            cumulative += data["overflow"]
            lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{name}_sum {_format_value(data['sum'])}")
            lines.append(f"{name}_count {data['count']}")
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def merge_snapshots(
    snapshots: List[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold any number of snapshots into one fleet view."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        merged = merged.merge(snapshot)
    return merged


class MetricsRegistry:
    """Named metric container with get-or-create registration.

    Instrumentation sites hold on to the metric objects they register
    (one dict lookup at setup, zero per observation) and guard with
    ``if METRICS.enabled:`` — the same single-attribute-check contract
    as the null tracer.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- registration ----------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        existing = self._counters.get(name)
        if existing is not None:
            return existing
        self._require_unregistered(name)
        metric = Counter(name, help)
        self._counters[name] = metric
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        existing = self._gauges.get(name)
        if existing is not None:
            return existing
        self._require_unregistered(name)
        metric = Gauge(name, help)
        self._gauges[name] = metric
        return metric

    def histogram(self, name: str, start: float, factor: float,
                  n_buckets: int, help: str = "") -> Histogram:
        existing = self._histograms.get(name)
        if existing is not None:
            if (existing.start != float(start)
                    or existing.factor != float(factor)
                    or existing.n_buckets != int(n_buckets)):
                raise ConfigurationError(
                    f"histogram {name!r} already registered with a "
                    "different bucket geometry"
                )
            return existing
        self._require_unregistered(name)
        metric = Histogram(name, start, factor, n_buckets, help)
        self._histograms[name] = metric
        return metric

    def _require_unregistered(self, name: str) -> None:
        if (name in self._counters or name in self._gauges
                or name in self._histograms):
            raise ConfigurationError(
                f"metric {name!r} already registered as another type"
            )

    # -- collection ------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Copy the current state (safe to pickle across processes)."""
        help_texts = {}
        for family in (self._counters, self._gauges, self._histograms):
            for name, metric in family.items():
                if metric.help:
                    help_texts[name] = metric.help
        return MetricsSnapshot(
            counters={n: c.value for n, c in self._counters.items()},
            gauges={n: g.value for n, g in self._gauges.items()},
            histograms={n: h.to_dict()
                        for n, h in self._histograms.items()},
            help_texts=help_texts,
        )

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Merge a (worker's) snapshot into this registry's live state."""
        for name, value in snapshot.counters.items():
            self.counter(name, snapshot.help_texts.get(name, "")) \
                .inc(value)
        for name, value in snapshot.gauges.items():
            self.gauge(name, snapshot.help_texts.get(name, "")) \
                .set_max(value)
        for name, data in snapshot.histograms.items():
            hist = self.histogram(
                name, data["start"], data["factor"], len(data["counts"]),
                snapshot.help_texts.get(name, ""),
            )
            for i, count in enumerate(data["counts"]):
                hist.counts[i] += count
            hist.underflow += data["underflow"]
            hist.overflow += data["overflow"]
            hist.sum += data["sum"]
            hist.count += data["count"]

    def reset(self) -> None:
        """Zero every registered metric (keeps registrations).

        Pool workers call this between cells so each cell's snapshot is
        a self-contained delta the parent can absorb without
        double-counting.
        """
        for counter in self._counters.values():
            counter._value = 0.0
        for gauge in self._gauges.values():
            gauge._value = 0.0
        for hist in self._histograms.values():
            hist.counts = [0] * hist.n_buckets
            hist.underflow = 0
            hist.overflow = 0
            hist.sum = 0.0
            hist.count = 0


#: Process-wide registry, disabled until the CLI, a ``Runner`` batch or
#: a pool worker switches it from the run's options.
METRICS = MetricsRegistry()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "MetricsSnapshot",
    "merge_snapshots",
]
