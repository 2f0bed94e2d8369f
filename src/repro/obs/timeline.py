"""Per-quantum timelines folded from recorded traces.

A raw JSONL trace is a flat stream of heterogeneous events; every
consumer — the report (:mod:`repro.obs.report`), the diagnostics engine
(:mod:`repro.obs.diagnose`), the Chrome-trace export and the exec
layer's per-cell payloads — wants the run as the loop experienced it:
one typed sample per quantum carrying the solved latencies, the
controller's ``p`` and watermark bracket, migration volume, solver cost,
and phase wall time, plus run-level facts in a header.
:func:`build_timeline` is that fold, and the only code that reads trace
events by type. Events are grouped by their ``time_s`` stamp (the tracer
stamps every event of a quantum with the same simulated time, set once
per quantum by the loop), so the builder needs no quantum markers in the
stream and works on ring-buffer slices as well as full files.

A colocated trace labels each tenant's events with ``tenant``.
:func:`split_timelines` folds it into a machine timeline plus one
timeline per tenant (MaxMem-style per-application accounting). The
machine timeline sums occupancy, flows and churn over the tenants and
keeps the worst tenant's gap; it does not fold the tenants' controller
events, which interleave within a quantum and are answered per tenant.

Unknown/future event kinds are counted and skipped — a timeline built by
today's code must load tomorrow's traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.events import EVENT_SCHEMAS

#: Event kinds folded into per-quantum samples. Everything else (run
#: metadata, fleet progress, per-system extras) is either lifted into
#: the timeline header or left to the generic per-type counts.
_QUANTUM_EVENT_KINDS = (
    "solver_converged",
    "compute_shift",
    "watermark_reset",
    "colloid_decision",
    "migration_executed",
    "placement_sample",
    "phase_timing",
    "workload_shift",
    "contention_change",
)

#: The per-tenant controller's events. A colocated trace interleaves
#: several controllers within one quantum, so only a one-controller
#: timeline folds them.
_CONTROLLER_EVENT_KINDS = ("compute_shift", "watermark_reset",
                           "colloid_decision")


def _sum_matrices(a, b):
    """Element-wise sum of two nested-list matrices of equal shape."""
    return tuple(
        tuple(int(x) + int(y) for x, y in zip(row_a, row_b))
        for row_a, row_b in zip(a, b)
    )


@dataclass
class QuantumSample:
    """Everything the trace recorded about one quantum.

    Fields are ``None`` (or empty) when the corresponding event kind was
    not recorded for the quantum — e.g. a non-colloid system emits no
    ``compute_shift`` events, and ``phases_ns`` needs ``--profile``.
    """

    index: int
    time_s: float
    latencies_ns: Optional[Tuple[float, ...]] = None
    solver_iterations: Optional[int] = None
    solver_cached: Optional[bool] = None
    measured_p: Optional[float] = None
    p: Optional[float] = None
    p_lo: Optional[float] = None
    p_hi: Optional[float] = None
    dp: Optional[float] = None
    latency_default_ns: Optional[float] = None
    latency_alternate_ns: Optional[float] = None
    watermark_resets: int = 0
    reset_sides: Tuple[str, ...] = ()
    planned_bytes: int = 0
    executed_bytes: int = 0
    moves_deferred: int = 0
    moves_skipped: int = 0
    workload_shift: bool = False
    contention_change: bool = False
    contention: Optional[int] = None
    phases_ns: Dict[str, int] = field(default_factory=dict)
    occupancy_pages: Optional[Tuple[Tuple[int, ...], ...]] = None
    occupancy_bytes: Optional[Tuple[Tuple[int, ...], ...]] = None
    flow_bytes: Optional[Tuple[Tuple[int, ...], ...]] = None
    ping_pong_pages: int = 0
    wasted_migration_bytes: int = 0
    gap_packed: Optional[float] = None
    gap_balance: Optional[float] = None
    p_packed: Optional[float] = None
    p_balance: Optional[float] = None

    @property
    def imbalance(self) -> Optional[float]:
        """Relative latency imbalance |L_D - L_A| / L_A (the quantity
        Colloid drives to zero); None without compute_shift data."""
        l_d = self.latency_default_ns
        l_a = self.latency_alternate_ns
        if l_d is None or l_a is None or l_a <= 0:
            return None
        return abs(l_d - l_a) / l_a

    @property
    def epoch_boundary(self) -> bool:
        """Whether this quantum opens a new epoch (hot-set reshuffle or
        antagonist intensity change — both move the equilibrium)."""
        return self.workload_shift or self.contention_change


@dataclass
class Epoch:
    """A maximal run of quanta with stable access pattern and contention.

    Epoch 0 starts at the first quantum; each ``workload_shift``
    (hot-set reshuffle) or ``contention_change`` (antagonist intensity
    step) event opens a new epoch at the quantum it fired in. ``stop``
    is exclusive.
    """

    index: int
    start: int
    stop: int

    @property
    def n_quanta(self) -> int:
        return self.stop - self.start


@dataclass
class Timeline:
    """A trace folded into per-quantum samples plus run metadata.

    Attributes:
        meta: The ``run_start`` event's fields (empty if absent).
        quantum_s: Quantum length in seconds (None when the trace has no
            ``run_start`` metadata).
        samples: One :class:`QuantumSample` per observed quantum, in
            time order.
        epochs: Access-pattern epochs (always at least one when samples
            exist).
        event_counts: Per-kind event counts over the whole trace.
        unknown_event_counts: Counts of kinds absent from
            :data:`~repro.obs.events.EVENT_SCHEMAS` (skipped, never
            fatal).
        runtime_counters: The last ``run_end`` event's counter totals
            (empty if absent).
        tenants: Tenant labels in first-appearance order (empty for a
            single-app trace). With more than one, the controller's
            events are not folded (see :func:`split_timelines`).
        invariant_violations: ``invariant_violation`` events recorded by
            a ``--check`` run (each with ``invariant``, ``message`` and
            the offending quantum's ``time_s``).
        progress: The last ``run_progress`` event's fields — completed/
            total cells, wall time, completion throughput — for
            fleet-level traces (None otherwise).
        n_promoted: Pages promoted by fault-driven systems
            (``tpp_promotion`` events).
        n_demoted: Pages queued for kswapd demotion alongside those
            promotions.
        malformed_events: Events of a known kind whose payload could not
            be folded (e.g. ``phase_timing`` without a ``phases``
            mapping) — skipped and counted, never fatal.
    """

    meta: Dict = field(default_factory=dict)
    quantum_s: Optional[float] = None
    samples: List[QuantumSample] = field(default_factory=list)
    epochs: List[Epoch] = field(default_factory=list)
    event_counts: Dict[str, int] = field(default_factory=dict)
    unknown_event_counts: Dict[str, int] = field(default_factory=dict)
    runtime_counters: Dict[str, int] = field(default_factory=dict)
    tenants: Tuple[str, ...] = ()
    invariant_violations: List[Dict] = field(default_factory=list)
    progress: Optional[Dict] = None
    n_promoted: int = 0
    n_demoted: int = 0
    malformed_events: int = 0

    @property
    def n_quanta(self) -> int:
        return len(self.samples)

    @property
    def answers_controller(self) -> bool:
        """Whether the controller's events were folded: one tenant (or
        none) in the trace."""
        return len(self.tenants) <= 1

    def total(self, attr: str) -> int:
        """One integer sample attribute summed over the run."""
        return sum(getattr(sample, attr) for sample in self.samples)

    @property
    def phase_totals_ns(self) -> Dict[str, int]:
        """Profiled wall time per loop phase, summed over the quanta."""
        totals: Dict[str, int] = {}
        for sample in self.samples:
            for name, ns in sample.phases_ns.items():
                totals[name] = totals.get(name, 0) + ns
        return totals

    def epoch_samples(self, epoch: Epoch) -> List[QuantumSample]:
        """The samples belonging to one epoch."""
        return self.samples[epoch.start:epoch.stop]

    def series(self, attr: str) -> List:
        """One attribute across all samples (None where unrecorded)."""
        return [getattr(sample, attr) for sample in self.samples]


def _fold_into(sample: QuantumSample, event: dict) -> None:
    """Apply one quantum-scoped event to its sample."""
    etype = event["type"]
    if etype == "solver_converged":
        if "latencies_ns" in event:
            sample.latencies_ns = tuple(
                float(x) for x in event["latencies_ns"]
            )
        if "iterations" in event:
            sample.solver_iterations = int(event["iterations"])
        if "cached" in event:
            sample.solver_cached = bool(event["cached"])
        if "measured_p" in event:
            sample.measured_p = float(event["measured_p"])
    elif etype == "compute_shift":
        for name in ("p", "p_lo", "p_hi", "dp", "latency_default_ns",
                     "latency_alternate_ns"):
            if name in event:
                setattr(sample, name, float(event[name]))
    elif etype == "watermark_reset":
        side = str(event.get("side", "?"))
        sample.reset_sides = sample.reset_sides + (side,)
        if side != "init":
            sample.watermark_resets += 1
    elif etype == "migration_executed":
        sample.planned_bytes += int(event.get("planned_bytes", 0))
        sample.executed_bytes += int(event.get("executed_bytes", 0))
        sample.moves_deferred += int(event.get("moves_deferred", 0))
        sample.moves_skipped += int(event.get("moves_skipped", 0))
    elif etype == "placement_sample":
        # Tenant-labeled samples from colocated runs land on the same
        # quantum: occupancy and flows sum into the machine view, churn
        # counts add, and the gap keeps the worst tenant (per-tenant
        # views come from split_timelines).
        for src, dst in (("tier_pages", "occupancy_pages"),
                         ("tier_bytes", "occupancy_bytes"),
                         ("flow_bytes", "flow_bytes")):
            if event.get(src) is not None:
                matrix = tuple(tuple(int(x) for x in row)
                               for row in event[src])
                current = getattr(sample, dst)
                setattr(sample, dst, matrix if current is None
                        else _sum_matrices(current, matrix))
        sample.ping_pong_pages += int(event.get("ping_pong_pages", 0))
        sample.wasted_migration_bytes += int(
            event.get("wasted_bytes", 0)
        )
        for name in ("gap_packed", "gap_balance", "p_packed",
                     "p_balance"):
            if name in event:
                value = float(event[name])
                current = getattr(sample, name)
                if current is None or value > current:
                    setattr(sample, name, value)
    elif etype == "workload_shift":
        sample.workload_shift = True
    elif etype == "contention_change":
        sample.contention_change = True
        if "intensity" in event:
            sample.contention = int(event["intensity"])
    elif etype == "phase_timing":
        phases = event.get("phases")
        if not isinstance(phases, dict):
            raise ValueError("phase_timing event without a phases mapping")
        for name, ns in phases.items():
            sample.phases_ns[name] = sample.phases_ns.get(name, 0) + int(ns)


def _fold_header(timeline: Timeline, event: dict) -> None:
    """Apply one run-level event to the timeline header."""
    etype = event["type"]
    fields = {k: v for k, v in event.items() if k not in ("type", "time_s")}
    if etype == "run_start":
        if not timeline.meta:
            timeline.meta = fields
    elif etype == "run_end":
        counters = event.get("counters")
        if isinstance(counters, dict):
            timeline.runtime_counters = {
                name: int(value) for name, value in counters.items()
            }
    elif etype == "run_progress":
        timeline.progress = fields
    elif etype == "invariant_violation":
        timeline.invariant_violations.append(event)
    elif etype == "tpp_promotion":
        timeline.n_promoted += int(event.get("n_promoted", 0))
        timeline.n_demoted += int(event.get("n_demoted", 0))


def tenant_names_of(events: List[dict]) -> List[str]:
    """Tenant labels present in a trace, in first-appearance order.

    Empty for single-app traces — only colocated runs label events
    with ``tenant`` (see :class:`~repro.obs.tracer.TenantTracer`).
    """
    return list(dict.fromkeys(
        event["tenant"] for event in events
        if event.get("tenant") is not None
    ))


def tenant_view(events: List[dict], tenant: str) -> List[dict]:
    """One tenant's view of a colocated trace: its own labeled events
    plus the unlabeled machine-scoped ones (run_start, solver, ...)."""
    return [e for e in events if e.get("tenant", tenant) == tenant]


def build_timeline(events: List[dict]) -> Timeline:
    """Fold a list of trace events into a :class:`Timeline`.

    Raises:
        ConfigurationError: If ``events`` is empty. Unknown event kinds
            and malformed events never raise — they are counted in
            :attr:`Timeline.unknown_event_counts` /
            :attr:`Timeline.malformed_events` so that traces from newer
            code remain diagnosable.
    """
    if not events:
        raise ConfigurationError("trace contains no events")
    timeline = Timeline(tenants=tuple(tenant_names_of(events)))
    samples_by_time: Dict[float, QuantumSample] = {}
    for event in events:
        etype = event.get("type", "<untyped>")
        timeline.event_counts[etype] = (
            timeline.event_counts.get(etype, 0) + 1
        )
        if etype not in EVENT_SCHEMAS:
            timeline.unknown_event_counts[etype] = (
                timeline.unknown_event_counts.get(etype, 0) + 1
            )
            continue
        try:
            if etype not in _QUANTUM_EVENT_KINDS:
                _fold_header(timeline, event)
                continue
            if (etype in _CONTROLLER_EVENT_KINDS
                    and not timeline.answers_controller):
                continue
            time_s = float(event.get("time_s", 0.0))
            sample = samples_by_time.get(time_s)
            if sample is None:
                sample = QuantumSample(index=len(samples_by_time),
                                       time_s=time_s)
                samples_by_time[time_s] = sample
            _fold_into(sample, event)
        except (TypeError, ValueError):
            # A malformed field in an otherwise-known event: keep
            # whatever folded cleanly and count the event.
            timeline.malformed_events += 1

    timeline.samples = sorted(samples_by_time.values(),
                              key=lambda s: s.time_s)
    for index, sample in enumerate(timeline.samples):
        sample.index = index

    quantum_ms = timeline.meta.get("quantum_ms")
    if isinstance(quantum_ms, (int, float)) and quantum_ms > 0:
        timeline.quantum_s = float(quantum_ms) / 1e3

    # Epochs: a workload shift (or contention step) observed in quantum
    # k means the equilibrium moved *during* k, so k starts the new
    # epoch.
    starts = [0]
    for sample in timeline.samples:
        if sample.epoch_boundary and sample.index > 0:
            starts.append(sample.index)
    if timeline.samples:
        bounds = starts + [len(timeline.samples)]
        timeline.epochs = [
            Epoch(index=i, start=bounds[i], stop=bounds[i + 1])
            for i in range(len(starts))
        ]
    return timeline


def split_timelines(
        events: List[dict]) -> Tuple[Timeline, Dict[str, Timeline]]:
    """Fold a trace into its machine timeline plus one per tenant.

    The tenant mapping is empty for a single-app trace, whose machine
    timeline answers every question. For a colocated trace each tenant's
    timeline folds its view (:func:`tenant_view`), and the controller's
    questions are answered there only.
    """
    return build_timeline(events), {
        name: build_timeline(tenant_view(events, name))
        for name in tenant_names_of(events)
    }


__all__ = [
    "Epoch",
    "QuantumSample",
    "Timeline",
    "build_timeline",
    "split_timelines",
    "tenant_names_of",
    "tenant_view",
]
