"""Rule-based run-health diagnostics over per-quantum timelines.

The paper's headline claims are behavioral: the Colloid loop must
*converge* to latency balance within tens of quanta (§3.2), must not
*oscillate* around the watermark bracket, and must not *thrash*
migrations under dynamic workloads (§5). :func:`diagnose_timeline` runs
a pluggable set of detectors over a :class:`~repro.obs.timeline.Timeline`
and turns those claims into structured, machine-checkable
:class:`Finding`\\ s — every trace becomes self-judging.

Detectors are pure functions ``(timeline, config) -> [Finding]``
registered in :data:`DETECTORS`; adding one is adding a function. The
:class:`DiagnosticsSummary` distills the behavioral scores CI and the
tests pin: convergence quanta per epoch, an oscillation score (sign-flip
rate of the controller's ``p`` movements), and a thrash score
(post-convergence migration rate relative to the convergence transient).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.timeline import Epoch, Timeline, build_timeline

#: Ordered from benign to fatal; CLI exit codes key off ``critical``.
SEVERITIES = ("info", "warning", "critical")

def _severity_rank(severity: str) -> int:
    return SEVERITIES.index(severity) if severity in SEVERITIES else 0


@dataclass(frozen=True)
class Finding:
    """One detector verdict about a span of the run.

    Attributes:
        detector: Machine-readable detector name.
        severity: One of :data:`SEVERITIES`.
        quantum_span: ``(first, last)`` quantum indices the finding
            covers (inclusive).
        message: One-line human description.
        evidence: Plain scalars/lists backing the verdict.
        remediation: What to try if the finding is unwanted.
    """

    detector: str
    severity: str
    quantum_span: Tuple[int, int]
    message: str
    evidence: Dict = field(default_factory=dict)
    remediation: str = ""

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "quantum_span": list(self.quantum_span),
            "message": self.message,
            "evidence": dict(self.evidence),
            "remediation": self.remediation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            detector=data["detector"],
            severity=data["severity"],
            quantum_span=tuple(data.get("quantum_span", (0, 0))),
            message=data.get("message", ""),
            evidence=dict(data.get("evidence", {})),
            remediation=data.get("remediation", ""),
        )


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Detector thresholds (all tunable; defaults match the paper's
    steady-state expectations at simulation scale).

    Attributes:
        epsilon: Relative latency-imbalance |L_D - L_A| / L_A below
            which a quantum counts as balanced.
        sustain_quanta: Consecutive balanced quanta required before an
            epoch counts as converged.
        settle_window_quanta: Window width for the second convergence
            criterion — ``p`` staying inside a narrow band. Capacity- or
            policy-bound corner equilibria never balance latencies
            (e.g. every hot page already sits in the default tier), yet
            the controller is done the moment ``p`` stops moving.
        settle_band_p: Band width on ``p`` for the settle criterion.
        min_epoch_quanta: Epochs shorter than this are not judged for
            convergence (too little signal).
        deadband_p: |Δp| below this is controller noise, not movement.
            Must sit above the CHA-noise-induced jitter: with noise
            sigma 0.01 the quantum-to-quantum Δp std is ~0.014, and
            successive differences of iid noise reverse sign with
            probability 2/3 — a deadband below ~2 sigma makes every
            healthy run read as oscillating.
        oscillation_warn/oscillation_critical: Sign-flip rate of
            significant Δp movements that triggers each severity.
        min_flip_moves: Minimum significant movements before the flip
            rate is meaningful.
        storm_window_quanta: Sliding-window width for reset storms.
        storm_warn/storm_critical: Dynamic watermark resets within one
            window that trigger each severity.
        shift_grace_quanta: Resets within this many quanta of an epoch
            boundary (hot-set shift or contention change) are the
            mechanism working as designed (Fig. 4c), not a storm.
        thrash_min_bytes: Ignore post-convergence migration below this.
        thrash_warn/thrash_critical: Post/pre-convergence migration-rate
            ratio triggering each severity.
        drift_rise: Post-convergence imbalance rise (absolute, over the
            window) that counts as residual drift.
        iter_spike_factor: Solver iterations beyond this multiple of the
            run median flag an anomaly.
        iter_floor: ...but never below this absolute count.
        cache_hit_warn: Steady-state solver-cache hit rate below this is
            flagged (perf smell, severity info).
        ping_pong_min_pages: Pages ping-ponging (>= 2 migration
            direction reversals inside the flow tracker's window)
            before a quantum counts toward a churn streak.
        ping_pong_sustain_quanta: Consecutive churning quanta that
            trigger the ping-pong finding (warning; 3x for critical).
        misplacement_grace_quanta: Audits within this many quanta of an
            epoch boundary are the controller still converging, not
            misplacement.
        misplacement_gap_warn/misplacement_gap_critical: Post-grace
            mean misplacement gap vs the latency-balance placement that
            triggers each severity.
    """

    epsilon: float = 0.10
    sustain_quanta: int = 5
    settle_window_quanta: int = 20
    settle_band_p: float = 0.02
    min_epoch_quanta: int = 10
    deadband_p: float = 0.03
    oscillation_warn: float = 0.35
    oscillation_critical: float = 0.6
    min_flip_moves: int = 8
    storm_window_quanta: int = 50
    storm_warn: int = 3
    storm_critical: int = 6
    shift_grace_quanta: int = 20
    thrash_min_bytes: int = 1 << 20
    thrash_warn: float = 0.25
    thrash_critical: float = 0.75
    drift_rise: float = 0.10
    iter_spike_factor: float = 4.0
    iter_floor: int = 25
    cache_hit_warn: float = 0.2
    ping_pong_min_pages: int = 4
    ping_pong_sustain_quanta: int = 10
    misplacement_grace_quanta: int = 30
    misplacement_gap_warn: float = 0.05
    misplacement_gap_critical: float = 0.15

    def __post_init__(self) -> None:
        if self.sustain_quanta < 1:
            raise ConfigurationError(
                f"sustain_quanta must be >= 1, got {self.sustain_quanta}")
        if not self.epsilon > 0:
            raise ConfigurationError(
                f"epsilon must be > 0, got {self.epsilon}")


#: Shared default configuration.
DEFAULT_CONFIG = DiagnosticsConfig()


@dataclass(frozen=True)
class DiagnosticsSummary:
    """The behavioral scores a run distills to.

    Attributes:
        n_quanta: Quanta observed in the timeline.
        n_epochs: Access-pattern epochs (1 + hot-set shifts).
        convergence_quanta: Per-epoch quanta-to-balance (None where the
            epoch never converged or carried no controller data).
        oscillation_score: Worst per-epoch sign-flip rate of significant
            ``p`` movements in the analysis window (0 = monotone, 1 =
            every movement reverses the last).
        thrash_score: Worst per-epoch post/pre-convergence migration
            byte-rate ratio (0 = migrations stop once balanced).
        watermark_resets: Dynamic (non-init) resets over the run.
        findings: Count of findings per severity.
        max_severity: Highest severity present (None without findings).
        misplacement_gap_first: First audited misplacement gap vs the
            latency-balance placement (None without placement audits).
        misplacement_gap_last: Last audited misplacement gap — the
            number "did the system converge to balance?" reads off.
        ping_pong_peak: Peak ping-pong page count across the run (0
            without placement samples).
    """

    n_quanta: int
    n_epochs: int
    convergence_quanta: Tuple[Optional[int], ...]
    oscillation_score: float
    thrash_score: float
    watermark_resets: int
    findings: Dict[str, int] = field(default_factory=dict)
    max_severity: Optional[str] = None
    misplacement_gap_first: Optional[float] = None
    misplacement_gap_last: Optional[float] = None
    ping_pong_peak: int = 0

    def to_dict(self) -> dict:
        return {
            "n_quanta": self.n_quanta,
            "n_epochs": self.n_epochs,
            "convergence_quanta": list(self.convergence_quanta),
            "oscillation_score": self.oscillation_score,
            "thrash_score": self.thrash_score,
            "watermark_resets": self.watermark_resets,
            "findings": dict(self.findings),
            "max_severity": self.max_severity,
            "misplacement_gap_first": self.misplacement_gap_first,
            "misplacement_gap_last": self.misplacement_gap_last,
            "ping_pong_peak": self.ping_pong_peak,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiagnosticsSummary":
        gap_first = data.get("misplacement_gap_first")
        gap_last = data.get("misplacement_gap_last")
        return cls(
            n_quanta=int(data.get("n_quanta", 0)),
            n_epochs=int(data.get("n_epochs", 0)),
            convergence_quanta=tuple(
                None if q is None else int(q)
                for q in data.get("convergence_quanta", ())
            ),
            oscillation_score=float(data.get("oscillation_score", 0.0)),
            thrash_score=float(data.get("thrash_score", 0.0)),
            watermark_resets=int(data.get("watermark_resets", 0)),
            findings={k: int(v)
                      for k, v in data.get("findings", {}).items()},
            max_severity=data.get("max_severity"),
            misplacement_gap_first=(
                None if gap_first is None else float(gap_first)
            ),
            misplacement_gap_last=(
                None if gap_last is None else float(gap_last)
            ),
            ping_pong_peak=int(data.get("ping_pong_peak", 0)),
        )


@dataclass(frozen=True)
class RunDiagnostics:
    """All findings plus the distilled summary."""

    findings: Tuple[Finding, ...]
    summary: DiagnosticsSummary

    @property
    def has_critical(self) -> bool:
        return any(f.severity == "critical" for f in self.findings)

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "summary": self.summary.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# -- detector helpers ----------------------------------------------------


def _epoch_imbalance(timeline: Timeline,
                     epoch: Epoch) -> List[Optional[float]]:
    return [s.imbalance for s in timeline.epoch_samples(epoch)]


def _convergence_index(imbalance: Sequence[Optional[float]],
                       config: DiagnosticsConfig) -> Optional[int]:
    """First index from which ``sustain_quanta`` consecutive samples are
    balanced; None if the epoch never settles (or has no data)."""
    run = 0
    for i, value in enumerate(imbalance):
        if value is not None and value < config.epsilon:
            run += 1
            if run >= config.sustain_quanta:
                return i - config.sustain_quanta + 1
        else:
            run = 0
    return None


def _settle_index(ps: Sequence[Optional[float]],
                  config: DiagnosticsConfig) -> Optional[int]:
    """First index from which ``p`` stays inside a
    ``settle_band_p``-wide band for ``settle_window_quanta`` samples.

    The corner-equilibrium convergence criterion: when capacity or the
    tiering policy pins the optimum (every hot page already resident in
    the default tier), latency balance is unreachable but the
    controller is done the moment ``p`` stops moving.
    """
    indexed = [(i, v) for i, v in enumerate(ps) if v is not None]
    width = config.settle_window_quanta
    if len(indexed) < width:
        return None
    for k in range(len(indexed) - width + 1):
        window = [v for __, v in indexed[k:k + width]]
        if max(window) - min(window) <= config.settle_band_p:
            return indexed[k][0]
    return None


def _convergence_point(timeline: Timeline, epoch: Epoch,
                       config: DiagnosticsConfig,
                       ) -> Optional[Tuple[int, str]]:
    """Earliest convergence under either criterion.

    Returns ``(epoch-relative index, criterion)`` where criterion is
    ``"latency-balance"`` (|L_D - L_A|/L_A sustained below epsilon) or
    ``"p-settled"`` (p inside a narrow band for a full window), or None
    when the epoch converges under neither.
    """
    samples = timeline.epoch_samples(epoch)
    balance_at = _convergence_index([s.imbalance for s in samples],
                                    config)
    settle_at = _settle_index([s.p for s in samples], config)
    candidates = [(index, name) for index, name in
                  ((balance_at, "latency-balance"),
                   (settle_at, "p-settled"))
                  if index is not None]
    return min(candidates) if candidates else None


def _significant_moves(values: Sequence[Optional[float]],
                       deadband: float) -> List[float]:
    """Consecutive deltas of ``values`` with |Δ| above the deadband
    (None samples are bridged, not treated as movement)."""
    moves = []
    prev = None
    for value in values:
        if value is None:
            continue
        if prev is not None:
            delta = value - prev
            if abs(delta) > deadband:
                moves.append(delta)
        prev = value
    return moves


def _flip_rate(moves: Sequence[float]) -> float:
    if len(moves) < 2:
        return 0.0
    flips = sum(1 for a, b in zip(moves, moves[1:]) if a * b < 0)
    return flips / (len(moves) - 1)


# -- detectors -----------------------------------------------------------


def detect_convergence(timeline: Timeline,
                       config: DiagnosticsConfig) -> List[Finding]:
    """Quanta-to-latency-balance per epoch (§3.2's headline behavior)."""
    findings = []
    for epoch in timeline.epochs:
        imbalance = _epoch_imbalance(timeline, epoch)
        observed = [v for v in imbalance if v is not None]
        if not observed:
            continue  # no controller data (non-colloid system)
        point = _convergence_point(timeline, epoch, config)
        span = (epoch.start, epoch.stop - 1)
        if point is not None:
            converged_at, criterion = point
            how = ("latency balance" if criterion == "latency-balance"
                   else "a settled p (corner equilibrium)")
            findings.append(Finding(
                detector="convergence",
                severity="info",
                quantum_span=(epoch.start, epoch.start + converged_at),
                message=(f"epoch {epoch.index} converged to {how} "
                         f"in {converged_at} quanta"),
                evidence={
                    "epoch": epoch.index,
                    "convergence_quanta": converged_at,
                    "criterion": criterion,
                    "epsilon": config.epsilon,
                    "sustain_quanta": config.sustain_quanta,
                    "final_imbalance": observed[-1],
                },
            ))
        elif epoch.n_quanta >= config.min_epoch_quanta:
            findings.append(Finding(
                detector="convergence",
                severity="warning",
                quantum_span=span,
                message=(f"epoch {epoch.index} neither balanced "
                         f"latencies nor settled p within "
                         f"{epoch.n_quanta} quanta "
                         f"(final imbalance {observed[-1]:.1%})"),
                evidence={
                    "epoch": epoch.index,
                    "n_quanta": epoch.n_quanta,
                    "final_imbalance": observed[-1],
                    "min_imbalance": min(observed),
                    "epsilon": config.epsilon,
                },
                remediation=("lengthen the run, or check the watermark "
                             "bracket dynamics with "
                             "'repro report <trace>'"),
            ))
    return findings


def detect_oscillation(timeline: Timeline,
                       config: DiagnosticsConfig) -> List[Finding]:
    """Sign-flip rate of the controller's significant ``p`` movements.

    A healthy controller walks ``p`` monotonically toward balance and
    then holds; persistent alternation means it is bouncing around the
    watermark bracket. Judged over the post-convergence region when the
    epoch converged, else over the epoch's second half (an oscillating
    epoch typically never converges).
    """
    findings = []
    for epoch in timeline.epochs:
        samples = timeline.epoch_samples(epoch)
        if len(samples) < config.min_epoch_quanta:
            continue
        point = _convergence_point(timeline, epoch, config)
        converged_at = point[0] if point is not None else None
        start = (converged_at if converged_at is not None
                 else len(samples) // 2)
        window = samples[start:]
        moves = _significant_moves([s.p for s in window],
                                   config.deadband_p)
        if len(moves) < config.min_flip_moves:
            continue
        rate = _flip_rate(moves)
        if rate < config.oscillation_warn:
            continue
        severity = ("critical" if rate >= config.oscillation_critical
                    else "warning")
        findings.append(Finding(
            detector="oscillation",
            severity=severity,
            quantum_span=(epoch.start + start, epoch.stop - 1),
            message=(f"epoch {epoch.index}: p oscillates — "
                     f"{rate:.0%} of its {len(moves)} significant "
                     f"movements reverse the previous one"),
            evidence={
                "epoch": epoch.index,
                "flip_rate": rate,
                "n_moves": len(moves),
                "mean_abs_dp": sum(abs(m) for m in moves) / len(moves),
                "converged": converged_at is not None,
            },
            remediation=("inspect the watermark bracket: repeated "
                         "hi/lo resets or a too-small deadband make "
                         "Algorithm 2 chase CHA noise"),
        ))
    return findings


def detect_reset_storm(timeline: Timeline,
                       config: DiagnosticsConfig) -> List[Finding]:
    """Dynamic watermark resets bunched beyond what epoch boundaries
    (hot-set shifts, contention changes) explain."""
    findings = []
    samples = timeline.samples
    if not samples:
        return findings
    boundary_indices = [s.index for s in samples if s.epoch_boundary]

    def in_grace(index: int) -> bool:
        return any(0 <= index - b < config.shift_grace_quanta
                   for b in boundary_indices)

    # Expected resets (the Fig. 4c mechanism reacting to a moved
    # equilibrium) are reported as info so 'repro diagnose' confirms
    # the behavior.
    for boundary in boundary_indices:
        grace = samples[boundary:boundary + config.shift_grace_quanta]
        resets = sum(s.watermark_resets for s in grace)
        kind = ("contention change"
                if samples[boundary].contention_change
                else "hot-set shift")
        if resets:
            findings.append(Finding(
                detector="reset-storm",
                severity="info",
                quantum_span=(boundary,
                              grace[-1].index if grace else boundary),
                message=(f"{resets} watermark reset(s) within "
                         f"{config.shift_grace_quanta} quanta of the "
                         f"{kind} at quantum {boundary} "
                         f"(expected Fig. 4c response)"),
                evidence={"resets": resets, "boundary_quantum": boundary,
                          "boundary_kind": kind},
            ))

    counts = [0 if in_grace(s.index) else s.watermark_resets
              for s in samples]
    isolated = [(s.index, s.watermark_resets) for s in samples
                if s.watermark_resets and not in_grace(s.index)]
    n_isolated = sum(n for __, n in isolated)
    if isolated and n_isolated < config.storm_warn:
        findings.append(Finding(
            detector="reset-storm",
            severity="info",
            quantum_span=(isolated[0][0], isolated[-1][0]),
            message=(f"{n_isolated} isolated dynamic watermark "
                     f"reset(s) outside any epoch-boundary grace "
                     f"period (quanta "
                     f"{', '.join(str(i) for i, __ in isolated)})"),
            evidence={"resets": n_isolated,
                      "quanta": [i for i, __ in isolated]},
        ))
    window = min(config.storm_window_quanta, len(counts))
    running = sum(counts[:window])
    best, best_end = running, window - 1
    for end in range(window, len(counts)):
        running += counts[end] - counts[end - window]
        if running > best:
            best, best_end = running, end
    if best >= config.storm_warn:
        severity = ("critical" if best >= config.storm_critical
                    else "warning")
        findings.append(Finding(
            detector="reset-storm",
            severity=severity,
            quantum_span=(best_end - window + 1, best_end),
            message=(f"watermark reset storm: {best} dynamic resets "
                     f"within {window} quanta (outside any epoch-"
                     f"boundary grace period)"),
            evidence={"resets_in_window": best, "window": window},
            remediation=("the bracket is collapsing repeatedly without "
                         "a workload change — check CHA noise sigma "
                         "and the Fig. 4c reset conditions"),
        ))
    return findings


def detect_thrash(timeline: Timeline,
                  config: DiagnosticsConfig) -> List[Finding]:
    """Migration traffic that buys no latency-balance improvement.

    Before convergence, migration is the mechanism; after convergence a
    healthy run moves (almost) nothing. The score compares the
    post-convergence byte rate to the transient's byte rate.
    """
    findings = []
    for epoch in timeline.epochs:
        samples = timeline.epoch_samples(epoch)
        point = _convergence_point(timeline, epoch, config)
        converged_at = point[0] if point is not None else None
        if converged_at is None or converged_at == 0:
            continue
        pre, post = samples[:converged_at], samples[converged_at:]
        if not post:
            continue
        pre_bytes = sum(s.executed_bytes for s in pre)
        post_bytes = sum(s.executed_bytes for s in post)
        if post_bytes < config.thrash_min_bytes or pre_bytes == 0:
            continue
        pre_rate = pre_bytes / len(pre)
        post_rate = post_bytes / len(post)
        score = post_rate / pre_rate if pre_rate > 0 else float("inf")
        if score < config.thrash_warn:
            continue
        imb = [s.imbalance for s in post if s.imbalance is not None]
        improvement = (imb[0] - imb[-1]) if len(imb) >= 2 else 0.0
        severity = ("critical" if score >= config.thrash_critical
                    else "warning")
        findings.append(Finding(
            detector="migration-thrash",
            severity=severity,
            quantum_span=(epoch.start + converged_at, epoch.stop - 1),
            message=(f"epoch {epoch.index}: migration thrash — "
                     f"{post_bytes} bytes moved after convergence at "
                     f"{score:.0%} of the transient's rate, improving "
                     f"imbalance by only {improvement:.1%}"),
            evidence={
                "epoch": epoch.index,
                "post_bytes": post_bytes,
                "pre_rate_bytes_per_quantum": pre_rate,
                "post_rate_bytes_per_quantum": post_rate,
                "score": score,
                "imbalance_improvement": improvement,
            },
            remediation=("pages are ping-ponging between tiers; check "
                         "the migration budget and the tiering "
                         "system's hysteresis"),
        ))
    return findings


def detect_residual_drift(timeline: Timeline,
                          config: DiagnosticsConfig) -> List[Finding]:
    """Post-convergence latency imbalance creeping back up."""
    findings = []
    for epoch in timeline.epochs:
        samples = timeline.epoch_samples(epoch)
        point = _convergence_point(timeline, epoch, config)
        converged_at = point[0] if point is not None else None
        if converged_at is None:
            continue
        window = [(i, s.imbalance)
                  for i, s in enumerate(samples[converged_at:])
                  if s.imbalance is not None]
        if len(window) < max(8, config.sustain_quanta):
            continue
        # Least-squares slope of imbalance over the window.
        n = len(window)
        mean_x = sum(i for i, __ in window) / n
        mean_y = sum(v for __, v in window) / n
        var_x = sum((i - mean_x) ** 2 for i, __ in window)
        if var_x == 0:
            continue
        slope = sum((i - mean_x) * (v - mean_y)
                    for i, v in window) / var_x
        rise = slope * (window[-1][0] - window[0][0])
        if rise <= config.drift_rise:
            continue
        findings.append(Finding(
            detector="residual-drift",
            severity="warning",
            quantum_span=(epoch.start + converged_at, epoch.stop - 1),
            message=(f"epoch {epoch.index}: latency imbalance drifts "
                     f"upward after convergence (+{rise:.1%} over "
                     f"{n} quanta)"),
            evidence={
                "epoch": epoch.index,
                "rise": rise,
                "slope_per_quantum": slope,
                "window_quanta": n,
            },
            remediation=("the equilibrium is walking away faster than "
                         "the controller tracks it — check contention "
                         "schedule and migration budget"),
        ))
    return findings


def detect_solver_anomaly(timeline: Timeline,
                          config: DiagnosticsConfig) -> List[Finding]:
    """Solver-iteration spikes and poor steady-state cache hit rates."""
    findings = []
    iters = [(s.index, s.solver_iterations) for s in timeline.samples
             if s.solver_iterations is not None and not s.solver_cached]
    if len(iters) >= 8:
        values = sorted(v for __, v in iters)
        median = values[len(values) // 2]
        threshold = max(config.iter_floor,
                        config.iter_spike_factor * max(median, 1))
        spikes = [(i, v) for i, v in iters if v > threshold]
        if spikes:
            worst = max(spikes, key=lambda pair: pair[1])
            findings.append(Finding(
                detector="solver-anomaly",
                severity="info",
                quantum_span=(spikes[0][0], spikes[-1][0]),
                message=(f"{len(spikes)} solver-iteration spike(s): "
                         f"up to {worst[1]} iterations at quantum "
                         f"{worst[0]} (median {median})"),
                evidence={
                    "n_spikes": len(spikes),
                    "max_iterations": worst[1],
                    "median_iterations": median,
                    "threshold": threshold,
                },
            ))
    cached = [(s.index, s.solver_cached) for s in timeline.samples
              if s.solver_cached is not None]
    if timeline.epochs and len(cached) >= 20:
        # Judge the steady tail of the last epoch: once the placement
        # stops changing, repeated solves should be memoized.
        last = timeline.epochs[-1]
        point = _convergence_point(timeline, last, config)
        converged_at = point[0] if point is not None else None
        start = last.start + (converged_at or 0)
        tail = [hit for i, hit in cached if i >= start]
        if len(tail) >= 20:
            rate = sum(tail) / len(tail)
            if rate < config.cache_hit_warn:
                findings.append(Finding(
                    detector="solver-anomaly",
                    severity="info",
                    quantum_span=(start, timeline.n_quanta - 1),
                    message=(f"solver-cache hit rate is {rate:.0%} over "
                             f"the steady tail ({len(tail)} solves) — "
                             f"expected memoized steady-state solves"),
                    evidence={"hit_rate": rate, "n_solves": len(tail)},
                    remediation=("placement or traffic still changes "
                                 "every quantum; harmless unless solver "
                                 "time dominates the phase profile"),
                ))
    return findings


#: The pluggable detector registry (name, callable). Order is render
#: order in reports.
def detect_ping_pong(timeline: Timeline,
                     config: DiagnosticsConfig) -> List[Finding]:
    """Sustained ping-pong churn reported by the placement observer.

    A quantum whose ``placement_sample`` carries
    ``ping_pong_pages >= ping_pong_min_pages`` is churning; a streak of
    ``ping_pong_sustain_quanta`` churning quanta means pages are cycling
    between tiers faster than the flow tracker's window forgets them —
    migration bandwidth spent un-doing itself.
    """
    findings = []
    for epoch in timeline.epochs:
        samples = timeline.epoch_samples(epoch)
        best_start = best_len = 0
        streak_start = streak_len = 0
        wasted = 0
        for i, sample in enumerate(samples):
            if sample.ping_pong_pages >= config.ping_pong_min_pages:
                if streak_len == 0:
                    streak_start = i
                streak_len += 1
                if streak_len > best_len:
                    best_start, best_len = streak_start, streak_len
            else:
                streak_len = 0
            wasted += sample.wasted_migration_bytes
        if best_len < config.ping_pong_sustain_quanta:
            continue
        severity = ("critical"
                    if best_len >= 3 * config.ping_pong_sustain_quanta
                    else "warning")
        peak = max(s.ping_pong_pages for s in samples)
        findings.append(Finding(
            detector="ping-pong-churn",
            severity=severity,
            quantum_span=(epoch.start + best_start,
                          epoch.start + best_start + best_len - 1),
            message=(f"epoch {epoch.index}: {best_len} consecutive "
                     f"quanta with >= {config.ping_pong_min_pages} "
                     f"ping-pong pages (peak {peak}); "
                     f"{wasted} bytes moved by direction reversals "
                     "this epoch"),
            evidence={
                "epoch": epoch.index,
                "streak_quanta": best_len,
                "peak_ping_pong_pages": peak,
                "wasted_bytes": wasted,
            },
            remediation=("the same pages keep migrating back and "
                         "forth; widen the controller's hysteresis or "
                         "lower the migration budget"),
        ))
    return findings


def detect_misplacement(timeline: Timeline,
                        config: DiagnosticsConfig) -> List[Finding]:
    """Sticky misplacement gap after the convergence grace period.

    The placement audit reports, every K quanta, how far the actual
    placement's throughput sits below the latency-balance placement's.
    A balance-seeking controller (Colloid) drives this gap toward zero;
    a packing controller under contention cannot — the gap stays up
    after any amount of settling time. Audits inside the grace window
    after an epoch boundary are ignored (the controller is still
    moving).
    """
    findings = []
    for epoch in timeline.epochs:
        samples = timeline.epoch_samples(epoch)
        audits = [(i, s.gap_balance) for i, s in enumerate(samples)
                  if s.gap_balance is not None]
        post = [(i, gap) for i, gap in audits
                if i >= config.misplacement_grace_quanta]
        if len(post) < 2:
            continue
        mean_gap = sum(gap for __, gap in post) / len(post)
        last_gap = post[-1][1]
        if mean_gap < config.misplacement_gap_warn:
            continue
        severity = ("critical"
                    if mean_gap >= config.misplacement_gap_critical
                    else "warning")
        findings.append(Finding(
            detector="misplacement-gap",
            severity=severity,
            quantum_span=(epoch.start + post[0][0],
                          epoch.start + post[-1][0]),
            message=(f"epoch {epoch.index}: placement stuck "
                     f"{mean_gap:.1%} below the latency-balance "
                     f"optimum ({len(post)} audits after the "
                     f"{config.misplacement_grace_quanta}-quantum "
                     f"grace; last audit {last_gap:.1%})"),
            evidence={
                "epoch": epoch.index,
                "mean_gap": mean_gap,
                "last_gap": last_gap,
                "n_audits": len(post),
            },
            remediation=("the system is packing hot pages instead of "
                         "balancing loaded latencies; under contention "
                         "a latency-aware policy (colloid) closes "
                         "this gap"),
        ))
    return findings


DETECTORS: Tuple[Tuple[str, Callable[[Timeline, DiagnosticsConfig],
                                     List[Finding]]], ...] = (
    ("convergence", detect_convergence),
    ("oscillation", detect_oscillation),
    ("reset-storm", detect_reset_storm),
    ("migration-thrash", detect_thrash),
    ("residual-drift", detect_residual_drift),
    ("solver-anomaly", detect_solver_anomaly),
    ("ping-pong-churn", detect_ping_pong),
    ("misplacement-gap", detect_misplacement),
)


def _summarize(timeline: Timeline, findings: Sequence[Finding],
               config: DiagnosticsConfig) -> DiagnosticsSummary:
    convergence: List[Optional[int]] = []
    oscillation = 0.0
    thrash = 0.0
    for epoch in timeline.epochs:
        imbalance = _epoch_imbalance(timeline, epoch)
        has_data = any(v is not None for v in imbalance)
        point = (_convergence_point(timeline, epoch, config)
                 if has_data else None)
        convergence.append(point[0] if point is not None else None)
    for finding in findings:
        if finding.detector == "oscillation":
            oscillation = max(oscillation,
                              float(finding.evidence.get("flip_rate", 0)))
        if finding.detector == "migration-thrash":
            thrash = max(thrash,
                         float(finding.evidence.get("score", 0)))
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    max_severity = None
    if findings:
        max_severity = max((f.severity for f in findings),
                           key=_severity_rank)
    gaps = [s.gap_balance for s in timeline.samples
            if s.gap_balance is not None]
    return DiagnosticsSummary(
        n_quanta=timeline.n_quanta,
        n_epochs=len(timeline.epochs),
        convergence_quanta=tuple(convergence),
        oscillation_score=oscillation,
        thrash_score=thrash,
        watermark_resets=sum(s.watermark_resets
                             for s in timeline.samples),
        findings=counts,
        max_severity=max_severity,
        misplacement_gap_first=gaps[0] if gaps else None,
        misplacement_gap_last=gaps[-1] if gaps else None,
        ping_pong_peak=max(
            (s.ping_pong_pages for s in timeline.samples), default=0
        ),
    )


def diagnose_timeline(timeline: Timeline,
                      config: Optional[DiagnosticsConfig] = None,
                      ) -> RunDiagnostics:
    """Run every registered detector over a timeline."""
    config = config or DEFAULT_CONFIG
    findings: List[Finding] = []
    for __, detector in DETECTORS:
        findings.extend(detector(timeline, config))
    return RunDiagnostics(
        findings=tuple(findings),
        summary=_summarize(timeline, findings, config),
    )


def diagnose_events(events: List[dict],
                    config: Optional[DiagnosticsConfig] = None,
                    ) -> RunDiagnostics:
    """Fold events into a timeline and diagnose it."""
    return diagnose_timeline(build_timeline(events), config)


def format_diagnostics(diagnostics: RunDiagnostics,
                       timeline: Optional[Timeline] = None) -> str:
    """Render diagnostics as the CLI's text report."""
    summary = diagnostics.summary
    lines = ["-- diagnostics --"]
    lines.append(
        f"quanta        : {summary.n_quanta} across "
        f"{summary.n_epochs} epoch(s)"
    )
    for epoch_index, quanta in enumerate(summary.convergence_quanta):
        status = (f"converged in {quanta} quanta" if quanta is not None
                  else "did not converge (or no controller data)")
        lines.append(f"epoch {epoch_index:<8}: {status}")
    lines.append(f"oscillation   : {summary.oscillation_score:.2f} "
                 f"(flip rate; 0 is monotone)")
    lines.append(f"thrash        : {summary.thrash_score:.2f} "
                 f"(post/pre-convergence migration rate)")
    lines.append(f"resets        : {summary.watermark_resets} dynamic "
                 f"watermark reset(s)")
    if summary.misplacement_gap_last is not None:
        first = summary.misplacement_gap_first
        lines.append(
            f"misplacement  : gap vs latency-balance "
            f"{first:.1%} -> {summary.misplacement_gap_last:.1%} "
            f"(first -> last audit)"
        )
    if summary.ping_pong_peak:
        lines.append(f"ping-pong     : peak {summary.ping_pong_peak} "
                     f"page(s) reversing inside the churn window")
    if timeline is not None and timeline.unknown_event_counts:
        skipped = ", ".join(
            f"{name}={count}" for name, count in
            sorted(timeline.unknown_event_counts.items())
        )
        lines.append(f"skipped       : unknown event kinds ({skipped})")
    if not diagnostics.findings:
        lines.append("findings      : none")
        return "\n".join(lines)
    lines.append(f"findings      : "
                 + ", ".join(f"{sev}={summary.findings[sev]}"
                             for sev in SEVERITIES
                             if summary.findings.get(sev)))
    for finding in sorted(diagnostics.findings,
                          key=lambda f: -_severity_rank(f.severity)):
        first, last = finding.quantum_span
        lines.append(f"[{finding.severity.upper():<8}] "
                     f"{finding.detector:<16} q{first}-q{last}  "
                     f"{finding.message}")
        if finding.remediation:
            lines.append(f"{'':>12}hint: {finding.remediation}")
    return "\n".join(lines)


def with_overrides(config: DiagnosticsConfig,
                   **overrides) -> DiagnosticsConfig:
    """Copy a config with the given threshold overrides (None skipped)."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **changes) if changes else config


__all__ = [
    "DEFAULT_CONFIG",
    "DETECTORS",
    "DiagnosticsConfig",
    "DiagnosticsSummary",
    "Finding",
    "RunDiagnostics",
    "SEVERITIES",
    "diagnose_events",
    "diagnose_timeline",
    "format_diagnostics",
    "with_overrides",
]
