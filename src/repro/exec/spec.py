"""Declarative run specifications.

A :class:`RunSpec` captures *everything* that determines a simulation's
outcome — the tiering system and its kwargs, the workload, the machine
geometry, the contention schedule, the loop knobs, the duration policy
and the seed — as a frozen, hashable value object. Two specs that are
equal produce bit-identical results; the content hash is the key of the
on-disk result cache (:mod:`repro.exec.cache`) and the unit of dedup in
the :class:`~repro.exec.runner.Runner`.

Specs are built by the figure harnesses (usually via the helpers in
:mod:`repro.experiments.common`) and executed by
:func:`repro.exec.execute.execute_spec`.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.exec.factories import check_keywords, check_system
from repro.memhw.topology import Machine, paper_testbed
from repro.runtime.loop import DEFAULT_MIGRATION_LIMIT_PER_QUANTUM
from repro.workloads.base import Workload, check_scale

#: Bump when the meaning of any spec field changes; the hash is salted
#: with this so stale cache entries can never be confused for current
#: ones. v2: repetition seeds derive from the spec content hash
#: (``repro.exec.runner.derive_run_seed``) instead of ``seed + i``, so
#: cached multi-run grids from v1 are stale. v3: colocated cells carry a
#: ``tenants`` list; single-tenant specs serialize without the field and
#: keep hashing under v2 (:data:`_SINGLE_TENANT_SCHEMA_VERSION`), so
#: every pre-colocation cache entry and golden fixture stays valid.
SPEC_SCHEMA_VERSION = 3

#: Hash salt for specs with no ``tenants`` — the pre-colocation schema.
_SINGLE_TENANT_SCHEMA_VERSION = 2

#: Conventional system name for colocated (multi-tenant) cells.
COLOCATION_SYSTEM = "colocation"

#: Valid workload kinds (mirrors the CLI's ``--workload`` choices).
WORKLOAD_KINDS = ("gups", "gapbs", "silo", "cachelib")

#: Valid run modes.
RUN_MODES = ("steady", "trace", "best_case")

#: Conventional system name for best-case (oracle placement) cells.
BEST_CASE_SYSTEM = "best-case"

Params = Tuple[Tuple[str, Any], ...]


def _workload_constructor(kind: str):
    """The constructor :meth:`WorkloadSpec.build` calls for ``kind``."""
    from repro.workloads.cachelib import CacheLibWorkload
    from repro.workloads.graph import GraphWorkload
    from repro.workloads.gups import GupsWorkload
    from repro.workloads.silo import SiloYcsbWorkload

    return {"gups": GupsWorkload, "gapbs": GraphWorkload.synthetic,
            "silo": SiloYcsbWorkload, "cachelib": CacheLibWorkload}[kind]


def _freeze_params(params: Dict[str, Any]) -> Params:
    """Sort a kwargs dict into a canonical hashable tuple of pairs."""
    for key, value in params.items():
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise ConfigurationError(
                f"spec parameter {key!r} must be a scalar, got "
                f"{type(value).__name__}"
            )
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative workload description.

    Attributes:
        kind: One of :data:`WORKLOAD_KINDS`.
        params: Canonical (sorted) constructor kwargs.
        hot_shift_times_s: When non-empty, the built workload is wrapped
            in :class:`~repro.workloads.dynamic.HotSetShiftWorkload`
            with these shift times (GUPS only).
    """

    kind: str
    params: Params = ()
    hot_shift_times_s: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; expected one of "
                f"{WORKLOAD_KINDS}"
            )
        if self.hot_shift_times_s and self.kind != "gups":
            raise ConfigurationError(
                "hot-set shifts are only defined for the gups workload"
            )
        params = dict(self.params)
        check_keywords(_workload_constructor(self.kind), params,
                       f"workload {self.kind!r}")
        if "scale" in params:
            check_scale(params["scale"])

    @classmethod
    def make(cls, kind: str, hot_shift_times_s=(), **params) -> "WorkloadSpec":
        """Build a spec from plain kwargs (canonicalizes ordering)."""
        return cls(
            kind=kind,
            params=_freeze_params(params),
            hot_shift_times_s=tuple(float(t) for t in hot_shift_times_s),
        )

    def build(self) -> Workload:
        """Instantiate the described workload."""
        from repro.workloads.dynamic import HotSetShiftWorkload

        workload = _workload_constructor(self.kind)(**dict(self.params))
        if self.hot_shift_times_s:
            workload = HotSetShiftWorkload(workload,
                                           list(self.hot_shift_times_s))
        return workload

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "hot_shift_times_s": list(self.hot_shift_times_s),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls.make(data["kind"],
                        hot_shift_times_s=data.get("hot_shift_times_s", ()),
                        **data.get("params", {}))


@dataclass(frozen=True)
class MachineSpec:
    """Declarative machine geometry: the paper testbed plus transforms.

    Attributes:
        scale: Tier capacities scaled by this factor (geometry-
            preserving, as in ``experiments.common.scaled_machine``).
        alt_latency_ratio: When set, raise the alternate tier's unloaded
            latency so the *CPU-observed* unloaded ratio L_A/L_D equals
            this (the Figure 7 sweep); a finite ratio of at least 1,
            since tier 0 must stay the lowest-latency tier.
        default_tier_ws_divisor: When set, size the default tier to
            ``working_set // divisor`` (at least two pages) and grow the
            alternate tier to hold the whole working set — the §5.3
            real-application sizing (divisor 3 = "one third").
    """

    scale: float = 1.0
    alt_latency_ratio: Optional[float] = None
    default_tier_ws_divisor: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 < self.scale < math.inf:
            raise ConfigurationError(
                "machine scale must be finite and positive")
        if (self.alt_latency_ratio is not None
                and not 1.0 <= self.alt_latency_ratio < math.inf):
            raise ConfigurationError(
                "alternate-latency ratio must be finite and at least 1, "
                f"got {self.alt_latency_ratio!r}")
        if (self.default_tier_ws_divisor is not None
                and self.default_tier_ws_divisor < 1):
            raise ConfigurationError("working-set divisor must be >= 1")

    def build(self, workload: Optional[Workload] = None) -> Machine:
        """Instantiate the machine (``workload`` needed for ws sizing)."""
        import dataclasses

        machine = paper_testbed()
        machine = machine.with_tiers(
            tuple(t.scaled_capacity(self.scale) for t in machine.tiers)
        )
        if self.alt_latency_ratio is not None:
            cpu_hop = machine.cpu_to_cha_ns
            default_cpu_l0 = machine.tiers[0].unloaded_latency_ns + cpu_hop
            machine = machine.with_alternate_latency(
                default_cpu_l0 * self.alt_latency_ratio - cpu_hop
            )
        if self.default_tier_ws_divisor is not None:
            if workload is None:
                raise ConfigurationError(
                    "working-set tier sizing requires the workload"
                )
            third = max(workload.page_bytes * 2,
                        workload.working_set_bytes
                        // self.default_tier_ws_divisor)
            default = dataclasses.replace(machine.tiers[0],
                                          capacity_bytes=third)
            alternate = dataclasses.replace(
                machine.tiers[1],
                capacity_bytes=max(machine.tiers[1].capacity_bytes,
                                   workload.working_set_bytes),
            )
            machine = machine.with_tiers((default, alternate))
        return machine

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "alt_latency_ratio": self.alt_latency_ratio,
            "default_tier_ws_divisor": self.default_tier_ws_divisor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineSpec":
        return cls(scale=data["scale"],
                   alt_latency_ratio=data.get("alt_latency_ratio"),
                   default_tier_ws_divisor=data.get(
                       "default_tier_ws_divisor"))


def _is_count(value) -> bool:
    """Whether ``value`` is a non-negative integer (a bool is not)."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= 0)


def static_contention(level: int) -> Tuple[Tuple[float, int], ...]:
    """A constant-contention schedule."""
    return ((0.0, int(level)),)


@dataclass(frozen=True)
class TenantCellSpec:
    """One tenant of a colocated cell: a named (workload, system) pair.

    Attributes:
        name: Unique tenant label (appears in traces, metrics, reports).
        workload: The tenant's workload description.
        system: Tiering system driving this tenant's pages (a
            ``repro.tiering`` registry name, e.g. ``"hemem+colloid"``).
        system_kwargs: Canonical (sorted) system constructor kwargs.
        weight: Optional capacity-arbitration weight; ``None`` lets the
            :class:`~repro.pages.placement.CapacityArbiter` weight by
            working-set size.
    """

    name: str
    workload: WorkloadSpec
    system: str
    system_kwargs: Params = ()
    weight: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if not self.system:
            raise ConfigurationError(
                f"tenant {self.name!r} needs a tiering system"
            )
        check_system(self.system, dict(self.system_kwargs))
        if self.weight is not None and self.weight <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r} weight must be positive"
            )

    @classmethod
    def make(cls, name: str, workload: WorkloadSpec, system: str,
             weight: Optional[float] = None, **system_kwargs
             ) -> "TenantCellSpec":
        """Build a tenant spec from plain kwargs (canonicalizes order)."""
        return cls(name=name, workload=workload, system=system,
                   system_kwargs=_freeze_params(system_kwargs),
                   weight=weight)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workload": self.workload.to_dict(),
            "system": self.system,
            "system_kwargs": dict(self.system_kwargs),
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantCellSpec":
        return cls.make(data["name"],
                        WorkloadSpec.from_dict(data["workload"]),
                        data["system"],
                        weight=data.get("weight"),
                        **data.get("system_kwargs", {}))


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation cell's outcome.

    Modes:

    * ``steady`` — run to steady state (``max_duration_s`` cap,
      ``min_duration_s`` floor defaulting to ``max(3, 0.7 * cap)``) and
      report the settled tail.
    * ``trace`` — run for exactly ``duration_s`` and keep the time
      series (convergence/migration figures).
    * ``best_case`` — no simulation: solve the §2.2 oracle placement
      sweep for the contention level; ``system`` is ignored by
      convention (:data:`BEST_CASE_SYSTEM`).

    The contention schedule is a tuple of ``(start_time_s, level)``
    steps, first entry at t=0; a single entry means constant contention.

    Colocated cells set ``tenants`` to two or more
    :class:`TenantCellSpec` entries; the run is then driven by a
    :class:`~repro.runtime.colocation.ColocatedLoop` and the top-level
    ``system``/``workload``/``system_kwargs`` fields are conventional
    only (``system`` should be :data:`COLOCATION_SYSTEM`, ``workload``
    the first tenant's). Single-tenant specs leave ``tenants`` empty and
    serialize/hash exactly as before the field existed.
    """

    system: str
    workload: WorkloadSpec
    machine: MachineSpec
    mode: str = "steady"
    contention: Tuple[Tuple[float, int], ...] = ((0.0, 0),)
    quantum_ms: float = 10.0
    cha_noise_sigma: float = 0.01
    migration_limit_bytes: int = DEFAULT_MIGRATION_LIMIT_PER_QUANTUM
    seed: int = 42
    system_kwargs: Params = ()
    min_duration_s: Optional[float] = None
    max_duration_s: Optional[float] = None
    duration_s: Optional[float] = None
    tenants: Tuple[TenantCellSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.tenants:
            if self.mode == "best_case":
                raise ConfigurationError(
                    "best_case mode has no colocated variant; "
                    "tenants require steady or trace mode"
                )
            names = [t.name for t in self.tenants]
            if len(set(names)) != len(names):
                raise ConfigurationError(
                    f"tenant names must be unique, got {names}"
                )
        if self.mode not in RUN_MODES:
            raise ConfigurationError(
                f"unknown run mode {self.mode!r}; expected one of "
                f"{RUN_MODES}"
            )
        # Best-case and colocated cells name their system by convention
        # only (BEST_CASE_SYSTEM, COLOCATION_SYSTEM; tenants name theirs).
        if self.mode != "best_case" and not self.tenants:
            check_system(self.system, dict(self.system_kwargs))
        if not 0 < self.quantum_ms < math.inf:
            raise ConfigurationError("quantum must be finite and positive")
        for name in ("min_duration_s", "max_duration_s", "duration_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite")
        if (self.min_duration_s is not None
                and self.max_duration_s is not None
                and self.min_duration_s > self.max_duration_s):
            raise ConfigurationError(
                f"min_duration_s ({self.min_duration_s}) exceeds "
                f"max_duration_s ({self.max_duration_s})"
            )
        if not _is_count(self.seed):
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        if not 0.0 <= self.cha_noise_sigma < math.inf:
            raise ConfigurationError(
                "cha_noise_sigma must be finite and non-negative, got "
                f"{self.cha_noise_sigma!r}"
            )
        if not (_is_count(self.migration_limit_bytes)
                and self.migration_limit_bytes > 0):
            raise ConfigurationError(
                "migration_limit_bytes must be a positive integer, got "
                f"{self.migration_limit_bytes!r}"
            )
        if not self.contention or self.contention[0][0] != 0.0:
            raise ConfigurationError(
                "contention schedule must start at t=0"
            )
        times = [t for t, __ in self.contention]
        if times != sorted(times):
            raise ConfigurationError(
                "contention schedule must be time-ordered"
            )
        for __, level in self.contention:
            if not _is_count(level):
                raise ConfigurationError(
                    "contention levels must be non-negative integers, "
                    f"got {level!r}"
                )
        if self.mode == "steady" and (self.max_duration_s is None
                                      or self.max_duration_s <= 0):
            raise ConfigurationError(
                "steady mode requires a positive max_duration_s"
            )
        if self.mode == "trace" and (self.duration_s is None
                                     or self.duration_s <= 0):
            raise ConfigurationError(
                "trace mode requires a positive duration_s"
            )

    # -- derived views ---------------------------------------------------

    @property
    def repeatable(self) -> bool:
        """Whether n_runs repetition applies (measured steady cells)."""
        return self.mode == "steady"

    def initial_contention(self) -> int:
        """The contention level at t=0."""
        return int(self.contention[0][1])

    def contention_input(self):
        """The loop's contention argument: an int when constant, else a
        step function over the schedule."""
        if len(self.contention) == 1:
            return int(self.contention[0][1])
        schedule = self.contention

        def level(t: float) -> int:
            current = schedule[0][1]
            for start, lvl in schedule:
                if t >= start:
                    current = lvl
                else:
                    break
            return int(current)

        return level

    def resolved_min_duration_s(self) -> float:
        """Steady-mode settling floor (see ``run_gups_steady_state``:
        placement convergence is rate-limited, so insist on most of the
        cap before accepting steady state)."""
        if self.min_duration_s is not None:
            return self.min_duration_s
        return max(3.0, 0.7 * float(self.max_duration_s))

    def with_seed(self, seed: int) -> "RunSpec":
        """Copy with a different seed (repetition expansion)."""
        return replace(self, seed=int(seed))

    def describe(self) -> str:
        """Short human label for progress output."""
        if self.tenants:
            label = "+".join(t.name for t in self.tenants)
            return (f"{self.mode}:{self.system} "
                    f"[{label}]@{self.initial_contention()}x "
                    f"seed={self.seed}")
        return (f"{self.mode}:{self.system} "
                f"{self.workload.kind}@{self.initial_contention()}x "
                f"seed={self.seed}")

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "system": self.system,
            "workload": self.workload.to_dict(),
            "machine": self.machine.to_dict(),
            "mode": self.mode,
            "contention": [[t, level] for t, level in self.contention],
            "quantum_ms": self.quantum_ms,
            "cha_noise_sigma": self.cha_noise_sigma,
            "migration_limit_bytes": self.migration_limit_bytes,
            "seed": self.seed,
            "system_kwargs": dict(self.system_kwargs),
            "min_duration_s": self.min_duration_s,
            "max_duration_s": self.max_duration_s,
            "duration_s": self.duration_s,
        }
        # Single-tenant specs keep their pre-colocation shape so their
        # content hashes (and everything keyed on them) stay stable.
        if self.tenants:
            data["tenants"] = [t.to_dict() for t in self.tenants]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        return cls(
            system=data["system"],
            workload=WorkloadSpec.from_dict(data["workload"]),
            machine=MachineSpec.from_dict(data["machine"]),
            mode=data["mode"],
            contention=tuple((float(t), int(level))
                             for t, level in data["contention"]),
            quantum_ms=data["quantum_ms"],
            cha_noise_sigma=data["cha_noise_sigma"],
            migration_limit_bytes=data["migration_limit_bytes"],
            seed=data["seed"],
            system_kwargs=_freeze_params(data.get("system_kwargs", {})),
            min_duration_s=data.get("min_duration_s"),
            max_duration_s=data.get("max_duration_s"),
            duration_s=data.get("duration_s"),
            tenants=tuple(TenantCellSpec.from_dict(t)
                          for t in data.get("tenants", ())),
        )

    def content_hash(self) -> str:
        """Stable content address of this spec.

        Salted with the schema version so schema changes invalidate
        every previously cached result. Specs without tenants hash under
        :data:`_SINGLE_TENANT_SCHEMA_VERSION` — the v3 field addition
        must not invalidate existing single-tenant caches or fixtures.
        """
        schema = (SPEC_SCHEMA_VERSION if self.tenants
                  else _SINGLE_TENANT_SCHEMA_VERSION)
        payload = {"schema": schema, "spec": self.to_dict()}
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
