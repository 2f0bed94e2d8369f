"""Run options: what a run observes, never what it simulates.

Checking, metrics, diagnostics and the placement audit only watch a run
(as the paper's CHA counters read latency without moving a page), and
the solver cache only skips work the solver would redo, so none may
change a simulated number. The CLI fills one :class:`RunOptions` from
its flags, the :class:`~repro.exec.runner.Runner` pickles it with every
cell, and the cell hands it to its loop and solvers. The ``REPRO_*``
variables below only supply defaults where no options are passed;
:meth:`RunOptions.from_env` is their one reader and nothing writes them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ConfigurationError

#: Environment defaults, one per field.
CHECK_ENV_VAR = "REPRO_CHECK"
METRICS_ENV_VAR = "REPRO_METRICS"
DIAGNOSE_ENV_VAR = "REPRO_DIAGNOSE"
PLACEMENT_AUDIT_ENV_VAR = "REPRO_PLACEMENT_AUDIT"
SOLVER_CACHE_ENV_VAR = "REPRO_SOLVER_CACHE"

#: Audit period (quanta) of a bare ``--placement-audit``.
DEFAULT_AUDIT_PERIOD_QUANTA = 10

_FALSEY = ("", "0", "false", "no", "off")


@dataclass(frozen=True)
class RunOptions:
    """How one run is observed.

    Attributes:
        check: Enforce the runtime invariants (:mod:`repro.check`) and
            the exec layer's round-trip checks.
        metrics: Record fleet metrics (:mod:`repro.obs.metrics`).
        diagnose: Attach a run-health diagnostics summary to every
            simulated cell.
        placement_audit: Placement observability, auditing the
            misplacement gap every this many quanta (an int >= 1); None
            is off.
        solver_cache: Memoize equilibrium solves.
    """

    check: bool = False
    metrics: bool = False
    diagnose: bool = False
    placement_audit: Optional[int] = None
    solver_cache: bool = True

    def __post_init__(self) -> None:
        period = self.placement_audit
        if period is not None and (isinstance(period, bool)
                                   or not isinstance(period, int)
                                   or period < 1):
            raise ConfigurationError(
                f"placement-audit period must be an integer >= 1 "
                f"(quanta), got {period!r}"
            )

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> "RunOptions":
        """Options from the ``REPRO_*`` variables (``os.environ`` by
        default): unset or falsey flags are off, except the solver
        cache, which is on unless disabled."""
        env = os.environ if environ is None else environ

        def flag(name: str, default: str = "") -> bool:
            return env.get(name, default).lower() not in _FALSEY

        audit = env.get(PLACEMENT_AUDIT_ENV_VAR, "")
        period = None
        if audit.lower() not in _FALSEY:
            try:
                period = int(audit)
            except ValueError:
                period = 0
            if period < 1:
                raise ConfigurationError(
                    f"{PLACEMENT_AUDIT_ENV_VAR}={audit!r}: expected a "
                    "placement-audit period >= 1 (quanta) or an off value"
                )
        return cls(check=flag(CHECK_ENV_VAR),
                   metrics=flag(METRICS_ENV_VAR),
                   diagnose=flag(DIAGNOSE_ENV_VAR),
                   placement_audit=period,
                   solver_cache=flag(SOLVER_CACHE_ENV_VAR, "1"))

    @classmethod
    def resolve(cls, options: Optional["RunOptions"]) -> "RunOptions":
        """``options``, or the environment defaults when None."""
        return cls.from_env() if options is None else options


__all__ = ["CHECK_ENV_VAR", "DEFAULT_AUDIT_PERIOD_QUANTA",
           "DIAGNOSE_ENV_VAR", "METRICS_ENV_VAR", "PLACEMENT_AUDIT_ENV_VAR",
           "RunOptions", "SOLVER_CACHE_ENV_VAR"]
