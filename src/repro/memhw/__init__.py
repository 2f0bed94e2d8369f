"""Analytic tiered-memory hardware substrate.

This package models the paper's dual-socket testbed (§2.1) — and arbitrary
tiered-memory machines — as a *closed-loop queueing system*:

* Each memory tier has an unloaded latency and a latency-load curve whose
  effective saturation bandwidth depends on the traffic mix
  (:mod:`repro.memhw.latency`).
* Cores keep a bounded number of memory requests in flight, so per-core
  throughput is ``N * 64 / L`` (§3.1) — :mod:`repro.memhw.corestate`.
* The equilibrium of these two relations is found by a fixed-point solver
  (:mod:`repro.memhw.fixedpoint`).
* Emulated CHA counters (:mod:`repro.memhw.cha`) expose the observables
  Colloid consumes.
* :mod:`repro.memhw.topology` describes machines; the paper's testbed is
  available pre-calibrated via :func:`repro.memhw.topology.paper_testbed`.
"""

from repro.memhw.tier import MemoryTierSpec
from repro.memhw.latency import LatencyCurve, TrafficClass, effective_bandwidth
from repro.memhw.corestate import CoreGroup
from repro.memhw.antagonist import AntagonistSpec, antagonist_core_group
from repro.memhw.fixedpoint import EquilibriumSolver, MultiEquilibrium
from repro.memhw.cha import ChaCounters, ChaSample
from repro.memhw.topology import (
    Machine,
    cxl_testbed,
    hbm_testbed,
    paper_testbed,
)

__all__ = [
    "MemoryTierSpec",
    "LatencyCurve",
    "TrafficClass",
    "effective_bandwidth",
    "CoreGroup",
    "AntagonistSpec",
    "antagonist_core_group",
    "MultiEquilibrium",
    "EquilibriumSolver",
    "ChaCounters",
    "ChaSample",
    "Machine",
    "paper_testbed",
    "cxl_testbed",
    "hbm_testbed",
]
