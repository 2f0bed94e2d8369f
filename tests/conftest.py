"""Shared fixtures for the test suite.

Most tests run at a small scale (``FAST_SCALE``) so the whole suite stays
quick; the geometry-preserving scaling means every ratio the algorithms
see is identical to the paper's setup.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.common import ExperimentConfig, scaled_machine
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.topology import Machine, paper_testbed
from repro.options import CHECK_ENV_VAR
from repro.workloads.gups import GupsWorkload

#: Scale used by most integration-ish tests.
FAST_SCALE = 0.0625

# Invariant checking is always-on in the test suite: every simulation
# loop a test builds enforces the repro.check invariants, so a bug that
# breaks conservation or the Algorithm 2 bracket fails loudly anywhere
# it surfaces (tests may monkeypatch.delenv to exercise the off path).
os.environ.setdefault(CHECK_ENV_VAR, "1")


@pytest.fixture
def machine() -> Machine:
    """The unscaled paper testbed."""
    return paper_testbed()


@pytest.fixture
def small_machine() -> Machine:
    """The paper testbed scaled down for fast end-to-end runs."""
    return scaled_machine(FAST_SCALE)


@pytest.fixture
def solver(machine: Machine) -> EquilibriumSolver:
    """Equilibrium solver for the unscaled testbed."""
    return EquilibriumSolver(machine.tiers)


@pytest.fixture
def gups_cores(machine: Machine) -> CoreGroup:
    """The §2.1 GUPS core group (15 cores, 64 B objects, 1:1 RW)."""
    return CoreGroup("gups", 15, machine.app_base_mlp,
                     randomness=1.0, read_fraction=0.5)


@pytest.fixture
def small_gups() -> GupsWorkload:
    """GUPS scaled to match ``small_machine``."""
    return GupsWorkload(scale=FAST_SCALE, seed=7)


@pytest.fixture
def fast_config() -> ExperimentConfig:
    """Experiment config at the fast test scale."""
    return ExperimentConfig(scale=FAST_SCALE, seed=7)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(1234)
