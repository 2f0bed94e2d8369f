"""The solver's two-tier step path, bit for bit against the general one.

On two tiers the fixed-point sweep, the residual, the Newton point, the
damped update and the Broyden update (with its step and change vectors)
are straight-line Python floats. They must do the general code's float operations in its
order: a two-term builtin ``sum`` is ``(0.0 + a) + b``, and ``max`` and
``min`` keep their first value on ties and against a NaN. Each helper is
checked here against the general code it replaces, kept as the oracle,
on generated and edge-case inputs, comparing bits (signed zeros
included, and where NaNs appear) rather than values within a tolerance. Whole solves are
checked the same way with the general helpers patched in, and a
three-tier solve must still take the general path and give the result
it always gave.
"""

from __future__ import annotations

import hashlib
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memhw import fixedpoint
from repro.memhw.antagonist import antagonist_core_group
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import (
    EquilibriumSolver,
    _broyden_update,
    _broyden_update_n,
    _damped_point,
    _damped_point_n,
    _newton_point_n,
    _relative_residual,
    _relative_residual_n,
)
from repro.memhw.topology import paper_testbed
from repro.workloads.gups import GupsWorkload
from tests.core.test_multitier import three_tier_machine

NAN = float("nan")
INF = float("inf")

#: Edge values: signed zeros, a subnormal, huge magnitudes, infinities
#: and NaNs of both signs.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 1e300, -1e300,
         INF, -INF, NAN, -NAN]

floats = st.one_of(st.sampled_from(EDGES),
                   st.floats(allow_nan=True, allow_infinity=True),
                   st.floats(min_value=1.0, max_value=1e4))
pairs = st.lists(floats, min_size=2, max_size=2)
matrices = st.lists(pairs, min_size=2, max_size=2)

EXAMPLES = settings(max_examples=400, deadline=None, derandomize=True)


def bits(value):
    """Exact bits of a float, a list of floats or None; every NaN is
    ``"nan"``. Which of two NaN operands an addition returns is up to
    the C compiler that built the interpreter (it may swap the operands
    of ``+`` and ``*``), so a NaN's sign and payload are no part of the
    contract; where a NaN appears, and where it does not, is."""
    if value is None:
        return None
    if isinstance(value, float):
        return "nan" if value != value else struct.pack("<d", value)
    return [bits(item) for item in value]


def outcome(function, *args):
    """The bits of a call's result, or the type of what it raised."""
    try:
        return bits(function(*args))
    except ArithmeticError as error:
        return type(error)


def newton_point(latencies, new_latencies, inverse):
    return EquilibriumSolver._newton_point(None, latencies, new_latencies,
                                           inverse)


@given(new=pairs, old=pairs)
@EXAMPLES
@example(new=[2.0, 3.0], old=[1.0, 1.5])           # a tie: the first wins
@example(new=[-1.0, -2.0], old=[-1.0, -2.0])       # -0.0 ties -0.0
@example(new=[1.0, -2.0], old=[1.0, -2.0])         # 0.0 then -0.0
@example(new=[-1.0, 2.0], old=[-1.0, 2.0])         # -0.0 then 0.0
@example(new=[NAN, 2.0], old=[1.0, 1.0])           # NaN first
@example(new=[2.0, NAN], old=[1.0, 1.0])           # NaN second
@example(new=[-NAN, NAN], old=[1.0, 1.0])          # two NaNs
@example(new=[2.0, 3.0], old=[0.0, 1.0])           # division by zero
def test_relative_residual(new, old):
    assert outcome(_relative_residual, new, old) == outcome(
        _relative_residual_n, new, old)


@given(latencies=pairs, new_latencies=pairs, damping=floats)
@EXAMPLES
def test_damped_point(latencies, new_latencies, damping):
    assert outcome(_damped_point, latencies, new_latencies, damping) == \
        outcome(_damped_point_n, latencies, new_latencies, damping)


@given(latencies=pairs, new_latencies=pairs, inverse=matrices)
@EXAMPLES
@example(latencies=[100.0, 200.0], new_latencies=[110.0, 190.0],
         inverse=[[0.5, 0.1], [0.2, 0.4]])           # finite and positive
@example(latencies=[100.0, 200.0], new_latencies=[110.0, 190.0],
         inverse=[[20.0, 0.0], [0.0, 0.5]])          # first is negative
@example(latencies=[100.0, 200.0], new_latencies=[100.0, 190.0],
         inverse=[[0.5, 0.0], [0.0, 0.5]])           # first is 0.0
@example(latencies=[100.0, 200.0], new_latencies=[110.0, 190.0],
         inverse=[[NAN, 0.0], [0.0, 0.5]])           # first is NaN
@example(latencies=[100.0, 200.0], new_latencies=[110.0, 190.0],
         inverse=[[0.5, 0.0], [0.0, NAN]])           # second is NaN
@example(latencies=[100.0, 200.0], new_latencies=[110.0, 190.0],
         inverse=[[INF, 0.0], [0.0, 0.5]])           # first is infinite
@example(latencies=[1e308, 1e308], new_latencies=[0.0, 0.0],
         inverse=[[1.0, 0.0], [0.0, 1.0]])           # the sum overflows
def test_newton_point(latencies, new_latencies, inverse):
    got = outcome(newton_point, latencies, new_latencies, inverse)
    assert got == outcome(_newton_point_n, latencies, new_latencies, inverse)


@pytest.mark.parametrize("inverse", [[[20.0, 0.0], [0.0, 0.5]],
                                     [[NAN, 0.0], [0.0, 0.5]],
                                     [[INF, 0.0], [0.0, 0.5]],
                                     [[0.5, 0.0], [0.0, -INF]]])
def test_newton_point_rejects_non_positive_and_non_finite(inverse):
    args = ([100.0, 200.0], [110.0, 190.0], inverse)
    assert newton_point(*args) is None
    assert _newton_point_n(*args) is None


def general_broyden(inverse, latencies, new_latencies, candidate,
                    candidate_new):
    """The general update, with the step and change vectors built as
    ``_iterate`` built them before the two-tier path."""
    return _broyden_update_n(
        inverse,
        [c - old for c, old in zip(candidate, latencies)],
        [(cn - c) - (new - old) for cn, c, new, old in zip(
            candidate_new, candidate, new_latencies, latencies)])


@given(inverse=matrices, latencies=pairs, new_latencies=pairs,
       candidate=pairs, candidate_new=pairs)
@EXAMPLES
@example(inverse=[[0.5, 0.1], [0.2, 0.4]], latencies=[100.0, 200.0],
         new_latencies=[110.0, 190.0], candidate=[104.0, 196.0],
         candidate_new=[106.0, 193.0])               # a regular update
@example(inverse=[[0.5, 0.1], [0.2, 0.4]], latencies=[100.0, 200.0],
         new_latencies=[110.0, 190.0], candidate=[100.0, 200.0],
         candidate_new=[110.0, 190.0])               # zero denominator
@example(inverse=[[NAN, 0.1], [0.2, 0.4]], latencies=[100.0, 200.0],
         new_latencies=[110.0, 190.0], candidate=[104.0, 196.0],
         candidate_new=[106.0, 193.0])               # NaN denominator
@example(inverse=[[1e300, 1e300], [1e300, 1e300]],
         latencies=[100.0, 200.0], new_latencies=[110.0, 190.0],
         candidate=[1e10, 196.0], candidate_new=[106.0, 1e300])
def test_broyden_update(inverse, latencies, new_latencies, candidate,
                        candidate_new):
    args = (inverse, latencies, new_latencies, candidate, candidate_new)
    assert outcome(_broyden_update, *args) == outcome(general_broyden,
                                                      *args)
    try:
        unchanged = general_broyden(*args) is inverse
    except ArithmeticError:
        return
    assert (_broyden_update(*args) is inverse) == unchanged


@pytest.mark.parametrize("candidate, candidate_new", [
    ([100.0, 200.0], [110.0, 190.0]),                # no step: zero
    ([104.0, 196.0], [NAN, 193.0]),                  # NaN
    ([1e300, 196.0], [-1e300, 193.0]),               # infinite
])
def test_degenerate_broyden_step_leaves_the_inverse(candidate,
                                                    candidate_new):
    inverse = [[0.5, 0.1], [0.2, 0.4]]
    args = (inverse, [100.0, 200.0], [110.0, 190.0], candidate,
            candidate_new)
    assert _broyden_update(*args) is inverse
    assert general_broyden(*args) is inverse


@st.composite
def problems(draw):
    """A two-tier solver and the problem of one miss: core groups with
    and without cores, splits with zeros, pinned groups on either tier,
    with or without copy streams."""
    solver = EquilibriumSolver(paper_testbed().tiers, use_cache=False)

    def group(name):
        return CoreGroup(name, draw(st.integers(0, 24)),
                         draw(st.floats(0.5, 40.0)),
                         randomness=draw(st.floats(0.0, 1.0)),
                         read_fraction=draw(st.floats(0.0, 1.0)))

    apps = []
    for i in range(draw(st.integers(1, 3))):
        app = group(f"app{i}")
        first = draw(st.sampled_from([0.0, -0.0, 0.25, 1.0])
                     | st.floats(0.0, 1.0))
        apps.append((app, [first, 1.0 - first]))
    pinned = tuple((group(f"pin{i}"), draw(st.integers(0, 1)))
                   for i in range(draw(st.integers(0, 2))))
    extra = draw(st.none() | st.just(
        (((draw(st.floats(0.0, 30.0)), 0.3, 1.0),),
         ((draw(st.floats(0.0, 30.0)), 0.3, 0.0),))))
    terms = [solver._app_terms(app, split) for app, split in apps]
    __, pinned_entries = solver._pinned_terms(pinned)
    return solver, solver._problem(terms, pinned_entries, extra)


latencies = st.lists(st.one_of(st.sampled_from(EDGES),
                               st.floats(1.0, 1e4)),
                     min_size=2, max_size=2)


def sweep_bits(sweep):
    new_latencies, (app_states, *per_tier) = sweep
    return (bits(new_latencies),
            [(bits(avg), bits(rate), bits(tier_read))
             for avg, rate, tier_read in app_states],
            [bits(values) for values in per_tier])


@given(case=problems(), at=latencies)
@EXAMPLES
def test_evaluate(case, at):
    solver, problem = case

    def outcome_of(evaluate):
        try:
            return sweep_bits(evaluate(problem, at))
        except ArithmeticError as error:
            return type(error)

    assert outcome_of(solver._evaluate) == outcome_of(solver._evaluate_n)


# -- whole solves ------------------------------------------------------------


def _general_steps(monkeypatch):
    """Route the sweep and every step helper to the general code."""
    monkeypatch.setattr(EquilibriumSolver, "_evaluate",
                        EquilibriumSolver._evaluate_n)
    monkeypatch.setattr(fixedpoint, "_relative_residual",
                        _relative_residual_n)
    monkeypatch.setattr(fixedpoint, "_damped_point", _damped_point_n)
    monkeypatch.setattr(fixedpoint, "_broyden_update", general_broyden)
    monkeypatch.setattr(EquilibriumSolver, "_newton_point",
                        lambda self, *args: _newton_point_n(*args))


def _digest(equilibria) -> str:
    """One hash of every array and float of ``equilibria``."""
    digest = hashlib.sha256()
    for eq in equilibria:
        for array in (eq.latencies_ns, eq.tier_wire_traffic,
                      eq.tier_read_request_rate, eq.utilizations,
                      eq.effective_bandwidths, eq.apps[0].tier_read_rate):
            digest.update(np.asarray(array, dtype=float).tobytes())
        digest.update(np.array([eq.apps[0].avg_latency_ns,
                                eq.apps[0].read_rate]).tobytes())
    return digest.hexdigest()


def _chain(machine, splits, extra=None):
    """Solves along ``splits``, each seeded with the last output (the
    carried inverse Jacobian), with ``extra`` traffic on every third."""
    app = GupsWorkload(scale=0.03, seed=1).core_group()
    pinned = [(antagonist_core_group(2, machine.antagonist), 0)]
    solver = EquilibriumSolver(machine.tiers, use_cache=False)
    warm, out = None, []
    for i, split in enumerate(splits):
        eq = solver.solve(app, split, pinned=pinned, initial_latencies=warm,
                          extra_traffic=extra if i % 3 == 2 else None)
        warm = eq.latencies_ns
        out.append(eq)
    # A cold solve and a foreign seed, which probe a fresh Jacobian.
    out.append(solver.solve(app, splits[0], pinned=pinned))
    out.append(solver.solve(app, splits[-1], pinned=pinned,
                            initial_latencies=[300.0] * len(splits[0])))
    return out


def test_two_tier_solves_match_the_general_steps(monkeypatch):
    extra = [((0.5, 0.3, 1.0),), ((0.5, 0.3, 0.0),)]
    splits = [[p, 1.0 - p] for p in np.linspace(0.0, 1.0, 41).tolist()]
    two_tier = _chain(paper_testbed(), splits, extra)
    _general_steps(monkeypatch)
    general = _chain(paper_testbed(), splits, extra)
    assert _digest(two_tier) == _digest(general)
    assert ([eq.iterations for eq in two_tier]
            == [eq.iterations for eq in general])
    assert sum(eq.iterations for eq in two_tier) > 4 * len(two_tier)


#: Digest of :func:`_chain` on the three-tier machine; the general step
#: path sums with builtin ``sum``, which Python 3.12 compensates, so it is
#: compared on the Python minor version it was computed with.
THREE_TIER_DIGEST = (
    "1615bec2f97805fc1ea217a996dea97bbb25fb578dec207fa7abbecc85c718b3")
THREE_TIER_PYTHON = (3, 11)


def test_three_tier_solves_take_the_general_path(monkeypatch):
    calls = {}

    def counted(name, function):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return function(*args)
        monkeypatch.setattr(fixedpoint, name, wrapper)

    for name, function in (("_relative_residual_n", _relative_residual_n),
                           ("_newton_point_n", _newton_point_n),
                           ("_broyden_update_n", _broyden_update_n)):
        counted(name, function)
    evaluate_n = EquilibriumSolver._evaluate_n

    def counted_sweep(self, *args):
        calls["_evaluate_n"] = calls.get("_evaluate_n", 0) + 1
        return evaluate_n(self, *args)

    monkeypatch.setattr(EquilibriumSolver, "_evaluate_n", counted_sweep)
    machine = three_tier_machine()
    splits = [[p, (1.0 - p) * 0.6, (1.0 - p) * 0.4]
              for p in [0.2 + 0.05 * i for i in range(12)]]
    extra = [((0.5, 0.3, 1.0),), (), ((0.5, 0.3, 0.0),)]
    equilibria = _chain(machine, splits, extra)
    assert set(calls) == {"_relative_residual_n", "_newton_point_n",
                          "_broyden_update_n", "_evaluate_n"}
    assert [eq.iterations for eq in equilibria[:12]] == [
        22, 7, 7, 7, 7, 8, 7, 7, 7, 7, 7, 7]
    if sys.version_info[:2] == THREE_TIER_PYTHON:
        assert _digest(equilibria[:12]) == THREE_TIER_DIGEST
