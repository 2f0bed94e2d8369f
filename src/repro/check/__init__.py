"""Runtime invariant checking (the correctness harness).

The paper states invariants the reproduction must uphold — the
Algorithm 2 bracket ordering ``p_lo <= p_hi`` and bracket-contains-
target (§3.2, Figure 4), page conservation across migrations, the
dynamic migration cap ``min(dp * (R_D + R_A), M)`` — but nothing
enforced them at runtime, so a bug could silently skew every figure.
This package is the enforcement layer:

* :class:`Checker` — pluggable invariant checks the simulation loop's
  invariant observer invokes each quantum. Violations raise a
  structured :class:`~repro.errors.InvariantViolation` carrying the
  offending quantum and are also emitted as ``invariant_violation``
  trace events so ``repro report`` can surface them.
* :class:`NullChecker` / :data:`NULL_CHECKER` — the disabled checker an
  unchecked loop holds as ``loop.checker``.
* :mod:`repro.check.roundtrip` — exec-layer self-checks: spec →
  dict → spec hash stability and cache entry ↔ result fidelity.

Checking is the ``check`` field of :class:`~repro.options.RunOptions`:
``--check`` on ``repro run`` / ``repro figure`` sets it, the options are
pickled with each cell to ``--jobs`` workers, and the environment only
supplies the default where no options are passed (see
:mod:`repro.options`) — which keeps checking always-on in the test
suite (see ``tests/conftest.py``).
"""

from repro.check.invariants import (
    NULL_CHECKER,
    Checker,
    NullChecker,
)
from repro.check.roundtrip import (
    check_cache_fidelity,
    check_journal_fidelity,
    check_result_roundtrip,
    check_spec_roundtrip,
)
from repro.errors import InvariantViolation

__all__ = [
    "Checker",
    "InvariantViolation",
    "NULL_CHECKER",
    "NullChecker",
    "check_cache_fidelity",
    "check_journal_fidelity",
    "check_result_roundtrip",
    "check_spec_roundtrip",
]
