"""Exec-layer self-checks: serialization round-trips and cache fidelity.

The exec subsystem's determinism story rests on two contracts: a
:class:`~repro.exec.spec.RunSpec` survives ``to_dict``/``from_dict``
with its content hash intact (the cache key and dedup unit), and a
:class:`~repro.exec.result.CellResult` written to the on-disk cache
reads back equal to what was computed. Both are checked here; the
Runner and :func:`~repro.exec.execute.execute_spec` invoke them when
their :class:`~repro.options.RunOptions` say ``check``.
"""

from __future__ import annotations

from repro.errors import InvariantViolation


def check_spec_roundtrip(spec) -> None:
    """Spec → dict → spec must be identity, with a stable content hash.

    Raises:
        InvariantViolation: If the round-tripped spec differs from the
            original, or hashing the same spec twice disagrees.
    """
    from repro.exec.spec import RunSpec

    restored = RunSpec.from_dict(spec.to_dict())
    if restored != spec:
        raise InvariantViolation(
            "exec.spec_roundtrip",
            "RunSpec did not survive to_dict/from_dict",
            details={"spec": spec.describe()},
        )
    first, second = spec.content_hash(), restored.content_hash()
    if first != second:
        raise InvariantViolation(
            "exec.spec_hash_stability",
            "equal specs must produce equal content hashes",
            details={"spec": spec.describe(), "hash_a": first,
                     "hash_b": second},
        )


def check_result_roundtrip(spec, result) -> None:
    """Result → dict → result must be identity (cache serializability).

    Raises:
        InvariantViolation: If the JSON form loses information.
    """
    from repro.exec.result import CellResult

    restored = CellResult.from_dict(result.to_dict())
    if restored != result:
        raise InvariantViolation(
            "exec.result_roundtrip",
            "CellResult did not survive to_dict/from_dict",
            details={"spec": spec.describe(), "mode": result.mode},
        )


def check_cache_fidelity(cache, spec, result) -> None:
    """A just-written cache entry must read back equal to the result.

    Raises:
        InvariantViolation: If the stored entry is missing or differs —
            either means the cache would silently corrupt figures.
    """
    # The uninstrumented read path: this verification is not a cache
    # access the fleet metrics (hit/miss counters) should see.
    read = getattr(cache, "_read", cache.get)
    stored = read(spec)
    if stored is None:
        raise InvariantViolation(
            "exec.cache_readback",
            "cache entry unreadable immediately after put",
            details={"spec": spec.describe(),
                     "path": str(cache.path_for(spec))},
        )
    if stored != result:
        raise InvariantViolation(
            "exec.cache_fidelity",
            "cache entry differs from the computed result",
            details={"spec": spec.describe(),
                     "path": str(cache.path_for(spec))},
        )


def check_journal_fidelity(journal, spec, result) -> None:
    """A just-recorded journal entry must read back equal from disk.

    The journal is the resume source of truth: a record that cannot be
    re-read (or reads back different) would make ``--resume`` silently
    re-execute — or worse, mis-resume — the cell. Re-loading from the
    file (not the in-memory map) is the point: it exercises the exact
    path a post-kill resume takes.

    Raises:
        InvariantViolation: If the on-disk entry is missing or differs.
    """
    stored = journal.load().get(spec.content_hash())
    if stored is None:
        raise InvariantViolation(
            "exec.journal_readback",
            "journal entry unreadable immediately after record",
            details={"spec": spec.describe(),
                     "path": str(journal.path)},
        )
    if stored != result:
        raise InvariantViolation(
            "exec.journal_fidelity",
            "journal entry differs from the computed result",
            details={"spec": spec.describe(),
                     "path": str(journal.path)},
        )


__all__ = [
    "check_cache_fidelity",
    "check_journal_fidelity",
    "check_result_roundtrip",
    "check_spec_roundtrip",
]
