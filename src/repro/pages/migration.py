"""Rate-limited page migration with traffic accounting.

Real tiering systems bound migration traffic (HeMem/MEMTIS rate-limit their
migration threads; TPP migrates on faults) and the copies themselves consume
interconnect bandwidth at both the source and destination tiers. The
:class:`MigrationExecutor` models both effects: it truncates a migration
plan at a per-quantum byte budget, applies the moves through the
capacity-checked placement state, and reports the copy bytes read and
written at each tier, which the loop charges to the hardware model as
copy debt. Plans are ranked lazily, so only the head of a plan that the
budget can reach is ever sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.obs.tracer import NULL_TRACER
from repro.pages.placement import PlacementState
from repro.pages.selection import stable_top_k

#: The moves of an empty plan, and the applied moves of a quantum that
#: moved nothing (read-only, shared).
_NO_MOVES = np.empty(0, dtype=np.int64)
_NO_MOVES.flags.writeable = False


class MigrationPlan:
    """An ordered list of page moves requested by a tiering system.

    Order matters: the executor processes entries front to back and stops
    at the byte budget, so systems should put demotions that free capacity
    before the promotions that need it.

    A plan is ranked lazily. It is a sequence of segments: an eager
    segment is moves in their final order (``MigrationPlan(pages,
    dsts)``), and a ranked segment (:meth:`ranked`) moves the ``count``
    highest-keyed candidates to one tier, in the order
    ``candidates[np.argsort(-key, kind="stable")][:count]``. Nothing is
    sorted until :meth:`head` asks for a prefix, and then only that prefix
    is ranked (:func:`~repro.pages.selection.stable_top_k`). The executor
    asks for the head its byte budget can reach, so a quantum that applies
    a few 2 MiB pages never sorts thousands of candidates. ``len()`` is
    exact and cheap; :attr:`page_indices` and :attr:`dst_tiers`
    materialize the whole plan.
    """

    __slots__ = ("_segments", "_len", "_full")

    def __init__(self, page_indices: np.ndarray,
                 dst_tiers: np.ndarray) -> None:
        pages = np.asarray(page_indices, dtype=np.int64)
        dsts = np.asarray(dst_tiers, dtype=np.int64)
        if pages.shape != dsts.shape:
            raise ConfigurationError(
                "page_indices and dst_tiers must have equal length"
            )
        self._segments = [(pages, None, len(pages), dsts)]
        self._len = len(pages)
        self._full = (pages, dsts)

    @classmethod
    def _of_segments(cls, segments: list) -> "MigrationPlan":
        plan = cls.__new__(cls)
        plan._segments = [seg for seg in segments if seg[2] > 0]
        plan._len = sum(seg[2] for seg in plan._segments)
        plan._full = None
        return plan

    @classmethod
    def ranked(cls, candidates: np.ndarray, key: np.ndarray, count: int,
               dst_tier: int) -> "MigrationPlan":
        """Move the ``count`` highest-``key`` candidates to ``dst_tier``,
        highest first, ties in candidate order; ranked on demand."""
        candidates = np.asarray(candidates, dtype=np.int64)
        key = np.asarray(key)
        if key.shape != candidates.shape:
            raise ConfigurationError("candidates and key must have equal "
                                     "length")
        if not 0 <= count <= len(candidates):
            raise ConfigurationError(
                f"count {count} outside [0, {len(candidates)}]"
            )
        return cls._of_segments([(candidates, key, int(count),
                                  int(dst_tier))])

    @staticmethod
    def empty() -> "MigrationPlan":
        """The plan with no moves: one shared instance, whose arrays are
        read-only."""
        return _EMPTY_PLAN

    @classmethod
    def concat(cls, plans: Sequence["MigrationPlan"]) -> "MigrationPlan":
        """Concatenate plans preserving order (nothing is ranked)."""
        return cls._of_segments(
            [seg for plan in plans for seg in plan._segments]
        )

    def __len__(self) -> int:
        return self._len

    def head(self, m: int) -> Tuple[np.ndarray, np.ndarray]:
        """The first ``min(m, len(self))`` moves as ``(page_indices,
        dst_tiers)``, ranking only the candidates that prefix needs."""
        m = max(0, min(int(m), self._len))
        if self._full is not None:
            pages, dsts = self._full
            return pages[:m], dsts[:m]
        page_parts, dst_parts = [], []
        left = m
        for candidates, key, count, dst in self._segments:
            if left == 0:
                break
            take = min(count, left)
            if key is None:
                page_parts.append(candidates[:take])
                dst_parts.append(dst[:take])
            else:
                page_parts.append(candidates[stable_top_k(key, take)])
                dst_parts.append(np.full(take, dst, dtype=np.int64))
            left -= take
        if not page_parts:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        head = (np.concatenate(page_parts), np.concatenate(dst_parts))
        if m == self._len:
            self._full = head
        return head

    @property
    def page_indices(self) -> np.ndarray:
        """Every move's page, in plan order (materializes the plan)."""
        return (self._full or self.head(self._len))[0]

    @property
    def dst_tiers(self) -> np.ndarray:
        """Every move's destination tier (materializes the plan)."""
        return (self._full or self.head(self._len))[1]


_EMPTY_PLAN = MigrationPlan(_NO_MOVES, _NO_MOVES)


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of executing (a prefix of) a migration plan.

    Attributes:
        bytes_moved: Total bytes actually migrated this quantum.
        moves_applied: Number of page moves applied.
        moves_skipped: Moves dropped for capacity reasons.
        moves_deferred: Moves dropped because the byte budget ran out.
        read_bytes_per_tier: Copy-read bytes originating at each tier.
        write_bytes_per_tier: Copy-write bytes landing at each tier.
        moved_pages: Page indices of the applied moves, in execution
            order (placement observability and flow-conservation checks
            consume these; same length as the src/dst arrays).
        moved_src_tiers: Source tier of each applied move.
        moved_dst_tiers: Destination tier of each applied move.
    """

    bytes_moved: int
    moves_applied: int
    moves_skipped: int
    moves_deferred: int
    read_bytes_per_tier: np.ndarray = None
    write_bytes_per_tier: np.ndarray = None
    moved_pages: np.ndarray = None
    moved_src_tiers: np.ndarray = None
    moved_dst_tiers: np.ndarray = None


class MigrationExecutor:
    """Applies migration plans under a token-bucket rate limit.

    The static limit is a *rate*: ``limit_bytes_per_quantum`` tokens
    accrue on every :meth:`execute` call (i.e. every runtime quantum) and
    are spent by page copies. Systems that act on longer periods (MEMTIS's
    500 ms kmigrated) therefore accumulate a period's worth of budget
    between actions, as their real counterparts do, while the long-run
    migration rate stays bounded. Accrual is capped at ``burst_quanta``
    quanta worth of tokens.
    """

    def __init__(self, placement: PlacementState,
                 limit_bytes_per_quantum: int,
                 burst_quanta: int = 100,
                 tracer=None) -> None:
        if limit_bytes_per_quantum <= 0:
            raise ConfigurationError("migration limit must be positive")
        if burst_quanta < 1:
            raise ConfigurationError("burst_quanta must be >= 1")
        self._placement = placement
        self._limit = int(limit_bytes_per_quantum)
        self._burst_cap = int(limit_bytes_per_quantum) * int(burst_quanta)
        # Accrual happens at the start of each execute() call, so starting
        # from zero gives the first quantum exactly one quantum's budget.
        self._tokens = 0
        self.tracer = NULL_TRACER if tracer is None else tracer
        # The per-tier copy bytes of an empty plan (read-only, shared).
        self._no_bytes = np.zeros(placement.n_tiers, dtype=np.int64)
        self._no_bytes.flags.writeable = False

    @property
    def limit_bytes_per_quantum(self) -> int:
        """The static per-quantum migration budget (accrual rate)."""
        return self._limit

    @property
    def available_tokens(self) -> int:
        """Migration bytes currently available (before this quantum's
        accrual)."""
        return self._tokens

    def execute(self, plan: MigrationPlan, quantum_ns: float,
                budget_bytes: int | None = None) -> MigrationResult:
        """Execute as much of ``plan`` as the budget and capacities allow.

        Args:
            plan: Ordered page moves.
            quantum_ns: Length of the quantum the plan executes in; must
                be positive.
            budget_bytes: Optional additional cap for this call (Colloid's
                dynamic migration limit).

        Returns:
            A :class:`MigrationResult`; the placement state is mutated.
        """
        if quantum_ns <= 0:
            raise ConfigurationError("quantum must be positive")
        self._tokens = min(self._burst_cap, self._tokens + self._limit)
        budget = self._tokens if budget_bytes is None else (
            min(int(budget_bytes), self._tokens)
        )
        placement = self._placement
        n_tiers = placement.n_tiers
        n_planned = len(plan)
        if not n_planned:
            # Most quanta plan nothing: the tokens accrued above are all
            # an empty plan changes.
            return MigrationResult(
                bytes_moved=0, moves_applied=0, moves_skipped=0,
                moves_deferred=0,
                read_bytes_per_tier=self._no_bytes,
                write_bytes_per_tier=self._no_bytes,
                moved_pages=_NO_MOVES,
                moved_src_tiers=_NO_MOVES,
                moved_dst_tiers=_NO_MOVES,
            )
        pages = placement.pages

        moved_read = [0] * n_tiers   # bytes read per tier
        moved_write = [0] * n_tiers  # bytes written per tier
        bytes_moved = 0
        applied = skipped = deferred = 0
        applied_pages: List[int] = []
        applied_src: List[int] = []
        applied_dst: List[int] = []

        tier = pages.tier
        sizes = pages.sizes_bytes
        move_page = placement.move_page
        # Each applied move spends at least the smallest page size, so the
        # walk reaches the budget within this many entries unless capacity
        # skips or no-op entries (which spend nothing) push it further; only
        # then is the rest of the plan ranked.
        start, stop = 0, budget // pages.min_page_bytes + 1
        while start < n_planned:
            head_pages, head_dsts = plan.head(stop)
            for idx, dst in zip(head_pages[start:].tolist(),
                                head_dsts[start:].tolist()):
                src = int(tier[idx])
                if src == dst:
                    continue
                size = int(sizes[idx])
                if bytes_moved + size > budget:
                    deferred = n_planned - applied - skipped
                    break
                try:
                    move_page(idx, dst)
                except CapacityError:
                    skipped += 1
                    continue
                bytes_moved += size
                moved_read[src] += size
                moved_write[dst] += size
                applied += 1
                applied_pages.append(idx)
                applied_src.append(src)
                applied_dst.append(dst)
            if deferred:  # the budget stopped the walk
                break
            start, stop = len(head_pages), n_planned
        self._tokens -= bytes_moved
        if n_planned and self.tracer.enabled:
            self.tracer.emit(
                "migration_executed",
                planned_moves=n_planned,
                planned_bytes=int(sizes[plan.page_indices].sum()),
                executed_bytes=bytes_moved,
                budget_bytes=int(budget),
                moves_applied=applied,
                moves_skipped=skipped,
                moves_deferred=deferred,
            )
        return MigrationResult(
            bytes_moved=bytes_moved,
            moves_applied=applied,
            moves_skipped=skipped,
            moves_deferred=deferred,
            read_bytes_per_tier=np.array(moved_read, dtype=np.int64),
            write_bytes_per_tier=np.array(moved_write, dtype=np.int64),
            moved_pages=np.array(applied_pages, dtype=np.int64),
            moved_src_tiers=np.array(applied_src, dtype=np.int64),
            moved_dst_tiers=np.array(applied_dst, dtype=np.int64),
        )
