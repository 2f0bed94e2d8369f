"""Structured event tracing for the simulation loop.

Two implementations share the emit interface:

* :class:`Tracer` — records events into an in-memory ring buffer and
  (optionally) appends them as JSON lines to a file. Events are stamped
  with the current simulated time (``tracer.time_s``, set once per
  quantum by the runtime loop) and validated against
  :data:`~repro.obs.events.EVENT_SCHEMAS`.
* :class:`NullTracer` — the disabled implementation. Its ``enabled``
  attribute is ``False`` and ``emit`` is a no-op, so instrumentation
  sites guard with ``if tracer.enabled:`` and the disabled cost is one
  attribute check per site.

The module-level :data:`NULL_TRACER` singleton is the default everywhere
a tracer is threaded through, so no call site needs ``None`` checks.
"""

from __future__ import annotations

import gzip
import json
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.events import EVENT_SCHEMAS, TRACE_SCHEMA_VERSION

PathLike = Union[str, Path]

#: Default ring-buffer capacity (events).
DEFAULT_RING_SIZE = 4096

#: gzip magic bytes — how :func:`load_events` detects compressed traces
#: regardless of their file name.
_GZIP_MAGIC = b"\x1f\x8b"


def _open_trace_write(path: Path):
    """Open a JSONL sink; ``*.gz`` paths are gzip-compressed.

    Long ``figure all --trace`` runs emit millions of highly repetitive
    events; gzip shrinks them ~20x, so the tracer keys compression off
    the requested file name and everything downstream reads either form
    transparently.
    """
    if path.suffix == ".gz":
        return gzip.open(path, "wt", encoding="utf-8")
    return path.open("w")


def _open_trace_read(path: Path):
    """Open a JSONL trace for reading, sniffing gzip by magic bytes (a
    renamed ``.gz`` still loads; a plain-text ``.gz``-named file too)."""
    with path.open("rb") as probe:
        magic = probe.read(2)
    if magic == _GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open()


class JsonList(list):
    """A list made of JSON values already, nested lists included.

    An event field of this type is stored as given rather than copied
    value by value, so a producer that emits the same payload every
    quantum converts it once and every event shares it. Events are
    read-only by convention; a shared list makes that a must.
    """

    __slots__ = ()


#: Types an event field keeps as they are (exact types: numpy's float64
#: subclasses ``float`` and is converted below).
_PLAIN_TYPES = frozenset({int, float, str, bool, type(None), JsonList})


def _jsonable(value):
    """Coerce numpy scalars/arrays so events always json.dump cleanly."""
    if type(value) in _PLAIN_TYPES:
        return value
    if isinstance(value, np.ndarray):
        if value.dtype != object:
            # tolist() on a numeric array already yields pure-Python
            # scalars all the way down; skip the per-element recursion.
            return value.tolist()
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Kept deliberately minimal — the hot path's only interaction with a
    disabled tracer is reading :attr:`enabled`.
    """

    __slots__ = ("time_s",)

    enabled = False

    def __init__(self) -> None:
        self.time_s = 0.0

    def emit(self, event_type: str, **fields) -> None:
        """Discard the event."""

    def events(self) -> List[dict]:
        """A null tracer never holds events."""
        return []

    @property
    def counts(self) -> Dict[str, int]:
        """Per-type emit counts (always empty)."""
        return {}

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Shared disabled tracer used as the default wherever one is threaded.
NULL_TRACER = NullTracer()


class Tracer:
    """Schema-validated event recorder with ring-buffer and JSONL sinks.

    Args:
        jsonl_path: Optional path; when given, every event is appended as
            one JSON object per line (the ``repro report`` input format).
        ring_size: In-memory ring capacity; the newest ``ring_size``
            events stay queryable via :meth:`events` without re-reading
            the file.
    """

    enabled = True

    def __init__(self, jsonl_path: Optional[PathLike] = None,
                 ring_size: int = DEFAULT_RING_SIZE) -> None:
        if ring_size < 1:
            raise ConfigurationError("ring_size must be >= 1")
        self.time_s = 0.0
        self._ring: deque = deque(maxlen=int(ring_size))
        self._counts: Dict[str, int] = {}
        self._path = Path(jsonl_path) if jsonl_path is not None else None
        if self._path is not None:
            try:
                self._handle = _open_trace_write(self._path)
            except OSError as error:
                raise ConfigurationError(
                    f"cannot open trace file {self._path}: {error}"
                ) from error
        else:
            self._handle = None

    @property
    def path(self) -> Optional[Path]:
        """The JSONL sink path, if one was configured."""
        return self._path

    def emit(self, event_type: str, **fields) -> None:
        """Record one event, stamped with the current simulated time.

        Raises:
            ConfigurationError: If ``event_type`` is not declared in
                :data:`~repro.obs.events.EVENT_SCHEMAS` — undocumented
                events would be invisible to the report tooling.
        """
        if event_type not in EVENT_SCHEMAS:
            raise ConfigurationError(
                f"unknown trace event type {event_type!r}; declare it in "
                "repro.obs.events.EVENT_SCHEMAS"
            )
        event = {"type": event_type, "time_s": float(self.time_s)}
        for key, value in fields.items():
            event[key] = _jsonable(value)
        self._ring.append(event)
        self._counts[event_type] = self._counts.get(event_type, 0) + 1
        if self._handle is not None:
            self._handle.write(json.dumps(event))
            self._handle.write("\n")

    def events(self) -> List[dict]:
        """Events currently in the ring, oldest first (fold them with
        :func:`repro.obs.timeline.build_timeline`)."""
        return list(self._ring)

    @property
    def counts(self) -> Dict[str, int]:
        """Per-type emit counts over the tracer's whole lifetime (not
        limited by the ring capacity)."""
        return dict(self._counts)

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TenantTracer:
    """Per-tenant view of a shared tracer: labels every event.

    A colocated run threads one of these into each tenant's executor,
    checker, and tiering context, so every event those components emit
    carries a ``tenant`` field without any of them knowing about
    colocation. Machine-scoped events (``run_start``,
    ``solver_converged``, ``contention_change``, ``run_end``) are emitted
    on the underlying tracer directly and stay unlabeled — the
    report/diagnose tooling treats unlabeled events as shared context
    for every tenant.

    ``enabled`` and ``time_s`` delegate to the wrapped tracer (time is
    stamped once per quantum by the loop), so the wrapper is free when
    tracing is off and adds one dict entry when it is on.
    """

    __slots__ = ("_inner", "tenant")

    def __init__(self, inner, tenant: str) -> None:
        self._inner = inner
        self.tenant = str(tenant)

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    @property
    def time_s(self) -> float:
        return self._inner.time_s

    def emit(self, event_type: str, **fields) -> None:
        """Emit on the wrapped tracer with this tenant's label added."""
        fields.setdefault("tenant", self.tenant)
        self._inner.emit(event_type, **fields)

    def events(self) -> List[dict]:
        """This tenant's labeled events from the wrapped tracer's ring."""
        return [e for e in self._inner.events()
                if e.get("tenant") == self.tenant]

    @property
    def counts(self) -> Dict[str, int]:
        """Delegates to the wrapped tracer (lifetime counts are shared)."""
        return self._inner.counts

    def close(self) -> None:
        """Closing is the owner's job; the per-tenant view is a borrow."""


def load_events(path: PathLike) -> List[dict]:
    """Read a JSONL trace (plain or gzip) back into event dicts.

    Compression is detected by content (gzip magic bytes), not file
    name, so ``--trace out.jsonl.gz`` round-trips and renamed files
    still load.

    Raises:
        ConfigurationError: If the file is missing or a line is not a
            JSON object.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"trace file not found: {path}")
    events = []
    with _open_trace_read(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}:{lineno}: invalid trace line ({error})"
                ) from error
            if not isinstance(event, dict) or "type" not in event:
                raise ConfigurationError(
                    f"{path}:{lineno}: trace events must be objects with "
                    "a 'type' field"
                )
            events.append(event)
    return events


__all__ = [
    "DEFAULT_RING_SIZE",
    "JsonList",
    "NULL_TRACER",
    "NullTracer",
    "TRACE_SCHEMA_VERSION",
    "TenantTracer",
    "Tracer",
    "load_events",
]
