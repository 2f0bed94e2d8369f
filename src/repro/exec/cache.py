"""Content-addressed on-disk result cache.

One JSON file per executed spec under ``.repro-cache/`` (override with
``REPRO_CACHE_DIR`` or ``--cache-dir``), keyed by the spec's content
hash. Several figures solve identical (system, intensity, config)
steady-state cells — fig2/fig5/fig6 share entire GUPS grids — so with
the cache enabled each distinct cell simulates exactly once across the
whole evaluation, and re-runs are pure reads.

Entries self-describe their schema: a bump of either
:data:`~repro.exec.spec.SPEC_SCHEMA_VERSION` (which changes the hash)
or :data:`CACHE_SCHEMA_VERSION` (checked on load) cleanly invalidates
stale results. Corrupt or unreadable entries are treated as misses.

The cache is also the resume store of a killed fleet: each completed
cell is stored as it finishes, so re-running the same command with the
same ``--cache-dir`` executes only the cells that were missing.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro.exec.result import CellResult
from repro.exec.spec import RunSpec

#: Bump when the CellResult payload layout changes.
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Age (seconds) past which an orphaned ``*.tmp`` file is swept. Old
#: enough that no live writer can still own it — a cache write is
#: milliseconds, not an hour — yet every kill-orphaned file from a
#: previous run qualifies.
STALE_TMP_AGE_S = 3600.0


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV_VAR, DEFAULT_CACHE_DIR))


class ResultCache:
    """Maps spec content hashes to stored :class:`CellResult` payloads."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.sweep_stale_tmp()

    def sweep_stale_tmp(self, max_age_s: float = STALE_TMP_AGE_S) -> int:
        """Delete orphaned ``*.tmp`` files older than ``max_age_s``.

        :meth:`put` writes through a temp file and cleans it up on any
        Python-level failure, but a SIGKILL'd worker (OOM killer, hard
        ctrl-C, injected ``kill`` fault) dies between ``mkstemp`` and
        ``os.replace`` with no cleanup running — so orphans accumulate
        forever. Swept on init (and :meth:`clear` removes everything
        anyway). The age threshold keeps a concurrent fleet's in-flight
        writes safe. Returns the number of files removed.
        """
        if not self.root.exists():
            return 0
        now = time.time()
        swept = 0
        for tmp in self.root.glob("*/*.tmp"):
            try:
                if now - tmp.stat().st_mtime >= max_age_s:
                    tmp.unlink()
                    swept += 1
            except OSError:
                # Raced with another process's sweep or a live writer's
                # os.replace — either way the orphan is gone.
                continue
        return swept

    def path_for(self, spec: RunSpec) -> Path:
        """The entry path for a spec (two-level fan-out by hash prefix)."""
        key = spec.content_hash()
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> Optional[CellResult]:
        """The cached result for ``spec``, or None on miss/corruption."""
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if payload.get("cache_schema") != CACHE_SCHEMA_VERSION:
            return None
        if payload.get("spec_hash") != spec.content_hash():
            return None
        try:
            return CellResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, spec: RunSpec, result: CellResult) -> Path:
        """Store ``result`` under ``spec``'s hash.

        The entry is written to a temp file, synced to disk, then
        renamed into place, so a crash or SIGKILL at any point leaves
        either no entry or the whole entry: a killed fleet resumes from
        every cell whose ``put`` returned.
        """
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "spec_hash": spec.content_hash(),
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def clear(self) -> None:
        """Delete every cached entry."""
        shutil.rmtree(self.root, ignore_errors=True)

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for __ in self.root.glob("*/*.json"))
