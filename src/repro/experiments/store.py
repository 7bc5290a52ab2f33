"""Sharded, concurrency-safe result store for campaign runs.

The store memoises point results at two levels: an in-process dict and a
shard directory on disk with **one JSON file per point key**.  Shard
files are written atomically (tempfile in the same directory followed by
``os.replace``), so any number of worker processes -- or concurrent
campaign runs -- can populate the same cache directory without ever
producing a torn or corrupt file: distinct keys land in distinct files,
and concurrent writes of the same key resolve to one complete winner.

Set ``REPRO_CACHE=0`` to keep results in memory only;
``REPRO_CACHE_DIR`` relocates the on-disk cache: shards live in
``<REPRO_CACHE_DIR>/results.shards/`` (default
``.repro-cache/results.shards/`` under the working directory).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterable, Mapping


def _default_cache_path() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    base = Path(root) if root else Path.cwd() / ".repro-cache"
    return base / "results.shards"


#: minimum age (seconds) before an orphaned ``*.tmp`` file is reaped on
#: cache open.  A writer's mkstemp -> os.replace window is microseconds,
#: so any temp this old belongs to a writer that was killed mid-write;
#: the margin keeps a concurrent live campaign's in-flight temp safe.
TEMP_REAP_AGE = 60.0


def _shard_name(key: str) -> str:
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:40] + ".json"


class ResultCache:
    """Two-level memo: in-process dict + sharded JSON directory.

    ``path`` is the shard directory (default
    ``<REPRO_CACHE_DIR or ./.repro-cache>/results.shards``).
    """

    def __init__(self, path: Path | None = None) -> None:
        self._mem: dict[str, dict] = {}
        self.path = Path(path) if path is not None else _default_cache_path()
        self.disk = os.environ.get("REPRO_CACHE", "1") != "0"
        if self.disk:
            self._reap_temps()

    # ------------------------------------------------------------------ API
    def get(self, key: str) -> dict | None:
        """The stored payload for ``key`` (memory first, then disk)."""
        hit = self._mem.get(key)
        if hit is not None:
            return hit
        if not self.disk:
            return None
        value = self._read_shard(key)
        if value is not None:
            self._mem[key] = value
        return value

    def put_many(self, items: Iterable[tuple[str, Mapping]]) -> None:
        """Store a batch of ``(key, value)`` pairs with coalesced disk I/O.

        Each shard is still written atomically (tempfile + ``rename``),
        but instead of leaving every entry's durability to the next
        metadata flush, the *directory* is fsynced **once per batch**
        after all renames land -- so a whole drained campaign round
        costs one fsync, not one per point, and a crash loses at most
        the final batch.  This is the store's only write path.
        """
        wrote = False
        for key, value in items:
            self._mem[key] = dict(value)
            if self.disk:
                try:
                    self._write_shard(key, self._mem[key])
                    wrote = True
                except OSError:
                    self.disk = False  # read-only filesystem: stay in memory
        if wrote:
            self._sync_dir()

    def _reap_temps(self) -> int:
        """Remove orphaned ``*.tmp`` files from the shard directory.

        A writer killed between ``mkstemp`` and ``os.replace`` leaves
        its temp file behind forever -- it is invisible to lookups (only
        ``<hash>.json`` names are ever read) but accumulates on every
        crash.  Called on cache open; only temps older than
        :data:`TEMP_REAP_AGE` are touched so a concurrently *live*
        writer's in-flight temp survives.  Returns the number reaped.
        """
        try:
            temps = list(self.path.glob("*.tmp"))
        except OSError:
            return 0
        reaped = 0
        horizon = time.time() - TEMP_REAP_AGE
        for tmp in temps:
            try:
                if tmp.stat().st_mtime <= horizon:
                    tmp.unlink()
                    reaped += 1
            except OSError:
                continue  # raced with another reaper, or permissions
        return reaped

    def _sync_dir(self) -> None:
        """One fsync of the shard directory (batch durability point)."""
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass  # fsync on a directory is best-effort (e.g. NFS)
        finally:
            os.close(fd)

    # ---------------------------------------------------------------- disk
    def _read_shard(self, key: str) -> dict | None:
        shard = self.path / _shard_name(key)
        try:
            payload = json.loads(shard.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        # a hash collision (or foreign file) must not alias another point
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        value = payload.get("value")
        return dict(value) if isinstance(value, dict) else None

    def _write_shard(self, key: str, value: Mapping) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump({"key": key, "value": dict(value)}, f)
            os.replace(tmp, self.path / _shard_name(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


_GLOBAL_CACHE: ResultCache | None = None


def global_cache() -> ResultCache:
    """The process-wide result store (created on first use)."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = ResultCache()
    return _GLOBAL_CACHE


def reset_global_cache() -> None:
    """Drop the process-wide cache (tests / cache-dir changes)."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = None
