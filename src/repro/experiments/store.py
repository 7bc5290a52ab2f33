"""Sharded, concurrency-safe result store for campaign runs.

The store memoises point results at two levels: an in-process dict and a
shard directory on disk with **one JSON file per point key**.  Shard
files are written atomically (tempfile in the same directory followed by
``os.replace``), so any number of worker processes -- or concurrent
campaign runs -- can populate the same cache directory without ever
producing a torn or corrupt file: distinct keys land in distinct files,
and concurrent writes of the same key resolve to one complete winner.

Durability: :meth:`ResultCache.put_many` is the only write path, and
one batch costs one directory fsync.  A campaign run hands its batches
(one per drained round) to a :class:`ShardWriter`, whose thread writes
and fsyncs a round while the next batch runs; at most one round is in
flight.  So a crash loses at most the round being written plus the
round being drained, and every finished point is on disk when
``Campaign.run`` returns.

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
import threading
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

    def put_many(
        self,
        items: Iterable[tuple[str, Mapping]],
        writer: "ShardWriter | None" = None,
    ) -> None:
        """Store a batch of ``(key, value)`` pairs with coalesced disk I/O.

        Every value lands in memory at once, and each shard is encoded
        here.  Each shard is still written atomically (tempfile +
        ``rename``), but instead of leaving every entry's durability to
        the next metadata flush, the *directory* is fsynced **once per
        batch** after all renames land -- so a whole drained campaign
        round costs one fsync, not one per point.  This is the store's
        only write path.

        Without a ``writer`` the batch is on disk when this returns.
        With one (a campaign run's :class:`ShardWriter`), the writes and
        the fsync run on the writer's thread while the caller goes on;
        the writer's ``close`` makes every batch durable.
        """
        shards: list[tuple[str, bytes]] = []
        for key, value in items:
            value = self._mem[key] = dict(value)
            if self.disk:
                shards.append((
                    _shard_name(key),
                    json.dumps({"key": key, "value": value}).encode(),
                ))
        if not shards:
            return
        if writer is None:
            self._write_round(shards)
        else:
            writer.submit(shards)

    def _write_round(self, shards: list[tuple[str, bytes]]) -> None:
        """Write encoded shards, then fsync the directory once.

        An ``OSError`` (a read-only or full filesystem) switches the
        cache to memory-only for good; the rest of the round is not
        written.
        """
        wrote = False
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            for name, data in shards:
                if not self.disk:
                    break
                self._write_shard(name, data)
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

    def _write_shard(self, name: str, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(tmp, self.path / name)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


class ShardWriter:
    """Writes a campaign run's shard rounds on one background thread.

    :meth:`submit` hands over one encoded round (see
    :meth:`ResultCache.put_many`) and returns at once; the thread writes
    its shards and fsyncs the directory while the caller drains the next
    round.  At most one round is in flight: a submit first waits for the
    previous round to land.  The thread starts on the first submit, so a
    run with nothing to write starts none.

    An ``OSError`` switches the cache to memory-only, as a synchronous
    write does.  Any other failure is kept and raised by the next
    :meth:`submit` or by :meth:`close`, in the caller's thread.
    """

    def __init__(self, cache: ResultCache) -> None:
        self._cache = cache
        self._cond = threading.Condition()
        self._round: list[tuple[str, bytes]] | None = None
        self._busy = False  #: a round is submitted and not yet written
        self._closed = False
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def submit(self, shards: list[tuple[str, bytes]]) -> None:
        """Write ``shards`` in the background, after the previous round."""
        if self._thread is None:
            thread = threading.Thread(
                target=self._loop, name="repro-store-writer", daemon=True
            )
            thread.start()
            self._thread = thread
        with self._cond:
            self._wait_idle()
            self._round = shards
            self._busy = True
            self._cond.notify_all()

    def close(self) -> None:
        """Wait until every submitted round is on disk, then stop the
        thread; raise a failure the thread kept."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with self._cond:
            self._wait_idle()

    def _wait_idle(self) -> None:
        # caller holds self._cond
        while self._busy:
            self._cond.wait()
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def _loop(self) -> None:
        while True:
            with self._cond:
                while self._round is None and not self._closed:
                    self._cond.wait()
                shards, self._round = self._round, None
            if shards is None:
                return
            error = None
            try:
                self._cache._write_round(shards)
            except BaseException as exc:  # noqa: BLE001 - raised by the caller
                error = exc
            with self._cond:
                self._error = self._error or error
                self._busy = False
                self._cond.notify_all()


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
