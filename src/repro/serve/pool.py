"""Shared read-only shard-source pool of the decomposition service.

Out-of-core jobs stream from on-disk shard caches. Opening a cache is not
free (it reads and validates the manifest and builds shard tables), and two
concurrent jobs over the same cache would otherwise each hold their own
handle and chunk staging. The pool keeps **one open
:class:`repro.engine.ShardSource` per (cache path, sharding geometry)** —
opened through the same :func:`repro.engine.open_shard_source` every
other entry point uses — refcounted by lease: the first acquiring
job opens it, overlapping jobs share it, and the last release closes it.

Sharing is safe because service reads are strictly read-only and
:class:`CompressedChunkSource` tolerates concurrent readers: mapped arrays
are read-only page-cache views, chunk staging is guarded by the reader's
lock, and the key cache is swapped atomically. The geometry is part of the key
because shard tables are built at open time — two jobs wanting different
``n_gpus``/``shards_per_gpu``/``policy`` need different shard tables and
therefore different entries.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.engine.source import ShardSource, open_shard_source

__all__ = ["SourceLease", "SourcePool"]


class SourceLease:
    """One job's handle on a pooled source; release exactly once."""

    def __init__(self, pool: "SourcePool", key: tuple, source: ShardSource):
        self._pool = pool
        self.key = key
        self.source = source
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._pool._release(self.key)

    def __enter__(self) -> "SourceLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _Entry:
    __slots__ = ("source", "refs")

    def __init__(self, source: ShardSource):
        self.source = source
        self.refs = 1


class SourcePool:
    """Refcounted cache-path → open shard source map (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple, _Entry] = {}

    @staticmethod
    def _key(path, n_gpus: int, shards_per_gpu: int, policy: str) -> tuple:
        # resolve symlinks/relative spellings so two jobs naming the same
        # file differently still share one handle
        return (str(Path(path).resolve()), int(n_gpus),
                int(shards_per_gpu), str(policy))

    def acquire(
        self, path, *, n_gpus: int, shards_per_gpu: int, policy: str
    ) -> SourceLease:
        """Lease the (possibly shared) source for a cache path.

        The open itself happens outside the pool lock — a slow first open
        of one cache must not stall leases on every other cache — with a
        lost-race duplicate closed immediately.
        """
        key = self._key(path, n_gpus, shards_per_gpu, policy)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.refs += 1
                return SourceLease(self, key, entry.source)
        source = open_shard_source(
            path, n_gpus=n_gpus, shards_per_gpu=shards_per_gpu, policy=policy
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:  # another job opened it while we did
                entry.refs += 1
                loser = source
                source = entry.source
            else:
                self._entries[key] = _Entry(source)
                loser = None
        if loser is not None:
            loser.close()
        return SourceLease(self, key, source)

    def _release(self, key: tuple) -> None:
        close_me = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:  # already closed (close_all during teardown)
                return
            entry.refs -= 1
            if entry.refs <= 0:
                close_me = self._entries.pop(key).source
        if close_me is not None:
            close_me.close()

    def stats(self) -> dict[str, int]:
        """Outstanding lease count per pooled cache path (health view)."""
        with self._lock:
            return {key[0]: entry.refs for key, entry in self._entries.items()}

    def close_all(self) -> None:
        """Force-close every pooled source (server shutdown backstop)."""
        with self._lock:
            entries, self._entries = list(self._entries.values()), {}
        for entry in entries:
            entry.source.close()
