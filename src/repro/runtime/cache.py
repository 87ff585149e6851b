"""Content-addressed result cache for generations.

Keys come from :func:`repro.runtime.units.generation_key` — (prompt hash,
model, generate config, seed) — so a hit is guaranteed to be the exact
completion the model would have produced, and repeated sweeps (the
Overall rows, the sensitivity figures re-running the ``original``
variant, warm benchmark reruns) skip the model layer entirely.

Three backends:

* :class:`InMemoryResultCache` — a thread-safe dict, scoped to the
  process; the default choice inside one script run;
* :class:`FilesystemResultCache` — stores each generation as one entry
  of a :class:`repro.store.filesystem.SimFilesystem` namespace, so a
  cache can share the simulated storage substrate with workflow runs
  (and several experiments can share one namespace);
* :class:`repro.persist.DiskResultCache` — the durable backend: entries
  live in an on-disk :class:`~repro.persist.RunStore` shared between
  processes (see :mod:`repro.persist`).

All three expose the same introspection surface (``__len__`` and
``stats()``; see :class:`ResultCache`), so harness code and tests can
treat any backend interchangeably.

:class:`ScoreCache` sits on the other side of the executor: it memoizes
*scores* by (generation key, target hash, scorer fingerprint) so cache
hits and deduplicated units skip the metric work too.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Iterable, Protocol, runtime_checkable

from repro.errors import HarnessError
from repro.stats import stats_dict
from repro.store.filesystem import SimFilesystem

from repro.runtime.units import Generation


@runtime_checkable
class ResultCache(Protocol):
    """What a cache backend must implement.

    The contract, shared by all three shipped backends (in-memory,
    sim-filesystem, on-disk):

    * ``get(key)`` — the cached :class:`Generation` for one content key
      (from :func:`repro.runtime.units.generation_key`), flagged via
      :meth:`Generation.as_cached`, or ``None`` on a miss.  A ``get``
      must never invent entries: a hit is always the exact completion
      the model would have produced for that key.
    * ``put(generation)`` — store one generation under its own key;
      last-writer-wins on duplicates (all writers hold identical
      content for a given key, so the race is benign).
    * ``__len__()`` — number of distinct keys currently cached.
    * ``stats()`` — introspection dict in the unified ``repro.stats``
      schema (``schema``/``kind`` markers, kind ``"result_cache"``) with
      at least ``backend`` (str),
      ``entries``, ``hits``, ``misses`` and ``puts`` counters, plus the
      read-path counters ``read_lru_hits``, ``read_lru_misses`` and
      ``bytes_read`` (how many record reads the backing storage served
      from its decoded-payload LRU vs. from disk, and how many record
      bytes were read; identically zero for backends with no backing
      storage), so tests and operators can ask any backend how it has
      been used.

    Backends may additionally provide ``put_many(generations)`` — the
    runner batches its post-execution writes through it when present
    (one lock acquisition / one disk append instead of N) — and
    ``get_many(keys)`` returning ``{key: Generation}`` for the present
    subset, which the runner uses to resolve a whole plan's lookups in
    one batch (the disk backend sorts the reads by file offset).
    """

    def get(self, key: str) -> Generation | None:  # pragma: no cover - protocol
        ...

    def put(self, generation: Generation) -> None:  # pragma: no cover - protocol
        ...

    def __len__(self) -> int:  # pragma: no cover - protocol
        ...

    def stats(self) -> dict[str, int | str]:  # pragma: no cover - protocol
        ...


class InMemoryResultCache:
    """Thread-safe process-local cache."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, Generation] = {}
        self._hits = 0
        self._misses = 0
        self._puts = 0

    def get(self, key: str) -> Generation | None:
        with self._lock:
            gen = self._entries.get(key)
            if gen is None:
                self._misses += 1
            else:
                self._hits += 1
        return gen.as_cached() if gen is not None else None

    def get_many(self, keys: Iterable[str]) -> dict[str, Generation]:
        """Batched lookup: one lock acquisition for a whole plan."""
        out: dict[str, Generation] = {}
        with self._lock:
            for key in keys:
                gen = self._entries.get(key)
                if gen is None:
                    self._misses += 1
                else:
                    self._hits += 1
                    out[key] = gen
        return {key: gen.as_cached() for key, gen in out.items()}

    def put(self, generation: Generation) -> None:
        with self._lock:
            self._entries[generation.key] = generation
            self._puts += 1

    def put_many(self, generations: Iterable[Generation]) -> None:
        with self._lock:
            for gen in generations:
                self._entries[gen.key] = gen
                self._puts += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, int | str]:
        with self._lock:
            return stats_dict(
                "result_cache",
                backend="memory",
                entries=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                # no backing storage: the read path never leaves the dict
                read_lru_hits=0,
                read_lru_misses=0,
                bytes_read=0,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InMemoryResultCache(entries={len(self)})"


class FilesystemResultCache:
    """Cache backed by a simulated filesystem namespace.

    Each generation is stored as one "file" under ``prefix/<key>``; the
    namespace's own locking makes lookups and inserts atomic.  Pass a
    private :class:`SimFilesystem` for isolation, or share one with
    other components (the default process-wide namespace via
    :func:`repro.store.filesystem.default_filesystem`).
    """

    def __init__(
        self, fs: SimFilesystem | None = None, *, prefix: str = "resultcache"
    ) -> None:
        self._fs = fs if fs is not None else SimFilesystem()
        self._prefix = prefix
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0

    @property
    def fs(self) -> SimFilesystem:
        return self._fs

    def _path(self, key: str) -> str:
        return f"{self._prefix}/{key}"

    def get(self, key: str) -> Generation | None:
        path = self._path(key)
        if not self._fs.exists(path):
            with self._lock:
                self._misses += 1
            return None
        gen: Generation = self._fs.open(path)
        with self._lock:
            self._hits += 1
        return gen.as_cached()

    def put(self, generation: Generation) -> None:
        self._fs.create(self._path(generation.key), generation)
        with self._lock:
            self._puts += 1

    def __len__(self) -> int:
        return sum(1 for name in self._fs if name.startswith(f"{self._prefix}/"))

    def __contains__(self, key: str) -> bool:
        return self._fs.exists(self._path(key))

    def stats(self) -> dict[str, int | str]:
        with self._lock:
            hits, misses, puts = self._hits, self._misses, self._puts
        return stats_dict(
            "result_cache",
            backend="sim-fs",
            entries=len(self),
            hits=hits,
            misses=misses,
            puts=puts,
            # simulated filesystem: entries are held as objects, no byte I/O
            read_lru_hits=0,
            read_lru_misses=0,
            bytes_read=0,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FilesystemResultCache(prefix={self._prefix!r}, entries={len(self)})"


class ScoreCache:
    """Bounded LRU memo of unit scores.

    Keyed by (generation key, target hash, scorer fingerprint) — see
    :func:`repro.runtime.runner.score_key` — so deduplicated units and
    warm-result-cache reruns never re-score an identical
    (completion, target) pair.  A fresh per-run instance is created by
    :func:`repro.runtime.runner.run` when none is passed; hand one cache
    to several runs to keep scores warm across a multi-plan sweep.

    A score cache offers ``get``/``get_many``/``put``; the runner
    resolves a whole plan's score keys with one ``get_many`` (the
    store-backed :class:`repro.persist.DiskScoreCache` turns that into
    one store read).
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise HarnessError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def get(self, key: Hashable) -> object | None:
        with self._lock:
            score = self._entries.get(key)
            if score is not None:
                self._entries.move_to_end(key)
        return score

    def get_many(self, keys: Iterable[Hashable]) -> dict[Hashable, object]:
        """Batched lookup: the hits among ``keys``, one lock acquisition.

        Same result and recency as calling :meth:`get` per key in order.
        """
        out: dict[Hashable, object] = {}
        with self._lock:
            for key in keys:
                score = self._entries.get(key)
                if score is not None:
                    self._entries.move_to_end(key)
                    out[key] = score
        return out

    def put(self, key: Hashable, score: object) -> None:
        self.put_many([(key, score)])

    def put_many(self, items: Iterable[tuple[Hashable, object]]) -> None:
        """Insert (or refresh) entries in order, one lock acquisition."""
        with self._lock:
            for key, score in items:
                self._entries[key] = score
                self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScoreCache(entries={len(self)}, maxsize={self.maxsize})"
