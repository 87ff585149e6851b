"""Batched score-cache reads: ``get_many`` parity and the round-trip bound.

Every score cache — the in-memory :class:`ScoreCache` and the
write-through :class:`~repro.persist.DiskScoreCache` over a local or a
remote store — answers ``get_many(keys)`` exactly as a sequence of
per-key ``get`` calls would: same hits, same counters, same LRU
recency.  The runner resolves a whole plan's score keys with one
``get_many``, so a warm sweep against a store server costs a fixed
number of ``get_records`` requests however many units it has.
"""

from __future__ import annotations

import pytest

from repro.core.experiments import run_configuration
from repro.core.scorers import CodeSimilarityScorer, Score
from repro.persist import RunStore
from repro.runtime import RetryPolicy
from repro.runtime.cache import ScoreCache
from repro.serve import open_store
from repro.testing import InProcessServer

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05)

STABLE = CodeSimilarityScorer().fingerprint
UNSTABLE = CodeSimilarityScorer(extractor=lambda text: text).fingerprint


def skey(i: int, fingerprint=STABLE) -> tuple:
    return (f"{i:064x}", "b" * 64, fingerprint)


def score(i: int) -> Score:
    return Score({"bleu": float(i), "chrf": i / 2}, f"completion {i}")


@pytest.fixture(params=["memory", "disk", "remote"])
def backend(request, tmp_path):
    """A factory of fresh score caches sharing one backing store."""
    if request.param == "memory":
        yield request.param, lambda maxsize=64: ScoreCache(maxsize)
        return
    if request.param == "disk":
        store = RunStore(tmp_path / "store")
        yield request.param, lambda maxsize=64: store.score_cache(maxsize)
        store.close()
        return
    with InProcessServer(tmp_path / "served") as server:
        with open_store(server.url(), retry=FAST_RETRY) as remote:
            yield request.param, lambda maxsize=64: remote.score_cache(maxsize)


def lru_order(cache) -> list:
    memory = cache if isinstance(cache, ScoreCache) else cache._memory
    return list(memory._entries)


def prime(name: str, make, cache) -> None:
    """Give ``cache`` memory entries and (for stores) durable-only ones."""
    # durable-only: written by another cache over the same store
    if name != "memory":
        writer = make()
        for i in range(10, 14):
            writer.put(skey(i), score(i))
    # memory entries, one of them unpersistable
    for i in range(3):
        cache.put(skey(i), score(i))
    cache.put(skey(5, UNSTABLE), score(5))


LOOKUP = [
    skey(12),  # durable only
    skey(1),  # memory
    skey(99),  # absent
    skey(10),  # durable only
    skey(5, UNSTABLE),  # memory, unpersistable
    skey(6, UNSTABLE),  # absent, unpersistable
    skey(1),  # duplicate of a memory hit
    skey(13),  # durable only
    skey(12),  # duplicate of a durable hit
    skey(0),  # memory
]


class TestGetManyParity:
    def test_matches_per_key_gets(self, backend):
        name, make = backend
        single, batched = make(), make()
        prime(name, make, single)
        prime(name, make, batched)
        before = batched.stats() if name != "memory" else None

        expected = {}
        for key in LOOKUP:
            hit = single.get(key)
            if hit is not None:
                expected[key] = hit
        found = batched.get_many(LOOKUP)

        assert found == expected
        assert skey(99) not in found and skey(6, UNSTABLE) not in found
        assert lru_order(batched) == lru_order(single)
        if name != "memory":
            assert expected.keys() >= {skey(10), skey(12), skey(13)}
            stats = batched.stats()
            assert stats == single.stats()
            assert stats["backend"] == name
            assert stats["disk_hits"] == 3  # the duplicate hits memory
            # reads never count as unpersistable puts
            assert stats["unpersistable"] == before["unpersistable"] == 1

    def test_recency_decides_eviction_alike(self, backend):
        name, make = backend
        single, batched = make(maxsize=6), make(maxsize=6)
        prime(name, make, single)
        prime(name, make, batched)
        keys = [skey(2), skey(11), skey(0)]
        for key in keys:
            single.get(key)
        batched.get_many(keys)
        for cache in (single, batched):
            for i in range(20, 23):  # push out the three least recent
                cache.put(skey(i, UNSTABLE), score(i))
        assert lru_order(batched) == lru_order(single)

    def test_empty_and_all_absent_batches(self, backend):
        name, make = backend
        cache = make()
        assert cache.get_many([]) == {}
        assert cache.get_many([skey(7), skey(8, UNSTABLE)]) == {}
        if name != "memory":
            assert cache.stats()["disk_hits"] == 0


def get_records_served(remote) -> int:
    ops = remote.metrics()["summary"]["ops"]
    return int(ops.get("get_records", {}).get("count", 0))


class TestRoundTripBound:
    def test_warm_sweep_requests_do_not_grow_with_units(self, tmp_path):
        small = dict(models=["o3"], systems=["adios2"], epochs=1)
        large = dict(
            models=["o3", "llama-3.3-70b"],
            systems=["adios2", "wilkins"],
            epochs=3,
        )
        requests = {}
        units = {}
        with InProcessServer(tmp_path / "served") as server:
            with open_store(server.url(), retry=FAST_RETRY) as remote:
                for label, sweep in (("small", small), ("large", large)):
                    run_configuration(**sweep, store=remote)  # cold fill
                    before = get_records_served(remote)
                    runs_before = len(remote.manifests())
                    run_configuration(**sweep, store=remote)  # warm
                    requests[label] = get_records_served(remote) - before
                    warm = remote.latest_manifest()
                    assert warm.stats.generated == 0
                    assert warm.stats.scores_computed == 0
                    assert len(remote.manifests()) == runs_before + 1
                    units[label] = warm.total_units
        assert units["large"] >= 8 * units["small"]
        # one generation batch plus one score batch per sweep
        assert requests["small"] == requests["large"] == 2
