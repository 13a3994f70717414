"""Unit tests for the journal-keyed answer cache (serve/cache.py):
canonical-key quantization and dominance collisions, sharded LRU
accounting, precise journal-driven invalidation, the generation-token
fill protocol, error transparency of the caching client, and the cache
counters surfaced through ``health()`` and the ``HEALTH`` frame."""

from __future__ import annotations

import pytest

from tests.helpers import thresholds_for

from repro.core import DirectedWCIndex, WeightedWCIndex, build_wc_index_plus
from repro.graph.digraph import DiGraph
from repro.graph.generators import scale_free_network
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph
from repro.serve import (
    MISS,
    AnswerCache,
    CachingClient,
    InProcessClient,
    NetClient,
    NetServerThread,
    PoolClient,
    QueryServer,
)

INF = float("inf")


def small_graph() -> Graph:
    g = Graph(6)
    for u, v, q in [
        (0, 1, 1.0),
        (1, 2, 2.0),
        (2, 3, 1.5),
        (3, 4, 3.0),
        (4, 5, 2.5),
        (0, 5, 0.5),
    ]:
        g.add_edge(u, v, q)
    return g


def small_frozen():
    return build_wc_index_plus(small_graph(), "degree").freeze()


class TestQuantization:
    def test_levels_are_sorted_distinct_label_qualities(self):
        cache = AnswerCache(small_frozen(), entries=16)
        levels = cache.quality_levels
        assert list(levels) == sorted(set(levels))
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_threshold_quantizes_up_to_next_level(self):
        cache = AnswerCache(small_frozen(), entries=16)
        levels = cache.quality_levels
        for a, b in zip(levels, levels[1:]):
            mid = (a + b) / 2.0
            assert cache.key_for((0, 3, mid)) == cache.key_for((0, 3, b))
            assert cache.key_for((0, 3, mid)) != cache.key_for((0, 3, a))

    def test_exact_level_is_its_own_bucket(self):
        cache = AnswerCache(small_frozen(), entries=16)
        for level in cache.quality_levels:
            assert cache.key_for((0, 3, level))[2] == level

    def test_above_max_shares_one_infeasible_bucket(self):
        cache = AnswerCache(small_frozen(), entries=16)
        top = cache.quality_levels[-1]
        assert cache.key_for((0, 3, top + 0.5)) == cache.key_for(
            (0, 3, top + 100.0)
        )
        assert cache.key_for((0, 3, top + 0.5))[2] == INF

    def test_quantized_thresholds_answer_identically(self):
        # The collision is sound: every threshold that maps to one
        # canonical key produces one answer (constant per bucket).
        graph = small_graph()
        frozen = build_wc_index_plus(graph, "degree").freeze()
        cache = AnswerCache(frozen, entries=256)
        per_key = {}
        for s in range(graph.num_vertices):
            for t in range(graph.num_vertices):
                for w in thresholds_for(graph):
                    key = cache.key_for((s, t, w))
                    answer = frozen.distance(s, t, w)
                    assert per_key.setdefault(key, answer) == answer

    def test_dominance_collision_fills_one_entry(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=64)
        client = CachingClient(InProcessClient(frozen), cache)
        a, b = cache.quality_levels[0], cache.quality_levels[1]
        mid = (a + b) / 2.0
        client.distance_many([(0, 3, mid), (0, 3, b), (3, 0, b)])
        snap = cache.snapshot()
        assert snap["entries"] == 1
        assert snap["misses"] == 3
        again = client.distance_many([(0, 3, mid)])
        assert again == [frozen.distance(0, 3, b)]
        assert cache.snapshot()["hits"] == 1


class TestCanonicalPairs:
    def test_undirected_pair_normalizes(self):
        cache = AnswerCache(small_frozen(), entries=16)
        assert cache.key_for((0, 3, 1.0)) == cache.key_for((3, 0, 1.0))

    def test_weighted_pair_normalizes(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, length=2.0, quality=1.0)
        g.add_edge(1, 2, length=1.0, quality=2.0)
        g.add_edge(2, 3, length=4.0, quality=1.0)
        cache = AnswerCache(WeightedWCIndex(g).freeze(), entries=16)
        assert cache.key_for((0, 3, 1.0)) == cache.key_for((3, 0, 1.0))

    def test_directed_pair_keeps_orientation(self):
        g = DiGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(2, 3, 1.0)
        cache = AnswerCache(DirectedWCIndex(g).freeze(), entries=16)
        assert cache.key_for((0, 3, 1.0)) != cache.key_for((3, 0, 1.0))

    def test_bypass_keys(self):
        cache = AnswerCache(small_frozen(), entries=16)
        assert cache.key_for((0,)) is None  # malformed
        assert cache.key_for((0, 99, 1.0)) is None  # out of range
        assert cache.key_for((-1, 3, 1.0)) is None
        assert cache.key_for((0.5, 3, 1.0)) is None  # non-int vertex
        assert cache.key_for((0, 3, float("nan"))) is None
        assert cache.key_for((0, 3, "w")) is None


class TestLRUAccounting:
    def test_capacity_validation(self):
        frozen = small_frozen()
        with pytest.raises(ValueError, match="entries"):
            AnswerCache(frozen, entries=0)
        with pytest.raises(ValueError, match="shards"):
            AnswerCache(frozen, entries=4, shards=0)

    def test_shards_never_exceed_entries(self):
        cache = AnswerCache(small_frozen(), entries=2, shards=8)
        assert cache.capacity >= 2
        assert len(cache.snapshot()["shards"]) <= 2

    def test_eviction_counts_and_respects_capacity(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=4, shards=1)
        client = CachingClient(InProcessClient(frozen), cache)
        queries = [
            (s, t, 1.0) for s in range(6) for t in range(s + 1, 6)
        ]
        client.distance_many(queries)
        snap = cache.snapshot()
        assert snap["entries"] == 4
        assert snap["evictions"] == len(queries) - 4
        assert sum(snap["shards"]) == snap["entries"]

    def test_lru_keeps_recent_entries(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=2, shards=1)
        token = cache.token()
        key_01 = cache.key_for((0, 1, 1.0))
        key_02 = cache.key_for((0, 2, 1.0))
        key_03 = cache.key_for((0, 3, 1.0))
        cache.put(key_01, 1.0, token)
        cache.put(key_02, 2.0, token)
        assert cache.get(key_01) == 1.0  # refresh 0-1
        cache.put(key_03, 3.0, token)  # evicts 0-2
        assert cache.get(key_01, count=False) is not MISS
        assert cache.get(key_02, count=False) is MISS

    def test_snapshot_shape(self):
        snap = AnswerCache(small_frozen(), entries=16, shards=4).snapshot()
        for field in (
            "entries",
            "capacity",
            "shards",
            "hits",
            "misses",
            "evictions",
            "invalidations",
            "invalidated_entries",
            "flushes",
            "generation",
            "suspended",
        ):
            assert field in snap
        assert len(snap["shards"]) == 4
        assert snap["suspended"] is False


class TestInvalidation:
    def test_disjoint_entries_survive(self):
        # Two components: labels of one cannot reach the other, so
        # dirtying component A must keep component B's entries warm.
        g = Graph(6)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(3, 4, 1.0)
        g.add_edge(4, 5, 2.0)
        frozen = build_wc_index_plus(g, "degree").freeze()
        cache = AnswerCache(frozen, entries=64)
        client = CachingClient(InProcessClient(frozen), cache)
        client.distance_many([(0, 2, 1.0), (3, 5, 1.0)])
        dropped = cache.invalidate(frozenset([0, 1, 2]))
        assert dropped == 1
        assert cache.get(cache.key_for((3, 5, 1.0)), count=False) is not MISS
        assert cache.get(cache.key_for((0, 2, 1.0)), count=False) is MISS

    def test_entry_filled_before_a_rebind_still_tracks_its_hubs(self):
        # Two components; the pair (0, 2) reaches hub 1 through its labels.
        g = Graph(6)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(3, 4, 1.0)
        g.add_edge(4, 5, 2.0)
        frozen = build_wc_index_plus(g, "degree").freeze()
        hubs = {hub for hub, _, _ in frozen.entries_of(0)} - {0, 2}
        assert hubs
        cache = AnswerCache(frozen, entries=64)
        client = CachingClient(InProcessClient(frozen), cache)
        client.distance_many([(0, 2, 1.0)])
        key = cache.key_for((0, 2, 1.0))
        # A republish dirtying only the other component keeps the entry...
        assert cache.on_republish(engine=frozen, dirty=frozenset([4])) == 0
        assert cache.get(key, count=False) is not MISS
        # ... and a later one dirtying a hub in its reach still evicts it.
        assert cache.on_republish(engine=frozen, dirty=frozenset(hubs)) == 1
        assert cache.get(key, count=False) is MISS

    def test_empty_dirty_set_keeps_everything_but_bumps_generation(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=16)
        client = CachingClient(InProcessClient(frozen), cache)
        client.distance_many([(0, 1, 1.0)])
        before = cache.token()
        assert cache.invalidate(frozenset()) == 0
        assert cache.token() == before + 1
        assert len(cache) == 1

    def test_on_republish_incremental_invalidates(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=16)
        client = CachingClient(InProcessClient(frozen), cache)
        client.distance_many([(0, 1, 1.0)])
        dropped = cache.on_republish(
            engine=frozen, dirty=frozenset(range(6)), incremental=True
        )
        assert dropped == 1
        snap = cache.snapshot()
        assert snap["invalidations"] == 1
        assert snap["invalidated_entries"] == 1
        assert snap["suspended"] is False

    def test_on_republish_full_rebuild_flushes(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=16)
        client = CachingClient(InProcessClient(frozen), cache)
        client.distance_many([(0, 1, 1.0), (2, 3, 1.0)])
        dropped = cache.on_republish(
            engine=frozen, dirty=frozenset([0]), incremental=False
        )
        assert dropped == 2
        assert cache.snapshot()["flushes"] == 1
        assert len(cache) == 0

    def test_on_republish_without_engine_suspends(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=16)
        client = CachingClient(InProcessClient(frozen), cache)
        client.distance_many([(0, 1, 1.0)])
        cache.on_republish(engine=None, dirty=frozenset([0]))
        snap = cache.snapshot()
        assert snap["suspended"] is True
        assert snap["entries"] == 0
        # Suspended: lookups bypass, fills drop, answers stay correct.
        assert cache.key_for((0, 1, 1.0)) is None
        answers = client.distance_many([(0, 1, 1.0)])
        assert answers == frozen.distance_many([(0, 1, 1.0)])
        assert len(cache) == 0

    def test_stale_token_fill_is_dropped(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=16)
        key = cache.key_for((0, 1, 1.0))
        token = cache.token()
        cache.invalidate(frozenset([0]))
        assert cache.put(key, 2.0, token) is False
        assert cache.get(key, count=False) is MISS
        assert cache.put(key, 2.0, cache.token()) is True
        assert cache.get(key, count=False) == 2.0


class TestCachingClient:
    def test_bit_identical_answers_and_hits(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=256)
        client = CachingClient(InProcessClient(frozen), cache)
        graph = small_graph()
        queries = [
            (s, t, w)
            for s in range(6)
            for t in range(6)
            for w in thresholds_for(graph)
        ]
        assert client.distance_many(queries) == frozen.distance_many(queries)
        assert client.distance_many(queries) == frozen.distance_many(queries)
        snap = cache.snapshot()
        assert snap["hits"] >= len(queries)

    def test_duplicate_misses_forward_once(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=16)

        class CountingClient(InProcessClient):
            forwarded = 0

            def distance_many(self, queries):
                CountingClient.forwarded += len(queries)
                return super().distance_many(queries)

        client = CachingClient(CountingClient(frozen), cache)
        answers = client.distance_many(
            [(0, 3, 1.0), (3, 0, 1.0), (0, 3, 1.0)]
        )
        assert CountingClient.forwarded == 1
        assert len(set(answers)) == 1

    def test_malformed_query_raises_engine_error(self):
        frozen = small_frozen()
        client = CachingClient(
            InProcessClient(frozen), AnswerCache(frozen, entries=16)
        )
        with pytest.raises(ValueError) as cached_err:
            client.distance_many([(0, 1, 1.0), (0, 99, 1.0)])
        with pytest.raises(ValueError) as plain_err:
            frozen.distance_many([(0, 1, 1.0), (0, 99, 1.0)])
        assert str(cached_err.value) == str(plain_err.value)

    def test_malformed_query_is_never_cached(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=16)
        client = CachingClient(InProcessClient(frozen), cache)
        with pytest.raises(ValueError):
            client.distance_many([(0, 99, 1.0)])
        assert len(cache) == 0

    def test_cached_answers_fast_path(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=16)
        client = CachingClient(InProcessClient(frozen), cache)
        batch = [(0, 3, 1.0), (1, 4, 2.0)]
        assert client.cached_answers(batch) is None  # cold
        expected = client.distance_many(batch)
        assert client.cached_answers(batch) == expected
        assert client.cached_answers(batch + [(2, 5, 1.0)]) is None

    def test_health_carries_cache_section(self):
        frozen = small_frozen()
        cache = AnswerCache(frozen, entries=16)
        client = CachingClient(InProcessClient(frozen), cache)
        report = client.health()
        assert report["cache"]["capacity"] == cache.capacity

    def test_owns_client_closes_inner(self):
        frozen = small_frozen()
        inner = InProcessClient(frozen)
        client = CachingClient(
            inner, AnswerCache(frozen, entries=16), owns_client=True
        )
        client.close()
        with pytest.raises(RuntimeError):
            client.distance_many([(0, 1, 1.0)])
        with pytest.raises(RuntimeError):
            inner.distance_many([(0, 1, 1.0)])


@pytest.fixture(scope="module")
def pool_frozen():
    network = scale_free_network(60, 3, num_qualities=4, seed=11)
    return build_wc_index_plus(network).freeze()


class TestServerIntegration:
    def test_attach_cache_and_swap_invalidation(self, pool_frozen):
        with QueryServer(pool_frozen, workers=2) as server:
            cache = server.attach_cache(
                AnswerCache(pool_frozen, entries=256)
            )
            client = CachingClient(PoolClient(server), cache)
            queries = [(0, 5, 2.0), (1, 7, 1.0)]
            expected = client.distance_many(queries)
            assert server.health()["cache"]["entries"] == len(cache)
            server.swap_image(
                pool_frozen, validate=False, dirty=frozenset([0]),
                incremental=True,
            )
            snap = cache.snapshot()
            assert snap["invalidations"] == 1
            assert client.distance_many(queries) == expected

    def test_swap_from_path_suspends_cache(self, pool_frozen, tmp_path):
        from repro.core import save_frozen

        image = tmp_path / "image.wcxb"
        save_frozen(pool_frozen, image)
        with QueryServer(pool_frozen, workers=2) as server:
            cache = server.attach_cache(
                AnswerCache(pool_frozen, entries=256)
            )
            server.swap_image(str(image), validate=False)
            assert cache.snapshot()["suspended"] is True

    def test_health_frame_reports_cache(self, pool_frozen):
        cache = AnswerCache(pool_frozen, entries=64)
        backend = CachingClient(InProcessClient(pool_frozen), cache)
        with NetServerThread(backend, host="127.0.0.1", port=0) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                client.distance_many([(0, 5, 2.0)])
                client.distance_many([(0, 5, 2.0)])
                report = client.health()
        counters = report["backend"]["cache"]
        assert counters["misses"] >= 1
        assert counters["hits"] >= 1
        assert counters["entries"] >= 1
