"""Property-based tests (hypothesis): the heavy cross-validation layer.

Strategy: generate arbitrary small quality graphs, then assert that every
engine in the library answers every constrained-distance query identically
to the brute-force constrained BFS — plus the structural invariants the
paper proves (Theorems 1 and 3).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.baselines import (
    BidirectionalConstrainedBFS,
    ConstrainedBFS,
    DirectedConstrainedBFS,
    LCRAdaptIndex,
    NaivePerQualityIndex,
    PartitionedBFS,
    PartitionedDijkstra,
)
from repro.core import (
    DirectedWCIndex,
    DynamicWCIndex,
    WCIndexBuilder,
    WCPathIndex,
    WeightedWCIndex,
    build_wc_index_plus,
    constrained_dijkstra,
)
from repro.core.paths import is_valid_w_path, path_length
from repro.core.validation import (
    dominated_entries,
    theorem3_violations,
    unnecessary_entries,
)
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph

INF = float("inf")

#: Constraint pool used by the query strategies: midpoints, every edge
#: quality, and 5.0 — above the maximum generated quality, so
#: quality-infeasible queries are always exercised.
QUERY_CONSTRAINTS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0)


@st.composite
def quality_graphs(draw, max_vertices: int = 12, max_quality: int = 4):
    """An arbitrary undirected quality graph (possibly disconnected)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        if all_pairs
        else st.just([])
    )
    graph = Graph(n)
    for u, v in chosen:
        quality = draw(st.integers(min_value=1, max_value=max_quality))
        graph.add_edge(u, v, float(quality))
    return graph


@st.composite
def graphs_with_query(draw):
    graph = draw(quality_graphs())
    n = graph.num_vertices
    s = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.integers(min_value=0, max_value=n - 1))
    w = draw(st.sampled_from(QUERY_CONSTRAINTS))
    return graph, s, t, w


@st.composite
def quality_digraphs(draw, max_vertices: int = 10, max_quality: int = 4):
    """An arbitrary digraph (sparse, so unreachable pairs are common)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    all_pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(
        st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        if all_pairs
        else st.just([])
    )
    graph = DiGraph(n)
    for u, v in chosen:
        quality = draw(st.integers(min_value=1, max_value=max_quality))
        graph.add_edge(u, v, float(quality))
    return graph


@st.composite
def quality_weighted_graphs(
    draw, max_vertices: int = 10, max_quality: int = 4
):
    """An arbitrary weighted quality graph (integer lengths keep the
    cross-engine distance comparison exact)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        if all_pairs
        else st.just([])
    )
    graph = WeightedGraph(n)
    for u, v in chosen:
        length = draw(st.integers(min_value=1, max_value=9))
        quality = draw(st.integers(min_value=1, max_value=max_quality))
        graph.add_edge(u, v, float(length), float(quality))
    return graph


@st.composite
def digraphs_with_query(draw):
    graph = draw(quality_digraphs())
    n = graph.num_vertices
    s = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.integers(min_value=0, max_value=n - 1))
    w = draw(st.sampled_from(QUERY_CONSTRAINTS))
    return graph, s, t, w


@st.composite
def weighted_graphs_with_query(draw):
    graph = draw(quality_weighted_graphs())
    n = graph.num_vertices
    s = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.integers(min_value=0, max_value=n - 1))
    w = draw(st.sampled_from(QUERY_CONSTRAINTS))
    return graph, s, t, w


def brute_force(graph: Graph, s: int, t: int, w: float) -> float:
    return ConstrainedBFS(graph).distance(s, t, w)


class TestCrossEngineAgreement:
    @given(graphs_with_query())
    def test_wc_index_matches_brute_force(self, case):
        graph, s, t, w = case
        expected = brute_force(graph, s, t, w)
        index = build_wc_index_plus(graph, "degree")
        assert index.distance(s, t, w) == expected

    @given(graphs_with_query())
    def test_all_kernels_and_orderings_agree(self, case):
        graph, s, t, w = case
        expected = brute_force(graph, s, t, w)
        for ordering in ("degree", "treedec", "hybrid"):
            index = WCIndexBuilder(graph, ordering).build()
            for kernel in ("naive", "binary", "linear"):
                assert index.distance_with(s, t, w, kernel) == expected

    @given(graphs_with_query())
    def test_frozen_engine_agrees(self, case):
        # Frozen == list == brute force, on every flat kernel and the
        # batch path.
        graph, s, t, w = case
        expected = brute_force(graph, s, t, w)
        index = build_wc_index_plus(graph, "degree")
        frozen = index.freeze()
        assert frozen.distance(s, t, w) == expected
        for kernel in ("naive", "binary", "linear"):
            assert frozen.distance_with(s, t, w, kernel) == expected
        assert frozen.distance_many([(s, t, w)]) == [expected]

    @given(graphs_with_query())
    def test_baselines_agree(self, case):
        graph, s, t, w = case
        expected = brute_force(graph, s, t, w)
        assert PartitionedBFS(graph).distance(s, t, w) == expected
        assert PartitionedDijkstra(graph).distance(s, t, w) == expected
        assert BidirectionalConstrainedBFS(graph).distance(s, t, w) == expected
        assert NaivePerQualityIndex(graph).distance(s, t, w) == expected
        assert LCRAdaptIndex(graph).distance(s, t, w) == expected


class TestExtensionEngineAgreement:
    """Frozen directed/weighted engines == their list engines == the
    online oracles, on every engine path (single, batch, post-round-trip),
    including unreachable pairs and quality-infeasible constraints."""

    @given(digraphs_with_query())
    def test_directed_engines_agree(self, case):
        graph, s, t, w = case
        expected = DirectedConstrainedBFS(graph).distance(s, t, w)
        index = DirectedWCIndex(graph)
        frozen = index.freeze()
        assert index.distance(s, t, w) == expected
        assert frozen.distance(s, t, w) == expected
        assert index.distance_many([(s, t, w)]) == [expected]
        assert frozen.distance_many([(s, t, w)]) == [expected]

    @given(weighted_graphs_with_query())
    def test_weighted_engines_agree(self, case):
        graph, s, t, w = case
        expected = constrained_dijkstra(graph, s, t, w)
        index = WeightedWCIndex(graph)
        frozen = index.freeze()
        assert index.distance(s, t, w) == expected
        assert frozen.distance(s, t, w) == expected
        assert index.distance_many([(s, t, w)]) == [expected]
        assert frozen.distance_many([(s, t, w)]) == [expected]

    @given(digraphs_with_query())
    def test_directed_binary_round_trip_preserves_answers(self, case):
        import io

        from repro.core.serialize import load_frozen, save_frozen

        graph, s, t, w = case
        index = DirectedWCIndex(graph)
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        buffer.seek(0)
        loaded = load_frozen(buffer)
        assert loaded.raw_sides() == index.freeze().raw_sides()
        assert loaded.distance(s, t, w) == index.distance(s, t, w)

    @given(weighted_graphs_with_query())
    def test_weighted_binary_round_trip_preserves_answers(self, case):
        import io

        from repro.core.serialize import load_frozen, save_frozen

        graph, s, t, w = case
        index = WeightedWCIndex(graph)
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        buffer.seek(0)
        loaded = load_frozen(buffer)
        assert loaded.raw_sides() == index.freeze().raw_sides()
        assert loaded.distance(s, t, w) == index.distance(s, t, w)

    @given(quality_digraphs(max_vertices=8))
    def test_directed_freeze_thaw_is_identity(self, graph):
        index = DirectedWCIndex(graph)
        frozen = index.freeze()
        assert frozen.thaw().freeze().raw_sides() == frozen.raw_sides()

    @given(quality_weighted_graphs(max_vertices=8))
    def test_weighted_freeze_thaw_is_identity(self, graph):
        index = WeightedWCIndex(graph)
        frozen = index.freeze()
        assert frozen.thaw().freeze().raw_sides() == frozen.raw_sides()


class TestStructuralInvariants:
    @given(quality_graphs())
    def test_theorem3_holds(self, graph):
        index = build_wc_index_plus(graph, "degree")
        assert theorem3_violations(index) == []

    @given(quality_graphs())
    def test_minimality_holds(self, graph):
        index = build_wc_index_plus(graph, "degree")
        assert dominated_entries(index) == []
        assert unnecessary_entries(index) == []

    @given(quality_graphs())
    def test_every_entry_is_a_real_path(self, graph):
        index = build_wc_index_plus(graph, "degree")
        oracle = ConstrainedBFS(graph)
        for v, hub, d, w in index.iter_entries():
            if hub == v:
                assert d == 0
                continue
            assert oracle.distance(hub, v, w) == d

    @given(quality_graphs())
    def test_symmetry(self, graph):
        # Undirected distances are symmetric; the index must agree.
        index = build_wc_index_plus(graph, "degree")
        n = graph.num_vertices
        for s in range(n):
            for t in range(s + 1, n):
                for w in (1.0, 2.5, 4.0):
                    assert index.distance(s, t, w) == index.distance(t, s, w)

    @given(quality_graphs())
    def test_monotonicity_in_w(self, graph):
        # Raising the constraint can never shorten the distance.
        index = build_wc_index_plus(graph, "degree")
        n = graph.num_vertices
        for s in range(n):
            for t in range(n):
                previous = -1.0
                for w in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
                    current = index.distance(s, t, w)
                    assert current >= previous
                    previous = current


class TestPathProperties:
    @given(graphs_with_query())
    def test_reconstructed_path_is_shortest_and_valid(self, case):
        graph, s, t, w = case
        expected = brute_force(graph, s, t, w)
        pindex = WCPathIndex.build(graph, "degree")
        path = pindex.path(s, t, w)
        if expected == INF:
            assert path is None
        else:
            assert path is not None
            assert path[0] == s and path[-1] == t
            assert path_length(path) == expected
            if len(path) > 1:
                assert is_valid_w_path(graph, path, w)


class TestSerializationProperties:
    @given(quality_graphs())
    def test_round_trip_preserves_everything(self, graph):
        import io

        from repro.core.serialize import load_frozen, save_frozen

        # Through the image and back to the list engine.
        index = build_wc_index_plus(graph, "degree")
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        buffer.seek(0)
        loaded = load_frozen(buffer).thaw()
        assert type(loaded) is type(index)
        assert loaded.order == index.order
        for v in range(graph.num_vertices):
            assert loaded.entries_of(v) == index.entries_of(v)

    @given(quality_graphs())
    def test_binary_round_trip_preserves_everything(self, graph):
        import io

        from repro.core.serialize import load_frozen, save_frozen

        index = build_wc_index_plus(graph, "degree")
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        buffer.seek(0)
        loaded = load_frozen(buffer)
        assert loaded.order == index.order
        for v in range(graph.num_vertices):
            assert loaded.entries_of(v) == index.entries_of(v)

    @given(quality_graphs())
    def test_freeze_thaw_freeze_is_identity(self, graph):
        index = build_wc_index_plus(graph, "degree")
        frozen = index.freeze()
        refrozen = frozen.thaw().freeze()
        assert frozen.raw_sides() == refrozen.raw_sides()


class TestProfileProperties:
    @given(graphs_with_query())
    def test_profile_consistent_with_distance(self, case):
        from repro.core.profile import (
            distance_profile,
            profile_distance,
            profile_is_staircase,
        )

        graph, s, t, w = case
        index = build_wc_index_plus(graph, "degree")
        profile = distance_profile(index, s, t)
        assert profile_is_staircase(profile)
        assert profile_distance(profile, w) == index.distance(s, t, w)

    @given(quality_graphs(max_vertices=10))
    def test_widest_path_is_max_feasible_threshold(self, graph):
        from repro.core.profile import widest_path_quality

        index = build_wc_index_plus(graph, "degree")
        for s in range(graph.num_vertices):
            for t in range(graph.num_vertices):
                if s == t:
                    continue
                widest = widest_path_quality(index, s, t)
                if widest == -INF:
                    assert index.distance(s, t, 0.0) == INF
                else:
                    assert index.distance(s, t, widest) != INF
                    assert index.distance(s, t, widest + 0.5) == INF


class TestDynamicProperties:
    @settings(max_examples=20)
    @given(
        quality_graphs(max_vertices=9),
        st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, 8), st.integers(1, 4)
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_insertions_stay_exact(self, graph, insertions):
        dyn = DynamicWCIndex(graph.copy(), ordering="degree")
        n = graph.num_vertices
        for u, v, q in insertions:
            u, v = u % n, v % n
            if u == v:
                continue
            dyn.insert_edge(u, v, float(q))
        oracle = ConstrainedBFS(dyn.graph)
        for w in (0.5, 1.0, 2.0, 3.0, 4.0, 4.5):
            for s in range(n):
                truth = oracle.single_source(s, w)
                for t in range(n):
                    assert dyn.distance(s, t, w) == truth[t]
