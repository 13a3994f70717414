"""Tests for the frozen flat-array engines of the Section V extensions
(FrozenDirectedWCIndex / FrozenWeightedWCIndex)."""

import pytest

from tests.helpers import random_digraph, random_weighted_graph, thresholds_for

from repro.baselines.online import DirectedConstrainedBFS
from repro.core import (
    DirectedWCIndex,
    FrozenDirectedWCIndex,
    FrozenWeightedWCIndex,
    WeightedWCIndex,
    constrained_dijkstra,
)
from repro.graph.digraph import DiGraph
from repro.graph.weighted import WeightedGraph
from repro.workloads.queries import random_queries

INF = float("inf")


class TestFrozenDirectedMatchesOracle:
    @pytest.mark.parametrize("trial", range(8))
    def test_distance_matches_list_engine_and_bfs(self, trial):
        g = random_digraph(trial)
        index = DirectedWCIndex(g)
        frozen = index.freeze()
        oracle = DirectedConstrainedBFS(g)
        for w in thresholds_for(g):
            for s in g.vertices():
                truth = oracle.single_source(s, w)
                for t in g.vertices():
                    assert frozen.distance(s, t, w) == truth[t]
                    assert frozen.distance(s, t, w) == index.distance(s, t, w)

    def test_asymmetry_respected(self):
        g = DiGraph(3, [(0, 1, 2.0), (1, 2, 2.0)])
        frozen = DirectedWCIndex(g).freeze()
        assert frozen.distance(0, 2, 1.0) == 2.0
        assert frozen.distance(2, 0, 1.0) == INF
        assert frozen.reachable(0, 2, 1.0)
        assert not frozen.reachable(2, 0, 1.0)

    def test_distance_many_matches_single(self):
        for trial in range(5):
            g = random_digraph(trial)
            index = DirectedWCIndex(g)
            frozen = index.freeze()
            workload = list(random_queries(g, 60, seed=trial))
            batch = frozen.distance_many(workload)
            assert batch == index.distance_many(workload)
            assert batch == [frozen.distance(s, t, w) for s, t, w in workload]

    def test_range_checked(self):
        frozen = DirectedWCIndex(DiGraph(2, [(0, 1, 1.0)])).freeze()
        with pytest.raises(ValueError):
            frozen.distance(0, 9, 1.0)
        with pytest.raises(ValueError):
            frozen.distance_many([(9, 0, 1.0)])


class TestFrozenDirectedRoundTrip:
    @pytest.mark.parametrize("track_parents", [False, True])
    def test_thaw_reproduces_labels(self, track_parents):
        for trial in range(5):
            g = random_digraph(trial)
            index = DirectedWCIndex(g, track_parents=track_parents)
            thawed = index.freeze().thaw()
            assert thawed.order == index.order
            assert thawed.tracks_parents == index.tracks_parents
            for v in g.vertices():
                assert thawed.in_label_lists(v) == index.in_label_lists(v)
                assert thawed.out_label_lists(v) == index.out_label_lists(v)
                if track_parents:
                    assert thawed.in_parent_list(v) == index.in_parent_list(v)
                    assert thawed.out_parent_list(v) == index.out_parent_list(v)

    def test_frozen_is_independent_snapshot(self):
        g = DiGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        index = DirectedWCIndex(g)
        frozen = index.freeze()
        before = frozen.entry_count()
        index.in_label_lists(2)[0].append(0)
        assert frozen.entry_count() == before


class TestFrozenDirectedStructure:
    def test_entry_accounting_matches_list_engine(self):
        g = random_digraph(5)
        index = DirectedWCIndex(g)
        frozen = index.freeze()
        assert frozen.entry_count() == index.entry_count()
        assert frozen.num_vertices == index.num_vertices
        for v in g.vertices():
            assert frozen.in_entries_of(v) == index.in_entries_of(v)
            assert frozen.out_entries_of(v) == index.out_entries_of(v)

    def test_footprint_positive_and_reported(self):
        frozen = DirectedWCIndex(DiGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])).freeze()
        assert frozen.nbytes() > 0 and "FrozenDirectedWCIndex" in repr(frozen)

    def test_constructor_validates_sides(self):
        g = DiGraph(2, [(0, 1, 1.0)])
        in_side, out_side = DirectedWCIndex(g).freeze().sides()
        with pytest.raises(ValueError, match="vertex order"):
            FrozenDirectedWCIndex([0], out_side, in_side)
        with_parents = DirectedWCIndex(g, track_parents=True).freeze()
        with pytest.raises(ValueError, match="both sides"):
            FrozenDirectedWCIndex([0, 1], out_side, with_parents.sides()[0])


class TestFrozenWeightedMatchesOracle:
    @pytest.mark.parametrize("trial", range(8))
    def test_distance_matches_list_engine_and_dijkstra(self, trial):
        g = random_weighted_graph(trial)
        index = WeightedWCIndex(g)
        frozen = index.freeze()
        for w in thresholds_for(g):
            for s in g.vertices():
                for t in g.vertices():
                    expected = constrained_dijkstra(g, s, t, w)
                    assert frozen.distance(s, t, w) == expected
                    assert index.distance(s, t, w) == expected

    def test_real_valued_distances_survive(self):
        g = WeightedGraph(3, [(0, 1, 0.5, 1.0), (1, 2, 0.25, 1.0)])
        frozen = WeightedWCIndex(g).freeze()
        assert frozen.distance(0, 2, 1.0) == 0.75

    def test_distance_many_matches_single(self):
        for trial in range(5):
            g = random_weighted_graph(trial)
            index = WeightedWCIndex(g)
            frozen = index.freeze()
            workload = list(random_queries(g, 60, seed=trial))
            batch = frozen.distance_many(workload)
            assert batch == index.distance_many(workload)
            assert batch == [frozen.distance(s, t, w) for s, t, w in workload]

    def test_range_checked(self):
        frozen = WeightedWCIndex(WeightedGraph(2, [(0, 1, 1.0, 1.0)])).freeze()
        with pytest.raises(ValueError):
            frozen.distance(0, 9, 1.0)
        with pytest.raises(ValueError):
            frozen.distance_many([(9, 0, 1.0)])


class TestFrozenWeightedRoundTrip:
    @pytest.mark.parametrize("track_parents", [False, True])
    def test_thaw_reproduces_labels(self, track_parents):
        for trial in range(5):
            g = random_weighted_graph(trial)
            index = WeightedWCIndex(g, track_parents=track_parents)
            thawed = index.freeze().thaw()
            assert thawed.order == index.order
            assert thawed.tracks_parents == index.tracks_parents
            for v in g.vertices():
                assert thawed.label_lists(v) == index.label_lists(v)
                if track_parents:
                    assert thawed.parent_pairs(v) == index.parent_pairs(v)

    def test_thawed_paths_still_work(self):
        g = WeightedGraph(
            3, [(0, 2, 10.0, 5.0), (0, 1, 2.0, 5.0), (1, 2, 3.0, 5.0)]
        )
        index = WeightedWCIndex(g, track_parents=True)
        thawed = index.freeze().thaw()
        assert thawed.path(0, 2, 1.0) == [0, 1, 2]


class TestFrozenWeightedStructure:
    def test_entry_accounting_matches_list_engine(self):
        g = random_weighted_graph(5)
        index = WeightedWCIndex(g)
        frozen = index.freeze()
        assert frozen.entry_count() == index.entry_count()
        assert frozen.num_vertices == index.num_vertices
        for v in g.vertices():
            assert frozen.entries_of(v) == index.entries_of(v)
            assert frozen.label_size(v) == len(index.label_lists(v)[0])

    def test_parent_pairs_require_tracking(self):
        g = WeightedGraph(2, [(0, 1, 1.0, 1.0)])
        frozen = WeightedWCIndex(g).freeze()
        assert not frozen.tracks_parents
        with pytest.raises(ValueError, match="parent"):
            frozen.parent_pairs(0)

    def test_footprint_positive_and_reported(self):
        g = WeightedGraph(2, [(0, 1, 1.0, 1.0)])
        frozen = WeightedWCIndex(g, track_parents=True).freeze()
        assert frozen.nbytes() > 0 and "FrozenWeightedWCIndex" in repr(frozen)

    def test_constructor_validates_parent_arrays(self):
        from repro.core.frozen import _FlatSide

        g = WeightedGraph(2, [(0, 1, 1.0, 1.0)])
        ((offsets, hubs, dists, quals),) = WeightedWCIndex(g).freeze().raw_sides()
        # Weighted parents are (vertex, entry) pairs: both columns or none.
        one = _FlatSide(2, offsets, hubs, dists, quals, hubs)
        with pytest.raises(ValueError, match="2 parent column"):
            FrozenWeightedWCIndex([0, 1], one)
        with pytest.raises(ValueError, match="disagree"):
            _FlatSide(2, offsets, hubs, dists, quals, hubs, hubs[1:])
