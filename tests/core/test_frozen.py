"""Tests for the frozen flat-array query engine."""

from array import array

import pytest

from tests.helpers import (
    random_digraph,
    random_graph,
    random_weighted_graph,
    thresholds_for,
)

from repro.baselines.online import ConstrainedBFS
from repro.core import (
    DirectedWCIndex,
    WCIndexBuilder,
    WeightedWCIndex,
    build_wc_index_plus,
)
from repro.core.frozen import BYTES_PER_GROUP, FrozenIndex, FrozenWCIndex, _FlatSide
from repro.core.labels import BYTES_PER_ENTRY
from repro.graph.generators import paper_figure3
from repro.workloads.queries import random_queries

INF = float("inf")


class TestFrozenMatchesOracle:
    def test_distance_matches_list_engine_and_bfs(self):
        # The heavy cross-validation: frozen == list == online BFS for
        # every pair, kernel and interesting threshold on random graphs.
        for trial in range(8):
            g = random_graph(trial)
            index = build_wc_index_plus(g, "degree")
            frozen = index.freeze()
            oracle = ConstrainedBFS(g)
            for w in thresholds_for(g):
                for s in g.vertices():
                    truth = oracle.single_source(s, w)
                    for t in g.vertices():
                        assert frozen.distance(s, t, w) == truth[t]
                        assert frozen.distance(s, t, w) == index.distance(
                            s, t, w
                        )

    def test_all_flat_kernels_agree(self):
        for trial in range(6):
            g = random_graph(trial)
            frozen = build_wc_index_plus(g, "degree").freeze()
            for w in thresholds_for(g):
                for s in g.vertices():
                    for t in g.vertices():
                        expected = frozen.distance(s, t, w)
                        for kernel in ("naive", "binary", "linear"):
                            assert (
                                frozen.distance_with(s, t, w, kernel)
                                == expected
                            )

    def test_unknown_kernel_rejected(self):
        frozen = build_wc_index_plus(paper_figure3()).freeze()
        with pytest.raises(ValueError, match="unknown kernel"):
            frozen.distance_with(0, 1, 1.0, "quantum")

    def test_reachable(self):
        frozen = build_wc_index_plus(paper_figure3(), "identity").freeze()
        assert frozen.reachable(2, 5, 2.0)
        assert not frozen.reachable(0, 5, 99.0)

    def test_vertex_range_checked(self):
        frozen = build_wc_index_plus(paper_figure3()).freeze()
        with pytest.raises(ValueError):
            frozen.distance(0, 99, 1.0)
        with pytest.raises(ValueError):
            frozen.entries_of(-1)


class TestBatchQueries:
    def test_distance_many_matches_single(self):
        for trial in range(5):
            g = random_graph(trial)
            index = build_wc_index_plus(g, "degree")
            frozen = index.freeze()
            workload = random_queries(g, 50, seed=trial)
            batch = frozen.distance_many(workload)
            assert batch == index.distance_many(workload)
            assert batch == [
                frozen.distance(s, t, w) for s, t, w in workload
            ]

    def test_distance_many_range_checked(self):
        frozen = build_wc_index_plus(paper_figure3()).freeze()
        with pytest.raises(ValueError):
            frozen.distance_many([(0, 99, 1.0)])


class TestFreezeThawRoundTrip:
    def test_thaw_reproduces_entries(self):
        for trial in range(6):
            g = random_graph(trial)
            index = build_wc_index_plus(g, "degree")
            thawed = index.freeze().thaw()
            assert thawed.order == index.order
            assert thawed.rank == index.rank
            for v in g.vertices():
                assert thawed.entries_of(v) == index.entries_of(v)

    def test_round_trip_with_parents(self):
        g = paper_figure3()
        index = WCIndexBuilder(g, "identity", track_parents=True).build()
        frozen = index.freeze()
        assert frozen.tracks_parents
        thawed = frozen.thaw()
        assert thawed.tracks_parents
        for v in g.vertices():
            assert thawed.parent_list(v) == index.parent_list(v)
            assert list(frozen.parent_list(v)) == index.parent_list(v)

    def test_frozen_is_independent_snapshot(self):
        index = build_wc_index_plus(paper_figure3(), "identity")
        frozen = index.freeze()
        before = frozen.entry_count()
        index.append_entry(0, 5, 9.0, 1.0)
        assert frozen.entry_count() == before

    def test_thawed_index_is_mutable(self):
        frozen = build_wc_index_plus(paper_figure3(), "identity").freeze()
        thawed = frozen.thaw()
        assert thawed.insert_entry_sorted(0, 5, 9.0, 99.0)


class TestStructure:
    def test_group_directory_covers_all_entries(self):
        g = random_graph(4)
        index = build_wc_index_plus(g, "degree")
        frozen = index.freeze()
        for v in g.vertices():
            groups = frozen.group_directory(v)
            hubs, _, _ = index.label_lists(v)
            # Concatenated group slices reproduce the label list exactly.
            covered = []
            for hub, start, end in groups:
                assert start < end
                for i in range(start, end):
                    covered.append(hub)
            assert covered == hubs
            # Groups are sorted by hub rank and boundaries touch.
            assert [h for h, _, _ in groups] == sorted(
                {h for h, _, _ in groups}
            )

    def test_directory_views_are_lazy(self):
        # Loading/freezing must stay at raw array speed: a vertex's hub
        # groups appear the first time a query touches it, and only
        # its own (other kernel backends build their own per-side
        # state instead).
        frozen = build_wc_index_plus(paper_figure3(), "identity").freeze(
            backend="stdlib"
        )
        (side,) = frozen.sides()
        assert not side.groups
        frozen.distance(0, 4, 1.0)
        assert set(side.groups) == {0, 4}
        frozen.distance_many([(0, 4, 1.0), (2, 4, 1.0)])
        assert set(side.groups) == {0, 2, 4}
        assert side.directory(2) == frozen.group_directory(2)
        assert sum(len(side.groups[v]) for v in range(frozen.num_vertices)) == (
            frozen.group_count()
        )

    def test_label_lists_are_views(self):
        frozen = build_wc_index_plus(paper_figure3(), "identity").freeze()
        hubs, dists, quals = frozen.label_lists(2)
        assert isinstance(hubs, memoryview)
        assert len(hubs) == len(dists) == len(quals)
        assert len(hubs) == frozen.label_size(2)

    def test_entry_accounting_matches_list_engine(self):
        g = random_graph(5)
        index = build_wc_index_plus(g, "degree")
        frozen = index.freeze()
        assert frozen.entry_count() == index.entry_count()
        assert frozen.max_label_size() == index.max_label_size()
        assert frozen.num_vertices == index.num_vertices
        for v in g.vertices():
            assert frozen.label_size(v) == index.label_size(v)
            assert frozen.entries_of(v) == index.entries_of(v)
        assert list(frozen.iter_entries()) == list(index.iter_entries())

    def test_witness_parity_with_list_engine(self):
        g = random_graph(6)
        index = build_wc_index_plus(g, "degree")
        frozen = index.freeze()
        for w in thresholds_for(g):
            for s in g.vertices():
                for t in g.vertices():
                    expected = index.distance_with_witness(s, t, w)
                    assert frozen.distance_with_witness(s, t, w) == expected

    def test_empty_index(self):
        from repro.graph.graph import Graph

        frozen = build_wc_index_plus(Graph(0)).freeze()
        assert frozen.num_vertices == 0
        assert frozen.entry_count() == 0
        assert frozen.max_label_size() == 0


class TestFootprint:
    def test_nbytes_reconciles_with_bytes_per_entry(self):
        # WCIndex.size_bytes models exactly the per-entry cost of the
        # frozen arrays; the frozen nbytes adds offsets + directory.
        g = random_graph(7)
        index = build_wc_index_plus(g, "degree")
        frozen = index.freeze()
        ((offsets, hubs, dists, quals),) = frozen.raw_sides()
        entry_bytes = (
            hubs.itemsize * len(hubs)
            + dists.itemsize * len(dists)
            + quals.itemsize * len(quals)
        )
        assert entry_bytes == BYTES_PER_ENTRY * frozen.entry_count()
        assert entry_bytes == index.size_bytes()
        expected = (
            entry_bytes
            + offsets.itemsize * len(offsets)
            + BYTES_PER_GROUP * frozen.group_count()
            + 8 * (frozen.num_vertices + 1)
        )
        assert frozen.nbytes() == expected

    def test_typecodes_are_platform_independent(self):
        frozen = build_wc_index_plus(paper_figure3()).freeze()
        ((offsets, hubs, dists, quals),) = frozen.raw_sides()
        assert offsets.itemsize == 8
        assert hubs.itemsize == 4
        assert dists.itemsize == 8
        assert quals.itemsize == 8

    def test_repr_mentions_engine(self):
        frozen = build_wc_index_plus(paper_figure3()).freeze()
        assert "FrozenWCIndex" in repr(frozen)


class TestBuilderIntegration:
    def test_build_wc_index_plus_freeze_flag(self):
        from repro.core import build_wc_index

        g = paper_figure3()
        frozen = build_wc_index_plus(g, "identity", freeze=True)
        assert isinstance(frozen, FrozenWCIndex)
        basic = build_wc_index(g, "identity", freeze=True)
        assert isinstance(basic, FrozenWCIndex)
        unfrozen = build_wc_index_plus(g, "identity")
        for v in g.vertices():
            assert frozen.entries_of(v) == unfrozen.entries_of(v)
            assert basic.entries_of(v) == unfrozen.entries_of(v)

    def test_constructor_validates_shapes(self):
        entry = (array("i", [0]), array("d", [0.0]), array("d", [1.0]))
        with pytest.raises(ValueError, match="offsets"):
            _FlatSide(2, array("q", [0, 1]), *entry)
        with pytest.raises(ValueError, match="disagree"):
            _FlatSide(1, array("q", [0, 2]), *entry)
        with pytest.raises(ValueError, match="vertex order"):
            FrozenWCIndex([0, 1], _FlatSide(1, array("q", [0, 1]), *entry))


FAMILY_INDEXES = {
    "undirected": lambda p: build_wc_index_plus(random_graph(3), track_parents=p),
    "directed": lambda p: DirectedWCIndex(random_digraph(3), track_parents=p),
    "weighted": lambda p: WeightedWCIndex(random_weighted_graph(3), track_parents=p),
}


@pytest.mark.parametrize("family", sorted(FAMILY_INDEXES))
class TestEngineAPI:
    """One two-sided engine behind all three families."""

    @pytest.mark.parametrize("parents", [False, True])
    def test_freeze_thaw_freeze_identity(self, family, parents):
        index = FAMILY_INDEXES[family](parents)
        frozen = index.freeze()
        assert isinstance(frozen, FrozenIndex)
        assert frozen.family is index.family and frozen.family.name == family
        refrozen = frozen.thaw().freeze()
        assert type(refrozen) is type(frozen)
        assert refrozen.raw_sides() == frozen.raw_sides()
        width = len(frozen.family.parent_columns) if parents else 0
        assert {len(side) for side in frozen.raw_sides()} == {4 + width}

    def test_entry_count_and_nbytes(self, family):
        index = FAMILY_INDEXES[family](True)
        frozen = index.freeze()
        sides = frozen.raw_sides()
        # A symmetric side answers both endpoints but is counted once.
        assert len(sides) == (1 if frozen.family.symmetric else 2)
        entries = sum(len(side[1]) for side in sides)
        assert frozen.entry_count() == index.entry_count() == entries
        arrays = sum(view.itemsize * len(view) for side in sides for view in side)
        directories = len(sides) * 8 * (frozen.num_vertices + 1)
        directories += BYTES_PER_GROUP * frozen.group_count()
        assert frozen.nbytes() == frozen.size_bytes() == arrays + directories

    def test_release_detaches_every_view(self, family):
        frozen = FAMILY_INDEXES[family](True).freeze()
        frozen.distance_many([(0, 1, 1.0)])  # kernel state holds exports
        views = [view for side in frozen.raw_sides() for view in side]
        frozen.release()
        for view in views:
            with pytest.raises(ValueError, match="released"):
                len(view)

    def test_inconsistent_sides_rejected(self, family):
        frozen = FAMILY_INDEXES[family](False).freeze()
        cls, sides, order = type(frozen), frozen.sides(), frozen.order
        with pytest.raises(ValueError, match="vertex order"):
            cls.from_sides(order[:-1], sides)
        wrong_count = sides * 2 if frozen.family.symmetric else sides[:1]
        with pytest.raises(ValueError, match="label side"):
            cls.from_sides(order, wrong_count)
        n, (offsets, hubs, dists, quals) = len(order), sides[0].raw_arrays()
        three = _FlatSide(n, offsets, hubs, dists, quals, hubs, hubs, hubs)
        with pytest.raises(ValueError, match="parent column"):
            cls.from_sides(order, [three] * len(sides))
        with pytest.raises(ValueError, match="disagree"):
            _FlatSide(n, offsets, hubs, dists, quals, hubs[1:])
