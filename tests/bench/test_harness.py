"""Tests for the bench harness primitives."""

import pytest

from repro.bench.harness import (
    Cell,
    ExperimentTable,
    build_all_indexes,
    query_engines,
    time_build,
    time_queries,
)
from repro.graph.generators import gnm_random_graph, path_graph
from repro.workloads.queries import random_queries


class TestCell:
    def test_ok_cell(self):
        assert Cell(2.5).feasible
        assert str(Cell(2.5)) == "2.50"

    def test_integer_rendering(self):
        assert str(Cell(120.0)) == "120"

    def test_inf_cell(self):
        cell = Cell(None, "INF")
        assert not cell.feasible
        assert str(cell) == "INF"

    def test_small_value_rendering(self):
        assert str(Cell(0.00123)) == "0.00123"


class TestExperimentTable:
    def test_set_get(self):
        table = ExperimentTable("x", "t", "s", ["a", "b"])
        table.set("row", "a", Cell(1.0))
        assert table.get("row", "a").value == 1.0
        assert table.feasible_value("row", "a") == 1.0

    def test_unknown_column_rejected(self):
        table = ExperimentTable("x", "t", "s", ["a"])
        with pytest.raises(KeyError):
            table.set("row", "zzz", Cell(1.0))

    def test_feasible_value_of_inf_is_none(self):
        table = ExperimentTable("x", "t", "s", ["a"])
        table.set("row", "a", Cell(None, "INF"))
        assert table.feasible_value("row", "a") is None
        assert table.feasible_value("missing", "a") is None


class TestTiming:
    def test_time_build_returns_result(self):
        seconds, value = time_build(lambda: sum(range(1000)))
        assert seconds >= 0.0
        assert value == 499500

    def test_time_queries_positive(self):
        g = path_graph(10)
        workload = random_queries(g, 10, seed=0)
        avg = time_queries(lambda s, t, w: 0.0, workload, min_duration=0.01)
        assert avg > 0.0

    def test_time_queries_empty_workload(self):
        g = path_graph(3)
        workload = random_queries(g, 0)
        assert time_queries(lambda s, t, w: 0.0, workload) == 0.0


class TestBuildAllIndexes:
    def test_all_methods_built(self):
        g = gnm_random_graph(20, 40, num_qualities=3, seed=1)
        built = build_all_indexes(g, naive_entry_budget=None)
        assert built.naive is not None
        assert built.wc.entry_count() == built.wc_plus.entry_count()
        assert built.wc_seconds > 0 and built.wc_plus_seconds > 0

    def test_frozen_snapshot_built(self):
        g = gnm_random_graph(20, 40, num_qualities=3, seed=1)
        built = build_all_indexes(g, naive_entry_budget=None)
        assert built.wc_frozen is not None
        assert built.freeze_seconds is not None and built.freeze_seconds > 0
        assert built.wc_frozen.entry_count() == built.wc_plus.entry_count()

    def test_freeze_opt_out(self):
        g = gnm_random_graph(20, 40, num_qualities=3, seed=1)
        built = build_all_indexes(g, naive_entry_budget=None, freeze=False)
        assert built.wc_frozen is None and built.freeze_seconds is None
        engines = query_engines(g, built, include_dijkstra=False)
        assert "WC-FROZEN" not in engines

    def test_naive_budget_triggers_inf(self):
        g = gnm_random_graph(25, 80, num_qualities=4, seed=2)
        built = build_all_indexes(g, naive_entry_budget=5)
        assert built.naive is None
        assert built.naive_seconds is None

    def test_wc_and_plus_share_label_sets(self):
        g = gnm_random_graph(15, 30, num_qualities=3, seed=3)
        built = build_all_indexes(g, naive_entry_budget=None)
        for v in g.vertices():
            assert built.wc.entries_of(v) == built.wc_plus.entries_of(v)


class TestQueryEngines:
    def make(self, include_dijkstra=True, budget=None):
        g = gnm_random_graph(15, 35, num_qualities=3, seed=4)
        built = build_all_indexes(g, naive_entry_budget=budget)
        return g, built, query_engines(g, built, include_dijkstra=include_dijkstra)

    def test_lineup_road(self):
        _, _, engines = self.make(include_dijkstra=True)
        assert set(engines) == {
            "W-BFS",
            "Dijkstra",
            "C-BFS",
            "Naive",
            "WC-INDEX",
            "WC-INDEX+",
            "WC-FROZEN",
        }

    def test_lineup_social_drops_dijkstra(self):
        _, _, engines = self.make(include_dijkstra=False)
        assert "Dijkstra" not in engines

    def test_naive_missing_when_budgeted_out(self):
        _, built, engines = self.make(budget=5)
        assert built.naive is None
        assert "Naive" not in engines

    def test_engines_agree(self):
        g, _, engines = self.make()
        for w in (1.0, 2.0, 3.0):
            for s in range(0, 15, 3):
                for t in range(0, 15, 4):
                    answers = {name: fn(s, t, w) for name, fn in engines.items()}
                    assert len(set(answers.values())) == 1, answers


class TestExtensionEngines:
    def make(self):
        from repro.bench.harness import (
            build_extension_indexes,
            extension_query_engines,
        )
        from repro.graph.generators import (
            gnm_random_graph,
            oriented_copy,
            with_random_lengths,
        )

        base = gnm_random_graph(15, 35, num_qualities=3, seed=4)
        digraph = oriented_copy(base, seed=4)
        wgraph = with_random_lengths(base, seed=4)
        built = build_extension_indexes(digraph, wgraph)
        return digraph, wgraph, built, extension_query_engines(built)

    def test_lineup(self):
        from repro.bench.harness import EXTENSION_QUERY_METHODS

        _, _, built, engines = self.make()
        assert set(engines) == set(EXTENSION_QUERY_METHODS)
        assert built.directed_seconds > 0
        assert built.weighted_seconds > 0
        assert built.directed_freeze_seconds is not None

    def test_frozen_engines_agree_with_list(self):
        _, _, _, engines = self.make()
        for w in (1.0, 2.0, 3.0):
            for s in range(0, 15, 3):
                for t in range(0, 15, 4):
                    assert engines["WC-DIR"](s, t, w) == engines[
                        "WC-FROZEN-DIR"
                    ](s, t, w)
                    assert engines["WC-W"](s, t, w) == engines[
                        "WC-FROZEN-W"
                    ](s, t, w)
