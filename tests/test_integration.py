"""End-to-end integration tests: the full library pipeline on realistic
mid-size graphs, crossing module boundaries the unit tests keep apart."""

import io

import pytest

from repro import (
    ConstrainedBFS,
    NaivePerQualityIndex,
    PartitionedBFS,
    build_wc_index_plus,
)
from repro.core import (
    DynamicWCIndex,
    WCIndexBuilder,
    WCPathIndex,
    collect_statistics,
    distance_profile,
    load_frozen,
    profile_distance,
    save_frozen,
)
from repro.core.paths import is_valid_w_path, path_length
from repro.graph.generators import grid_road_network, scale_free_network
from repro.graph.io import from_edge_list_string, to_edge_list_string
from repro.workloads.queries import random_queries

INF = float("inf")


@pytest.fixture(scope="module")
def road():
    return grid_road_network(9, 11, num_qualities=4, seed=17)


@pytest.fixture(scope="module")
def social():
    return scale_free_network(120, 3, num_qualities=5, seed=17)


class TestFullPipeline:
    """graph file -> index -> serialize -> reload -> query/path/profile."""

    def test_road_pipeline(self, road, tmp_path):
        # Serialize the graph, read it back, index it.
        graph = from_edge_list_string(to_edge_list_string(road))
        assert graph == road

        index = build_wc_index_plus(graph)
        path_index = WCPathIndex.build(graph)
        oracle = ConstrainedBFS(graph)

        index_path = tmp_path / "road.wcxb"
        save_frozen(index, index_path)
        served = load_frozen(index_path)

        workload = random_queries(graph, 150, seed=3)
        answers = served.distance_many(workload)
        for (s, t, w), answer in zip(workload, answers):
            assert answer == oracle.distance(s, t, w)
            route = path_index.path(s, t, w)
            if answer == INF:
                assert route is None
            else:
                assert path_length(route) == answer
                assert len(route) == 1 or is_valid_w_path(graph, route, w)

    def test_social_pipeline_profiles(self, social):
        index = build_wc_index_plus(social)
        oracle = ConstrainedBFS(social)
        for s, t, _ in random_queries(social, 40, seed=9):
            profile = distance_profile(index, s, t)
            for w in social.distinct_qualities():
                assert profile_distance(profile, w) == oracle.distance(s, t, w)

    def test_statistics_consistent_with_index(self, social):
        index = build_wc_index_plus(social)
        stats = collect_statistics(index)
        assert stats.entry_count == index.entry_count()
        assert stats.max_label_size == index.max_label_size()


class TestEnginesAgreeAtScale:
    def test_all_engines_same_answers_on_road(self, road):
        engines = [
            build_wc_index_plus(road, "treedec"),
            build_wc_index_plus(road, "degree"),
            NaivePerQualityIndex(road),
            PartitionedBFS(road),
        ]
        oracle = ConstrainedBFS(road)
        for s, t, w in random_queries(road, 120, seed=4):
            expected = oracle.distance(s, t, w)
            for engine in engines:
                assert engine.distance(s, t, w) == expected

    def test_kernels_agree_on_social(self, social):
        index = WCIndexBuilder(social, "hybrid").build()
        for s, t, w in random_queries(social, 120, seed=5):
            linear = index.distance_with(s, t, w, "linear")
            assert index.distance_with(s, t, w, "naive") == linear
            assert index.distance_with(s, t, w, "binary") == linear


class TestDynamicLifecycle:
    def test_evolving_graph_stays_exact(self):
        # A graph living through growth, quality changes and pruning.
        graph = grid_road_network(5, 5, num_qualities=3, seed=21)
        dyn = DynamicWCIndex(graph.copy())
        n = graph.num_vertices

        # Growth: add shortcuts.
        dyn.insert_edges([(0, n - 1, 2.0), (3, n - 4, 3.0)])
        # Maintenance: an edge gets upgraded, another downgraded.
        some_edges = list(dyn.graph.edges())[:2]
        u, v, q = some_edges[0]
        dyn.change_quality(u, v, q + 1.0)
        u, v, q = some_edges[1]
        if q > 1.0:
            dyn.change_quality(u, v, 1.0)
        # Decay: remove a batch.
        removable = [tuple(e[:2]) for e in list(dyn.graph.edges())[5:7]]
        dyn.remove_edges(removable)

        oracle = ConstrainedBFS(dyn.graph)
        for s, t, w in random_queries(dyn.graph, 150, seed=6):
            assert dyn.distance(s, t, w) == oracle.distance(s, t, w)

    def test_serialized_dynamic_index_serves_correctly(self, tmp_path):
        graph = scale_free_network(60, 3, num_qualities=4, seed=8)
        dyn = DynamicWCIndex(graph.copy())
        dyn.insert_edge(0, 59, 4.0)
        buffer = io.BytesIO()
        save_frozen(dyn.index, buffer)
        buffer.seek(0)
        served = load_frozen(buffer)
        oracle = ConstrainedBFS(dyn.graph)
        for s, t, w in random_queries(dyn.graph, 80, seed=7):
            assert served.distance(s, t, w) == oracle.distance(s, t, w)


class TestHarnessIntegration:
    def test_experiment_runner_end_to_end(self):
        from repro.bench.experiments import exp_indexing
        from repro.bench.reporting import format_markdown, format_table

        suite = {
            "tiny-road": grid_road_network(5, 6, seed=1),
            "tiny-social": scale_free_network(40, 3, seed=1),
        }
        tables = exp_indexing(suite, "it", "integration")
        for table in tables.values():
            text = format_table(table)
            assert "tiny-road" in text and "tiny-social" in text
            assert "| tiny-road |" in format_markdown(table)

    def test_chart_rendering_of_real_experiment(self):
        from repro.bench.charts import render_chart
        from repro.bench.experiments import exp_table5

        chart = render_chart(exp_table5(scale=0.1))
        assert "#" in chart and "storage" in chart
