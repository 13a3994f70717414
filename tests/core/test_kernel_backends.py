"""The pluggable kernel backend layer: dispatch semantics, the numpy
backend's bit-identical equivalence with the stdlib oracle across all
three frozen families, every attach mode, and the edge cases
(unreachable pairs, infeasible thresholds, empty label sides), the
numpy backend's delegation of small batches to stdlib, and the stdlib
side state built per touched vertex."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from tests.helpers import random_graph, thresholds_for
from tests.test_properties import (
    QUERY_CONSTRAINTS,
    quality_digraphs,
    quality_graphs,
    quality_weighted_graphs,
)

from repro.core import (
    BACKEND_CHOICES,
    DirectedWCIndex,
    KernelBackend,
    KernelUnavailableError,
    WeightedWCIndex,
    attach_frozen,
    available_backends,
    build_wc_index_plus,
    default_backend_name,
    numpy_available,
    resolve_backend,
    save_frozen,
)
from repro.core import kernels as kernels_module
from repro.graph.generators import gnm_random_graph

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


@pytest.fixture(scope="class")
def vectorized():
    """Keep every batch on the numpy backend's vectorized path.

    Small batches (few queries per distinct threshold) are otherwise
    delegated to stdlib, and the equivalence tests would compare stdlib
    with itself.  Class-scoped and set by hand, not through
    ``monkeypatch``, so hypothesis-driven tests can use it.
    """
    from repro.core.kernels import numpy_backend

    saved = numpy_backend._MIN_QUERIES_PER_W
    numpy_backend._MIN_QUERIES_PER_W = 0
    yield
    numpy_backend._MIN_QUERIES_PER_W = saved


@pytest.fixture
def no_numpy(monkeypatch):
    """Simulate a machine without numpy: the single availability probe
    answers None and the instance cache is cleared for the test."""
    monkeypatch.setattr(kernels_module, "_load_numpy", lambda: None)
    monkeypatch.setattr(kernels_module, "_INSTANCES", {})


class TestDispatch:
    def test_choices_cover_both_backends(self):
        assert BACKEND_CHOICES == ("auto", "stdlib", "numpy")

    def test_stdlib_always_available(self):
        assert available_backends()[0] == "stdlib"
        assert resolve_backend("stdlib").name == "stdlib"

    def test_instances_are_shared(self):
        assert resolve_backend("stdlib") is resolve_backend("stdlib")

    def test_auto_and_none_resolve_to_default(self):
        default = default_backend_name()
        assert resolve_backend(None).name == default
        assert resolve_backend("auto").name == default

    def test_instance_passes_through(self):
        backend = resolve_backend("stdlib")
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")

    @needs_numpy
    def test_numpy_detected_when_installed(self):
        assert available_backends() == ("stdlib", "numpy")
        assert default_backend_name() == "numpy"
        assert resolve_backend("numpy").name == "numpy"

    def test_without_numpy_auto_falls_back(self, no_numpy):
        assert not kernels_module.numpy_available()
        assert kernels_module.available_backends() == ("stdlib",)
        assert kernels_module.default_backend_name() == "stdlib"
        assert kernels_module.resolve_backend("auto").name == "stdlib"

    def test_without_numpy_explicit_numpy_fails_fast(self, no_numpy):
        with pytest.raises(KernelUnavailableError, match="not available"):
            kernels_module.resolve_backend("numpy")

    def test_abstract_backend_is_abstract(self):
        backend = KernelBackend()
        with pytest.raises(NotImplementedError):
            backend.prepare_side(None)
        with pytest.raises(NotImplementedError):
            backend.batch([], None, None, 0)


class TestEngineSelection:
    def test_freeze_reports_backend(self):
        graph = random_graph(0)
        frozen = build_wc_index_plus(graph, "degree").freeze(
            backend="stdlib"
        )
        assert frozen.kernel_backend == "stdlib"

    def test_auto_freeze_picks_default(self):
        graph = random_graph(1)
        frozen = build_wc_index_plus(graph, "degree").freeze()
        assert frozen.kernel_backend == default_backend_name()

    @needs_numpy
    @pytest.mark.usefixtures("vectorized")
    def test_select_backend_switches_and_chains(self):
        graph = random_graph(2)
        frozen = build_wc_index_plus(graph, "degree").freeze(
            backend="stdlib"
        )
        queries = [
            (s, t, w)
            for s in range(graph.num_vertices)
            for t in range(graph.num_vertices)
            for w in thresholds_for(graph)
        ]
        expected = frozen.distance_many(queries)
        assert frozen.select_backend("numpy") is frozen
        assert frozen.kernel_backend == "numpy"
        assert frozen.distance_many(queries) == expected

    def test_explicit_numpy_without_numpy_fails_at_freeze(self, no_numpy):
        graph = random_graph(3)
        index = build_wc_index_plus(graph, "degree")
        with pytest.raises(KernelUnavailableError):
            index.freeze(backend="numpy")


def all_queries(num_vertices, thresholds):
    return [
        (s, t, w)
        for s in range(num_vertices)
        for t in range(num_vertices)
        for w in thresholds
    ]


def assert_backends_agree(index):
    """Freeze once per backend and require bit-identical batches —
    including the unreachable pairs (INF) the sparse strategies
    produce and thresholds above every quality (empty feasible sets)."""
    stdlib_engine = index.freeze(backend="stdlib")
    numpy_engine = index.freeze(backend="numpy")
    queries = all_queries(index.num_vertices, QUERY_CONSTRAINTS)
    assert numpy_engine.distance_many(queries) == (
        stdlib_engine.distance_many(queries)
    )


@needs_numpy
@pytest.mark.usefixtures("vectorized")
class TestNumpyEquivalence:
    @settings(max_examples=25)
    @given(quality_graphs())
    def test_undirected(self, graph):
        assert_backends_agree(build_wc_index_plus(graph, "degree"))

    @settings(max_examples=20)
    @given(quality_digraphs())
    def test_directed(self, graph):
        assert_backends_agree(DirectedWCIndex(graph))

    @settings(max_examples=20)
    @given(quality_weighted_graphs())
    def test_weighted(self, graph):
        assert_backends_agree(WeightedWCIndex(graph))

    def test_empty_batch(self):
        frozen = build_wc_index_plus(random_graph(4), "degree").freeze(
            backend="numpy"
        )
        assert frozen.distance_many([]) == []

    def test_single_vertex_no_edges(self):
        from repro.graph.graph import Graph

        frozen = build_wc_index_plus(Graph(1), "degree").freeze(
            backend="numpy"
        )
        assert frozen.distance_many([(0, 0, 1.0)]) == [0.0]

    def test_out_of_range_matches_stdlib_message(self):
        index = build_wc_index_plus(random_graph(5), "degree")
        queries = [(0, 0, 1.0), (0, index.num_vertices, 1.0)]
        with pytest.raises(ValueError) as stdlib_err:
            index.freeze(backend="stdlib").distance_many(queries)
        with pytest.raises(ValueError) as numpy_err:
            index.freeze(backend="numpy").distance_many(queries)
        assert str(numpy_err.value) == str(stdlib_err.value)

    def test_negative_vertex_rejected(self):
        frozen = build_wc_index_plus(random_graph(6), "degree").freeze(
            backend="numpy"
        )
        with pytest.raises(ValueError, match="out of range"):
            frozen.distance_many([(-1, 0, 1.0)])

    def test_high_cardinality_w(self):
        # One distinct threshold per query: one feasibility slice per
        # query, still bit-identical.
        queries, index = high_cardinality_batch()
        assert index.freeze(backend="numpy").distance_many(queries) == (
            index.freeze(backend="stdlib").distance_many(queries)
        )

    def test_infinite_threshold(self):
        # w = inf: no finite quality is feasible, every group is empty.
        index = build_wc_index_plus(random_graph(7), "degree")
        queries = all_queries(index.num_vertices, (float("inf"),))
        numpy_answers = index.freeze(backend="numpy").distance_many(
            queries
        )
        assert numpy_answers == index.freeze(
            backend="stdlib"
        ).distance_many(queries)
        assert all(
            d == (0.0 if s == t else float("inf"))
            for (s, t, _), d in zip(queries, numpy_answers)
        )

    def test_attach_release_after_numpy_queries(self):
        # The numpy side state holds frombuffer exports over the
        # attached views; release() must drop them first or the
        # memoryview release raises BufferError.
        import io

        index = build_wc_index_plus(random_graph(8), "degree")
        buffer = io.BytesIO()
        save_frozen(index.freeze(), buffer)
        engine = attach_frozen(buffer.getvalue(), backend="numpy")
        queries = all_queries(index.num_vertices, (1.0, 2.0, 3.0))
        assert engine.distance_many(queries) == index.freeze(
            backend="stdlib"
        ).distance_many(queries)
        engine.release()


def high_cardinality_batch():
    """300 queries over a 40-vertex graph, nearly one threshold each."""
    import random

    graph = gnm_random_graph(40, 120, seed=11, num_qualities=4)
    rng = random.Random(13)
    queries = [
        (rng.randrange(40), rng.randrange(40), 1.0 + rng.random() * 3)
        for _ in range(300)
    ]
    assert len({w for _, _, w in queries}) > 64
    return queries, build_wc_index_plus(graph, "degree")


@needs_numpy
class TestSmallBatchDelegation:
    """Below the floor on queries per distinct threshold, the numpy
    backend hands the batch to stdlib and builds no numpy state."""

    def floor(self):
        from repro.core.kernels import numpy_backend

        return numpy_backend._MIN_QUERIES_PER_W

    def test_below_floor_builds_only_stdlib_state(self):
        index = build_wc_index_plus(random_graph(9), "degree")
        engine = index.freeze(backend="numpy")
        (side,) = engine.sides()
        queries = [(0, 1, 1.0), (1, 0, 2.0)]
        assert len(queries) < self.floor() * 2
        assert engine.distance_many(queries) == (
            index.freeze(backend="stdlib").distance_many(queries)
        )
        assert side._kernel_states == {}
        assert set(side.groups) == {0, 1}

    def test_at_floor_runs_vectorized(self):
        index = build_wc_index_plus(random_graph(9), "degree")
        engine = index.freeze(backend="numpy")
        (side,) = engine.sides()
        n = index.num_vertices
        queries = [(v % n, (v * 7) % n, 2.0) for v in range(self.floor())]
        assert engine.distance_many(queries) == (
            index.freeze(backend="stdlib").distance_many(queries)
        )
        assert set(side._kernel_states) == {"numpy"}

    def test_high_cardinality_w_delegates_identically(self):
        queries, index = high_cardinality_batch()
        engine = index.freeze(backend="numpy")
        assert engine.distance_many(queries) == (
            index.freeze(backend="stdlib").distance_many(queries)
        )
        (side,) = engine.sides()
        assert side._kernel_states == {}

    def test_out_of_range_below_floor_matches_stdlib_message(self):
        index = build_wc_index_plus(random_graph(5), "degree")
        queries = [(0, index.num_vertices, 1.0)]
        with pytest.raises(ValueError) as stdlib_err:
            index.freeze(backend="stdlib").distance_many(queries)
        with pytest.raises(ValueError) as numpy_err:
            index.freeze(backend="numpy").distance_many(queries)
        assert str(numpy_err.value) == str(stdlib_err.value)


class TestLazyStdlibState:
    def test_fresh_attach_fills_only_touched_vertices(self):
        import io

        index = build_wc_index_plus(random_graph(8), "degree")
        buffer = io.BytesIO()
        save_frozen(index.freeze(), buffer)
        engine = attach_frozen(buffer.getvalue(), backend="stdlib")
        (side,) = engine.sides()
        assert not side.groups
        queries = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]
        full = index.freeze(backend="stdlib")
        everything = all_queries(index.num_vertices, (1.0, 2.0, 3.0))
        full.distance_many(everything)  # every vertex's groups built
        assert engine.distance_many(queries) == full.distance_many(queries)
        assert set(side.groups) == {0, 1, 2}
        (full_side,) = full.sides()
        assert all(side.groups[v] == full_side.groups[v] for v in (0, 1, 2))
        engine.release()
        assert not side.groups

    def test_concurrent_first_touches_see_whole_groups(self):
        # Executor threads share one engine: a thread that finds a
        # vertex's groups must find all of them, even while another
        # thread is still building that vertex's map.
        import sys
        import threading

        index = build_wc_index_plus(gnm_random_graph(60, 240, seed=3), "degree")
        queries = all_queries(index.num_vertices, (1.0, 2.0, 3.0))
        expected = index.freeze(backend="stdlib").distance_many(queries)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                engine = index.freeze(backend="stdlib")
                results = [None] * 8

                def run(slot, engine=engine, results=results):
                    results[slot] = engine.distance_many(queries)

                threads = [
                    threading.Thread(target=run, args=(slot,)) for slot in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * 8
        finally:
            sys.setswitchinterval(interval)
