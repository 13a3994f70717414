"""Tests for the shared-memory multi-process QueryServer."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.helpers import random_graph
from tests.serve.test_shm import segment_exists

from repro.core import (
    DirectedWCIndex,
    WeightedWCIndex,
    build_wc_index_plus,
    save_frozen,
)
from repro.graph.generators import (
    oriented_copy,
    paper_figure3,
    scale_free_network,
    with_random_lengths,
)
from repro.serve import QueryServer
from repro.workloads.queries import random_queries


@pytest.fixture(scope="module")
def network():
    return scale_free_network(120, 3, num_qualities=5, seed=9)


@pytest.fixture(scope="module")
def frozen(network):
    return build_wc_index_plus(network).freeze()


@pytest.fixture(scope="module")
def workload(network):
    return list(random_queries(network, 400, seed=2))


class TestQueryServer:
    def test_batch_matches_single_process_engine(self, frozen, workload):
        with QueryServer(frozen, workers=2) as server:
            assert server.query_batch(workload) == frozen.distance_many(
                workload
            )

    def test_single_query(self, frozen, workload):
        s, t, w = workload[0]
        with QueryServer(frozen, workers=2) as server:
            assert server.query(s, t, w) == frozen.distance(s, t, w)

    def test_empty_batch(self, frozen):
        with QueryServer(frozen, workers=1) as server:
            assert server.query_batch([]) == []

    def test_explicit_chunk_size(self, frozen, workload):
        expected = frozen.distance_many(workload)
        with QueryServer(frozen, workers=2) as server:
            assert server.query_batch(workload, chunk_size=7) == expected
            chunks = -(-len(workload) // 7)
            dispatch = server.health()["dispatch"]
            assert dispatch["chunks"] == chunks
            assert dispatch["redispatches"] == 0
            assert sum(dispatch["chunk_sizes"]["buckets"].values()) == chunks
            assert dispatch["chunk_sizes"]["mean_size"] == len(workload) / chunks
            assert (
                server.query_batch(workload, chunk_size=len(workload) * 2)
                == expected
            )
            with pytest.raises(ValueError, match="chunk_size"):
                server.query_batch(workload, chunk_size=0)

    def test_small_batch_is_one_chunk(self, frozen, workload):
        # A 32-query batch on one worker is one job, not four 8-query
        # ones: each chunk would pay a worker round trip.
        with QueryServer(frozen, workers=1) as server:
            batch = workload[:32]
            assert server.query_batch(batch) == frozen.distance_many(batch)
            assert server.dispatch_snapshot()["chunks"] == 1

    def test_batch_goes_out_one_chunk_per_worker(self, frozen, workload):
        # 400 queries on 2 workers: one 200-query chunk each; chunks
        # that small are not cut finer.
        with QueryServer(frozen, workers=2) as server:
            assert server.query_batch(workload) == frozen.distance_many(workload)
            assert server.dispatch_snapshot()["chunks"] == 2

    def test_large_batch_still_gets_four_chunks_per_worker(self, network, frozen):
        queries = list(random_queries(network, 2048, seed=4))
        with QueryServer(frozen, workers=1) as server:
            assert server.query_batch(queries) == frozen.distance_many(queries)
            assert server.dispatch_snapshot()["chunks"] == 4

    def test_serves_from_a_wcxb_path(self, tmp_path, frozen, workload):
        path = tmp_path / "net.wcxb"
        save_frozen(frozen, path)
        with QueryServer(str(path), workers=2) as server:
            assert server.query_batch(workload) == frozen.distance_many(
                workload
            )

    def test_directed_and_weighted_families(self, network):
        workload = list(random_queries(network, 200, seed=4))
        digraph = oriented_copy(network, one_way_prob=0.4, seed=1)
        directed = DirectedWCIndex(digraph).freeze()
        wgraph = with_random_lengths(network, seed=1)
        weighted = WeightedWCIndex(wgraph).freeze()
        for engine in (directed, weighted):
            with QueryServer(engine, workers=2) as server:
                assert server.query_batch(workload) == engine.distance_many(
                    workload
                )

    def test_worker_error_propagates_and_pool_survives(
        self, frozen, workload
    ):
        with QueryServer(frozen, workers=2) as server:
            with pytest.raises(RuntimeError, match="out of range"):
                server.query_batch([(0, 10_000, 1.0)])
            # The pool keeps serving after a failed batch.
            assert server.query_batch(workload) == frozen.distance_many(
                workload
            )

    def test_close_releases_the_segment(self, frozen):
        server = QueryServer(frozen, workers=2)
        name = server._image.name
        server.query(0, 1, 1.0)
        assert segment_exists(name)
        server.close()
        assert not segment_exists(name)
        assert server.closed
        server.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            server.query_batch([(0, 1, 1.0)])
        with pytest.raises(RuntimeError, match="closed"):
            server.image_bytes

    def test_kernel_pinned_into_pool_and_health(self, frozen, workload):
        expected = frozen.distance_many(workload)
        for kernel in (None, "stdlib"):
            with QueryServer(
                frozen, workers=2, kernel=kernel, fallback=True
            ) as server:
                if kernel is not None:
                    assert server.kernel_backend == kernel
                assert server.health()["kernel"] == server.kernel_backend
                assert server.query_batch(workload) == expected
                # The in-process fallback engine answers on the same
                # pinned backend.
                fallback = server._fallback()
                assert fallback.kernel_backend == server.kernel_backend
                assert fallback.distance_many(workload) == expected

    def test_explicit_numpy_kernel_fails_fast_when_unavailable(
        self, frozen, monkeypatch
    ):
        from repro.core import KernelUnavailableError, kernels

        monkeypatch.setattr(kernels, "_load_numpy", lambda: None)
        monkeypatch.setattr(kernels, "_INSTANCES", {})
        with pytest.raises(KernelUnavailableError):
            QueryServer(frozen, workers=1, kernel="numpy")

    def test_workers_validated(self, frozen):
        with pytest.raises(ValueError, match="worker"):
            QueryServer(frozen, workers=0)

    def test_pool_degrades_gracefully_when_a_worker_dies(
        self, frozen, workload
    ):
        # Regression: a worker killed while blocked on a *shared* task
        # queue used to poison the queue lock — the pool wedged and
        # query_batch polled forever.  With per-worker queues the next
        # batch simply routes around the dead worker...
        expected = frozen.distance_many(workload)
        server = QueryServer(frozen, workers=2)
        try:
            assert server.query_batch(workload[:20]) == expected[:20]
            victim = server._workers[0]
            victim.terminate()
            victim.join()
            assert server.query_batch(workload) == expected
            # ...and only a fully dead pool refuses outright.
            server._workers[1].terminate()
            server._workers[1].join()
            with pytest.raises(RuntimeError, match="no live query workers"):
                server.query_batch(workload[:5])
        finally:
            server.close()

    def test_startup_failure_does_not_leak_the_segment(
        self, frozen, monkeypatch
    ):
        # Regression: a failure between publishing the image and
        # starting the workers used to orphan the /dev/shm segment.
        import repro.serve.server as server_module

        created = []
        real_image = server_module.ShmIndexImage

        class RecordingImage(real_image):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        class ExplodingContext:
            def __getattr__(self, name):
                raise OSError("no processes for you")

        monkeypatch.setattr(server_module, "ShmIndexImage", RecordingImage)
        monkeypatch.setattr(
            server_module.multiprocessing,
            "get_context",
            lambda *args, **kwargs: ExplodingContext(),
        )
        with pytest.raises(OSError, match="no processes"):
            QueryServer(frozen, workers=2)
        assert len(created) == 1
        assert not segment_exists(created[0].name)

    def test_startup_failure_stops_already_started_workers(
        self, frozen, monkeypatch
    ):
        # Regression: if worker k's start() failed, workers 0..k-1 kept
        # running forever, attached to the destroyed image.
        import multiprocessing as mp

        import repro.serve.server as server_module

        real_context = mp.get_context("fork")
        started = []

        class FlakyProcess(real_context.Process):
            def start(self):
                if started:
                    raise OSError("process limit reached")
                super().start()
                started.append(self)

        class FlakyContext:
            Process = FlakyProcess

            def __getattr__(self, name):
                return getattr(real_context, name)

        monkeypatch.setattr(
            server_module.multiprocessing,
            "get_context",
            lambda *args, **kwargs: FlakyContext(),
        )
        with pytest.raises(OSError, match="process limit"):
            QueryServer(frozen, workers=2)
        assert len(started) == 1
        started[0].join(timeout=5.0)
        assert not started[0].is_alive()

    def test_repr(self, frozen):
        server = QueryServer(frozen, workers=1)
        assert "workers=1" in repr(server)
        server.close()
        assert "closed" in repr(server)


class TestCleanShutdown:
    def test_no_resource_tracker_noise(self, tmp_path):
        # The regression this guards: attaching workers used to register
        # the segment with the resource tracker, so worker/creator exits
        # produced "leaked shared_memory objects" warnings or tracker
        # KeyError tracebacks.  A full serve lifecycle in a fresh
        # interpreter must exit silently.
        index = build_wc_index_plus(paper_figure3(), "identity")
        path = tmp_path / "net.wcxb"
        save_frozen(index, path)
        script = (
            "from repro.serve import QueryServer\n"
            f"with QueryServer({str(path)!r}, workers=2) as server:\n"
            "    assert server.query_batch([(0, 4, 1.0), (2, 5, 2.0)])\n"
            "print('done')\n"
        )
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "done" in result.stdout
        assert result.stderr.strip() == ""

    def test_queued_work_finishes_before_shutdown(self, tmp_path):
        g = random_graph(7)
        frozen = build_wc_index_plus(g, "degree").freeze()
        workload = list(random_queries(g, 50, seed=0))
        server = QueryServer(frozen, workers=2)
        try:
            answers = server.query_batch(workload)
        finally:
            server.close()
        assert answers == frozen.distance_many(workload)
