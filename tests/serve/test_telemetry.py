"""End-to-end telemetry: traces over TCP, STATS scrapes, v1 compat."""

import time

import pytest

from repro.core import build_wc_index_plus
from repro.graph.generators import scale_free_network
from repro.obs.telemetry import Telemetry
from repro.obs.top import REQUIRED_METRICS, render_dashboard
from repro.serve import (
    AnswerCache,
    CachingClient,
    InProcessClient,
    NetClient,
    NetServerThread,
    PoolClient,
    QueryServer,
)
from repro.serve import protocol
from repro.workloads.queries import random_queries


@pytest.fixture(scope="module")
def network():
    return scale_free_network(120, 3, num_qualities=5, seed=9)


@pytest.fixture(scope="module")
def frozen(network):
    return build_wc_index_plus(network).freeze()


@pytest.fixture(scope="module")
def workload(network):
    return list(random_queries(network, 60, seed=2))


@pytest.fixture(scope="module")
def pool(frozen):
    # REQUIRED_METRICS is the contract of a pooled server (it includes
    # the pool's chunk-size histogram).
    with QueryServer(frozen, workers=1) as server:
        yield server


def _await_trace(client, trace_id, deadline_s=5.0):
    """Poll STATS until the trace lands in the ring (the answer frame is
    written a hair before the trace is sealed)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        report = client.stats()
        for payload in report.get("recent_traces", []):
            if payload["trace_id"] == trace_id:
                return payload
        time.sleep(0.01)
    raise AssertionError(f"trace {trace_id:#x} never appeared in STATS")


class TestTracedRequests:
    def test_sampled_cache_miss_span_tree_fits_client_latency(
        self, frozen, workload
    ):
        with NetServerThread(InProcessClient(frozen)) as front:
            with NetClient(*front.address) as client:
                started = time.monotonic()
                answers, trace_ids = client.distance_many_sampled(workload)
                client_latency_s = time.monotonic() - started
                assert answers == frozen.distance_many(workload)
                assert len(trace_ids) == 1
                payload = _await_trace(client, trace_ids[0])
        assert payload["queries"] == len(workload)
        assert payload["meta"] == {"cache_hit": False}
        top_level = [s for s in payload["spans"] if "parent" not in s]
        names = {s["name"] for s in top_level}
        assert {"queue-wait", "batch-coalesce", "kernel", "serialize"} <= names
        # The server-side span tree must fit inside what the client saw:
        # spans are monotonic-clock regions of the request's lifetime.
        span_sum_s = sum(s["duration_us"] for s in top_level) / 1e6
        assert span_sum_s <= client_latency_s
        assert payload["total_us"] / 1e6 <= client_latency_s

    def test_forced_sample_wins_over_disabled_sampling(self, frozen, workload):
        options = {"telemetry": Telemetry(sample_every=0)}
        with NetServerThread(InProcessClient(frozen), **options) as front:
            with NetClient(*front.address) as client:
                _, trace_ids = client.distance_many_sampled(workload[:4])
                payload = _await_trace(client, trace_ids[0])
        assert payload["trace_id"] == trace_ids[0]

    def test_cache_hit_trace_short_circuits(self, frozen, workload):
        backend = CachingClient(
            InProcessClient(frozen), AnswerCache(frozen, entries=4096)
        )
        with NetServerThread(backend) as front:
            with NetClient(*front.address) as client:
                client.distance_many(workload)  # warm the cache
                _, trace_ids = client.distance_many_sampled(workload)
                payload = _await_trace(client, trace_ids[0])
        assert payload["meta"] == {"cache_hit": True}
        names = [s["name"] for s in payload["spans"]]
        assert names == ["cache-lookup", "serialize"]

    def test_cache_miss_nests_backend_spans_under_kernel(
        self, frozen, workload
    ):
        backend = CachingClient(
            InProcessClient(frozen), AnswerCache(frozen, entries=4096)
        )
        with NetServerThread(backend) as front:
            with NetClient(*front.address) as client:
                _, trace_ids = client.distance_many_sampled(workload)
                payload = _await_trace(client, trace_ids[0])
        assert payload["meta"] == {"cache_hit": False}
        nested = {
            s["name"]: s for s in payload["spans"] if s.get("parent")
        }
        assert "cache-lookup" in nested
        assert nested["cache-lookup"]["parent"] == "kernel"
        assert nested["cache-lookup"]["meta"]["misses"] > 0

    def test_slow_query_log_catches_unsampled_tail(self, frozen, workload):
        # Threshold so low every request is "slow": unsampled requests
        # must still surface as summary rows.
        options = {"telemetry": Telemetry(sample_every=0, slow_ms=0.0001)}
        with NetServerThread(InProcessClient(frozen), **options) as front:
            with NetClient(*front.address) as client:
                client.distance_many(workload)
                deadline = time.monotonic() + 5.0
                rows = []
                while time.monotonic() < deadline and not rows:
                    rows = client.stats().get("slow_queries", [])
                    time.sleep(0.01)
        assert rows
        assert rows[0]["meta"]["sampled"] is False


class TestStatsScrapes:
    def test_json_stats_shape(self, pool, workload):
        with NetServerThread(PoolClient(pool)) as front:
            with NetClient(*front.address) as client:
                client.distance_many(workload)
                report = client.stats()
        assert report["server"]["protocol_version"] == protocol.PROTOCOL_VERSION
        assert report["stats"]["queries"]["answered"] == len(workload)
        for name in REQUIRED_METRICS:
            assert name in report["metrics"], name

    def test_prometheus_scrape_exposes_required_metrics(self, pool, workload):
        with NetServerThread(PoolClient(pool)) as front:
            with NetClient(*front.address) as client:
                client.distance_many(workload)
                text = client.stats(prometheus=True)
        for name in REQUIRED_METRICS:
            assert name in text, name
        assert "# TYPE repro_queries_answered_total counter" in text

    def test_counters_monotonic_across_scrapes(self, pool, workload):
        with NetServerThread(PoolClient(pool)) as front:
            with NetClient(*front.address) as client:
                client.distance_many(workload)
                first = client.stats()["metrics"]
                client.distance_many(workload)
                second = client.stats()["metrics"]
        for name in REQUIRED_METRICS:
            if name.endswith("_total") or name.endswith("_count"):
                assert second[name] >= first[name], name
        assert (
            second["repro_queries_answered_total"]
            == first["repro_queries_answered_total"] + len(workload)
        )
        assert (
            second["repro_pool_chunk_size_count"] > first["repro_pool_chunk_size_count"]
        )

    def test_health_report_embeds_metrics_and_telemetry(
        self, frozen, workload
    ):
        with NetServerThread(InProcessClient(frozen)) as front:
            with NetClient(*front.address) as client:
                client.distance_many(workload)
                report = client.health()
        assert report["telemetry"]["tracing"] is True
        assert "repro_queries_answered_total" in report["metrics"]

    def test_dashboard_renders_a_live_report(self, frozen, workload):
        with NetServerThread(InProcessClient(frozen)) as front:
            with NetClient(*front.address) as client:
                client.distance_many(workload)
                first = client.stats()
                client.distance_many(workload)
                second = client.stats()
        text = render_dashboard(second, first, elapsed_s=1.0)
        assert "repro top" in text
        assert "latency ms" in text
        assert "tracing on" in text
