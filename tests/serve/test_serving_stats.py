"""Tests for the serving stats view and the bucket quantile estimate."""

import math
import random

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)
from repro.serve.stats import ServerStats, percentile


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50.0))

    def test_single_sample(self):
        for p in (0.0, 50.0, 99.0, 100.0):
            assert percentile([7.0], p) == 7.0

    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 95.0) == 95.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0

    def test_monotone_in_p(self):
        samples = sorted([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        values = [percentile(samples, p) for p in (10, 50, 90, 99)]
        assert values == sorted(values)

    def test_empty_is_nan_for_every_p(self):
        # The documented sentinel: no traffic has no latency, and the
        # nan must not depend on which percentile was asked for.
        for p in (0.0, 50.0, 99.0, 100.0):
            assert math.isnan(percentile([], p))

    def test_p_zero_of_single_sample(self):
        assert percentile([7.0], 0.0) == 7.0

    def test_out_of_range_p_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], -0.1)


def _histogram(samples, buckets=DEFAULT_LATENCY_BUCKETS):
    hist = Histogram("h", buckets=buckets)
    for sample in samples:
        hist.observe(sample)
    return hist.cumulative()[0]


class TestHistogramQuantile:
    def test_empty_histogram_is_nan_without_bounds(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            estimate, bounds = histogram_quantile(q, _histogram([]))
            assert math.isnan(estimate)
            assert bounds is None
        estimate, bounds = histogram_quantile(0.5, [])
        assert math.isnan(estimate) and bounds is None

    def test_single_sample_inside_its_bounds(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            estimate, (lo, hi) = histogram_quantile(q, _histogram([0.004]))
            assert lo <= 0.004 <= hi
            assert lo <= estimate <= hi

    def test_nearest_rank_percentile_inside_the_bounds(self):
        rng = random.Random(7)
        for trial in range(50):
            samples = [
                rng.lognormvariate(-7.0, 2.0) for _ in range(rng.randint(1, 300))
            ]
            buckets = _histogram(samples)
            ordered = sorted(samples)
            for p in (0.0, 1.0, 50.0, 95.0, 99.0, 100.0):
                exact = percentile(ordered, p)
                estimate, (lo, hi) = histogram_quantile(p / 100.0, buckets)
                assert lo <= exact <= hi, (trial, p)
                assert lo <= estimate <= hi

    def test_interpolates_inside_the_bucket(self):
        # Four samples in (1, 2]: the median interpolates to the middle.
        estimate, bounds = histogram_quantile(0.5, _histogram([1.5] * 4, (1, 2)))
        assert bounds == (1.0, 2.0)
        assert estimate == 1.5

    def test_overflow_bucket_reports_the_highest_finite_bound(self):
        estimate, bounds = histogram_quantile(0.99, _histogram([50.0], (1, 2)))
        assert estimate == 2.0
        assert bounds == (2.0, math.inf)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            histogram_quantile(1.5, _histogram([1.0]))


class TestServerStats:
    def test_zero_silent_drops_invariant(self):
        stats = ServerStats()
        stats.admit(10)
        stats.answer(4, 0.001)
        stats.fail(2)
        snap = stats.snapshot()
        queries = snap["queries"]
        assert queries["admitted"] == 10
        assert (
            queries["answered"] + queries["failed"] + snap["queue_depth"]
            == queries["admitted"]
        )

    def test_shed_is_not_admitted(self):
        stats = ServerStats()
        stats.admit(1)
        stats.shed(5)
        snap = stats.snapshot()
        assert snap["queries"]["shed"] == 5
        assert snap["queries"]["admitted"] == 1
        assert stats.in_flight == 1

    def test_connections_tracked(self):
        stats = ServerStats()
        stats.connection_opened()
        stats.connection_opened()
        stats.connection_closed()
        assert stats.connections == 1
        assert stats.snapshot()["connections"] == 1

    def test_counters_land_on_the_shared_registry(self):
        registry = MetricsRegistry()
        stats = ServerStats(registry=registry)
        stats.admit(3)
        stats.answer(2, 0.001)
        stats.fail(1)
        stats.shed(7)
        stats.connection_opened()
        snap = registry.snapshot()
        assert snap["repro_queries_admitted_total"] == 3
        assert snap["repro_queries_answered_total"] == 2
        assert snap["repro_queries_failed_total"] == 1
        assert snap["repro_queries_shed_total"] == 7
        assert snap["repro_queue_depth"] == 0
        assert snap["repro_connections"] == 1
        assert snap["repro_request_latency_seconds_count"] == 1
        assert snap["repro_batch_size_count"] == 0

    def test_batch_sizes_mirror_into_the_registry_histogram(self):
        registry = MetricsRegistry()
        stats = ServerStats(registry=registry)
        stats.batch_sizes.observe(3)
        stats.batch_sizes.observe(100)
        snap = registry.snapshot()
        assert snap["repro_batch_size_count"] == 2
        assert snap["repro_batch_size_sum"] == 103
        # The stats view is read from the same histogram.
        assert stats.snapshot()["batch_sizes"]["batches"] == 2

    def test_snapshot_shape(self):
        stats = ServerStats()
        for ms in (1.0, 2.0, 3.0):
            stats.answer(1, ms / 1e3)
        latency = stats.snapshot()["latency"]
        assert latency["count"] == 3
        assert latency["mean_ms"] == pytest.approx(2.0)
        for key in ("p50", "p95", "p99"):
            lo, hi = latency[f"{key}_bounds_ms"]
            assert lo <= latency[f"{key}_ms"] <= hi
        # 1, 2 and 3 ms fall in the (1, 2.5] and (2.5, 5] ms buckets.
        assert latency["p50_bounds_ms"] == pytest.approx([1.0, 2.5])
        assert latency["p99_bounds_ms"] == pytest.approx([2.5, 5.0])

    def test_cache_hit_latency_resolves_below_50us(self):
        # An answer-cache hit takes ~10 us; the buckets must place it
        # more tightly than the old [0, 0.05] ms floor bucket did.
        stats = ServerStats()
        stats.answer(1, 10e-6)
        lo, hi = stats.snapshot()["latency"]["p50_bounds_ms"]
        assert lo <= 0.010 <= hi
        assert hi - lo < 0.05

    def test_empty_snapshot_is_nan_without_bounds(self):
        latency = ServerStats().snapshot()["latency"]
        assert latency["count"] == 0
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert math.isnan(latency[key])
        assert latency["p99_bounds_ms"] is None

    def test_batch_size_buckets_follow_the_registry_bounds(self):
        stats = ServerStats()
        for size in (1, 2, 3, 64, 100, 128, 5000):
            stats.batch_sizes.observe(size)
        snap = stats.snapshot()["batch_sizes"]
        assert snap["batches"] == 7
        assert snap["mean_size"] == (1 + 2 + 3 + 64 + 100 + 128 + 5000) / 7
        assert snap["buckets"] == {
            "<=1": 1,
            "<=2": 1,
            "<=4": 1,
            "<=64": 1,
            "<=128": 2,
            "<=16384": 1,
        }
