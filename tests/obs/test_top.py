"""Tests for the pure dashboard renderer behind ``repro top``."""

from repro.obs.top import REQUIRED_METRICS, render_dashboard


def _report(**overrides):
    report = {
        "server": {"address": ["127.0.0.1", 7071]},
        "stats": {
            "queries": {"answered": 120, "shed": 4, "failed": 0},
            "latency": {
                "count": 120,
                "p50_ms": 0.4,
                "p95_ms": 1.2,
                "p99_ms": 2.5,
            },
            "queue_depth": 3,
            "connections": 2,
        },
        "metrics": {
            "repro_queries_answered_total": 120,
            "repro_queries_shed_total": 4,
        },
        "telemetry": {
            "tracing": True,
            "sample_every": 64,
            "slow_ms": 50.0,
            "traces_sampled": 2,
            "slow_queries": 1,
        },
    }
    report.update(overrides)
    return report


class TestRenderDashboard:
    def test_header_and_core_lines(self):
        text = render_dashboard(_report())
        assert "repro top — 127.0.0.1:7071" in text
        assert "answered" in text and "120" in text
        assert "p99    2.500" in text
        assert "tracing on" in text

    def test_qps_derived_from_counter_deltas(self):
        prev = _report()
        now = _report()
        now["metrics"] = {
            "repro_queries_answered_total": 220,
            "repro_queries_shed_total": 4,
        }
        text = render_dashboard(now, prev, elapsed_s=2.0)
        assert "qps         50" in text
        # No previous scrape: rate is unknowable, not zero.
        assert "qps         --" in render_dashboard(now)

    def test_latency_since_start_without_a_previous_scrape(self):
        assert "(since start, n=120)" in render_dashboard(_report())

    def test_latency_over_the_last_refresh_from_bucket_deltas(self):
        def with_buckets(counts):
            report = _report()
            for le, count in zip(("0.001", "0.01", "+Inf"), counts):
                name = f'repro_request_latency_seconds_bucket{{le="{le}"}}'
                report["metrics"][name] = count
            return report

        # 100 fast requests before; the next 10 all land in (1, 10] ms.
        prev = with_buckets((100, 100, 100))
        now = with_buckets((100, 110, 110))
        text = render_dashboard(now, prev, elapsed_s=2.0)
        assert "p50    5.500" in text
        assert "(last 2.0 s, n=10)" in text

    def test_empty_window_renders_sentinels_not_a_crash(self):
        # Over the wire the sanitizer carries NaN as the string "nan".
        report = _report()
        report["stats"]["latency"] = {
            "count": 0,
            "p50_ms": "nan",
            "p95_ms": "nan",
            "p99_ms": "nan",
        }
        text = render_dashboard(report)
        assert "p99       --" in text

    def test_cache_and_worker_lines_appear_when_collected(self):
        report = _report()
        report["metrics"].update(
            {
                "repro_cache_hits_total": 75,
                "repro_cache_misses_total": 25,
                "repro_cache_entries": 10,
                'repro_pool_workers{state="alive"}': 3,
                'repro_pool_workers{state="total"}': 4,
            }
        )
        text = render_dashboard(report)
        assert "hit rate   75.0%" in text
        assert "workers 3/4 alive" in text

    def test_uncollected_sections_are_omitted(self):
        text = render_dashboard(_report())
        assert "cache" not in text
        assert "workers" not in text

    def test_slow_queries_tail_renders(self):
        report = _report(
            slow_queries=[
                {"trace_id": 0xAB, "total_us": 61_000.0, "queries": 8}
            ]
        )
        text = render_dashboard(report)
        assert "recent slow queries" in text
        assert "trace 0xab" in text
        assert "61.000 ms" in text

    def test_required_metrics_is_the_ci_contract(self):
        assert "repro_queries_answered_total" in REQUIRED_METRICS
        assert len(set(REQUIRED_METRICS)) == len(REQUIRED_METRICS)
        for name in REQUIRED_METRICS:
            assert name.startswith("repro_")
