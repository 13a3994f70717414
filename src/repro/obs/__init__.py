"""Unified telemetry for the serving stack.

One substrate, four pieces:

* :mod:`repro.obs.metrics` — the per-server registry of thread-safe
  Counter / Gauge / Histogram metrics every layer reports through,
  with Prometheus-text and flat-JSON exposition and the bucket
  quantile estimate.
* :mod:`repro.obs.trace` — per-query span trees (queue-wait,
  batch-coalesce, kernel, cache-lookup, serialize) on the monotonic
  clock, a bounded trace ring, and the slow-query log.
* :mod:`repro.obs.telemetry` — the per-server bundle tying registry,
  sampling policy and the rings together; ``Telemetry.off()`` is the
  untraced baseline.
* :mod:`repro.obs.export` / :mod:`repro.obs.top` — scrape-time bridges
  for cache/pool/publisher counters, the periodic JSONL flush, and the
  ``repro top`` dashboard renderer.
"""

from .metrics import (
    BATCH_SIZE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    histogram_quantile,
)
from .telemetry import DEFAULT_SAMPLE_EVERY, DEFAULT_SLOW_MS, FLAG_SAMPLE, Telemetry
from .trace import (
    SPAN_NAMES,
    SlowQueryLog,
    Span,
    Trace,
    TraceBuffer,
    format_trace,
    new_trace_id,
)
from .export import JsonlExporter, bind_backend, bind_cache, bind_pool, bind_publisher
from .top import REQUIRED_METRICS, render_dashboard

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SAMPLE_EVERY",
    "DEFAULT_SLOW_MS",
    "FLAG_SAMPLE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "REQUIRED_METRICS",
    "SPAN_NAMES",
    "SlowQueryLog",
    "Span",
    "Telemetry",
    "Trace",
    "TraceBuffer",
    "JsonlExporter",
    "bind_backend",
    "bind_cache",
    "bind_pool",
    "bind_publisher",
    "format_trace",
    "histogram_quantile",
    "new_trace_id",
    "render_dashboard",
]
