"""Serving statistics, read from the unified metrics registry.

:class:`ServerStats` is the network front door's admission bookkeeping.
Every number it reports is a metric on one
:class:`~repro.obs.metrics.MetricsRegistry`: the counters
``repro_queries_{admitted,answered,failed,shed}_total``, the gauges
``repro_queue_depth`` / ``repro_connections``, and the histograms
``repro_request_latency_seconds`` (admission to answer) and
``repro_batch_size`` (queries per coalesced backend call).
:meth:`ServerStats.snapshot` is a view computed from those metrics — the
dict the ``HEALTH`` frame, the ``STATS`` report and the CLI status line
print — so a Prometheus scrape and a JSON report cannot disagree.

Latency percentiles are estimated from the histogram's buckets since
the server started (:func:`~repro.obs.metrics.histogram_quantile`,
interpolated as Prometheus does), each with the bounds of its bucket,
between which the exact percentile lies.  ``repro top`` applies the same
estimator to the difference of two scrapes to show the latency of its
last refresh.

:func:`percentile` is the exact nearest-rank percentile of a sample
list, for callers that hold their own samples (the load generator).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence

from ..obs.metrics import (
    BATCH_SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)

__all__ = ["percentile", "size_summary", "ServerStats"]

#: The percentiles every snapshot reports.
DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)


def percentile(sorted_samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list.

    ``p`` is in [0, 100].  Edge cases are deliberate and documented:

    * **empty input returns ``nan``** — no traffic has no latency, and
      ``nan`` is honest about it (it propagates through arithmetic and
      JSON-sanitizes visibly, where a silent ``0`` would read as
      "blazing fast");
    * **a single sample is every percentile of itself** — nearest-rank
      over ``[x]`` returns ``x`` for any ``p``.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not sorted_samples:
        return float("nan")
    if p == 0.0:
        return sorted_samples[0]
    rank = max(1, -(-len(sorted_samples) * p // 100))  # ceil(n * p / 100)
    return sorted_samples[int(rank) - 1]


def size_summary(hist: Histogram) -> Dict[str, object]:
    """``{"batches", "mean_size", "buckets"}`` of a size histogram: the
    number of observations, their mean, and the count of each non-empty
    bucket keyed ``"<=bound"`` (``"<=inf"`` past the largest bound)."""
    buckets, total, batches = hist.cumulative()
    counts: Dict[str, int] = {}
    below = 0
    for bound, cumulative in buckets:
        if cumulative > below:
            counts[f"<={bound:g}"] = cumulative - below
        below = cumulative
    return {
        "batches": batches,
        "mean_size": total / batches if batches else 0.0,
        "buckets": counts,
    }


def _latency_summary(hist: Histogram) -> Dict[str, object]:
    """Count, mean and bucket-estimated percentiles (milliseconds) of a
    latency histogram, each percentile with its bucket's bounds; ``nan``
    and ``None`` bounds when nothing was observed."""
    buckets, total, count = hist.cumulative()
    report: Dict[str, object] = {
        "count": count,
        "mean_ms": total / count * 1000.0 if count else float("nan"),
    }
    for p in DEFAULT_PERCENTILES:
        estimate, bounds = histogram_quantile(p / 100.0, buckets)
        report[f"p{p:g}_ms"] = estimate * 1000.0
        report[f"p{p:g}_bounds_ms"] = (
            [bound * 1000.0 for bound in bounds] if bounds else None
        )
    return report


class ServerStats:
    """The front door's counters, gauges and histograms in one object.

    * ``admitted`` / ``answered`` / ``failed`` / ``shed`` count queries
      (not frames): everything admitted ends up answered or failed, and
      everything refused at admission is shed — the zero-silent-drops
      invariant is checkable as ``admitted == answered + failed +
      in_flight``.
    * ``queue_depth`` gauges queries admitted but not yet answered.
    * ``latency`` is the ``repro_request_latency_seconds`` histogram of
      admitted requests, ``batch_sizes`` the ``repro_batch_size`` one.

    All of it lives on a :class:`~repro.obs.metrics.MetricsRegistry`
    (pass one to share it with tracing and the bridge collectors, or
    let the stats own a private one).  One outer lock spans each
    multi-metric update, so the invariant holds at every snapshot.
    """

    def __init__(self, *, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.latency = self.registry.histogram(
            "repro_request_latency_seconds",
            "Admission-to-answer latency of admitted queries",
        )
        self.batch_sizes = self.registry.histogram(
            "repro_batch_size",
            "Coalesced batch sizes dispatched to the backend",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._lock = threading.Lock()
        self._admitted = self.registry.counter(
            "repro_queries_admitted_total", "Queries accepted by admission"
        )
        self._answered = self.registry.counter(
            "repro_queries_answered_total", "Queries answered successfully"
        )
        self._failed = self.registry.counter(
            "repro_queries_failed_total", "Admitted queries that failed"
        )
        self._shed = self.registry.counter(
            "repro_queries_shed_total", "Queries refused at admission"
        )
        self._queue_depth = self.registry.gauge(
            "repro_queue_depth", "Queries admitted but not yet answered"
        )
        self._connection_gauge = self.registry.gauge(
            "repro_connections", "Open client connections"
        )

    # -- counters ------------------------------------------------------
    def admit(self, queries: int) -> None:
        with self._lock:
            self._admitted.inc(queries)
            self._queue_depth.inc(queries)

    def answer(self, queries: int, seconds: float) -> None:
        with self._lock:
            self._answered.inc(queries)
            self._queue_depth.dec(queries)
        self.latency.observe(seconds)

    def fail(self, queries: int) -> None:
        with self._lock:
            self._failed.inc(queries)
            self._queue_depth.dec(queries)

    def shed(self, queries: int) -> None:
        with self._lock:
            self._shed.inc(queries)

    def connection_opened(self) -> None:
        with self._lock:
            self._connection_gauge.inc()

    def connection_closed(self) -> None:
        with self._lock:
            self._connection_gauge.dec()

    # -- gauges --------------------------------------------------------
    @property
    def in_flight(self) -> int:
        with self._lock:
            return int(self._queue_depth.value)

    @property
    def connections(self) -> int:
        with self._lock:
            return int(self._connection_gauge.value)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counters = {
                "admitted": int(self._admitted.value),
                "answered": int(self._answered.value),
                "failed": int(self._failed.value),
                "shed": int(self._shed.value),
            }
            queue_depth = int(self._queue_depth.value)
            connections = int(self._connection_gauge.value)
        return {
            "queries": counters,
            "queue_depth": queue_depth,
            "connections": connections,
            "latency": _latency_summary(self.latency),
            "batch_sizes": size_summary(self.batch_sizes),
        }
