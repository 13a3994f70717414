"""The ``repro top`` live view: render STATS reports as a dashboard.

``repro top host:port`` polls the server's ``STATS`` frame and redraws
a compact terminal dashboard — qps (derived from answered-counter
deltas between consecutive scrapes), latency percentiles over the last
refresh (estimated from the difference between the two scrapes'
``repro_request_latency_seconds`` buckets; since server start on the
first scrape), cache hit rate, worker liveness, the published epoch,
and the most recent slow queries.  This module is the pure
rendering half (testable without a socket); the CLI in
:mod:`repro.__main__` owns the connection and the refresh loop.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .metrics import histogram_quantile

__all__ = ["render_dashboard", "REQUIRED_METRICS"]

#: Metric names a pooled serving scrape must expose (the CI smoke job
#: asserts exactly these; keep in sync with the README table).
REQUIRED_METRICS = (
    "repro_queries_admitted_total",
    "repro_queries_answered_total",
    "repro_queries_failed_total",
    "repro_queries_shed_total",
    "repro_queue_depth",
    "repro_connections",
    "repro_request_latency_seconds_count",
    "repro_batch_size_count",
    "repro_pool_chunk_size_count",
    "repro_traces_sampled_total",
    "repro_slow_queries_total",
)


def _fmt_ms(value: Optional[float]) -> str:
    # The wire sanitizer carries non-finite floats as strings ("nan"
    # for an empty latency window), so coerce before formatting.
    if value is None:
        return "--"
    try:
        value = float(value)
    except (TypeError, ValueError):
        return "--"
    if value != value:
        return "--"
    return f"{value:.3f}"


def _fmt_count(value: float) -> str:
    if value >= 10_000_000:
        return f"{value / 1e6:.1f}M"
    if value >= 10_000:
        return f"{value / 1e3:.1f}k"
    return str(int(value))


def _rate(now: Dict[str, float], prev: Optional[Dict[str, float]],
          name: str, elapsed_s: float) -> Optional[float]:
    if prev is None or elapsed_s <= 0:
        return None
    if name not in now or name not in prev:
        return None
    return max(0.0, (now[name] - prev[name]) / elapsed_s)


_LATENCY_BUCKET = 'repro_request_latency_seconds_bucket{le="'


def _refresh_latency(
    metrics: Dict[str, float], prev: Dict[str, float]
) -> Optional[Dict[str, float]]:
    """Count and p50/p95/p99 (ms) of the requests answered between two
    scrapes, from the difference of their latency buckets; ``None``
    when the scrapes carry no buckets."""
    buckets = sorted(
        (float(name[len(_LATENCY_BUCKET) : -2]), value - prev.get(name, 0))
        for name, value in metrics.items()
        if name.startswith(_LATENCY_BUCKET)
    )
    if not buckets:
        return None
    latency = {"count": buckets[-1][1]}
    for p in (50, 95, 99):
        latency[f"p{p}_ms"] = histogram_quantile(p / 100.0, buckets)[0] * 1000.0
    return latency


def render_dashboard(
    report: Dict[str, Any],
    prev_report: Optional[Dict[str, Any]] = None,
    elapsed_s: float = 0.0,
) -> str:
    """Render one STATS report (optionally with the previous scrape for
    rate derivation) as the ``repro top`` dashboard text."""
    metrics = report.get("metrics", {})
    prev_metrics = (prev_report or {}).get("metrics") if prev_report else None
    stats = report.get("stats", {})
    queries = stats.get("queries", {})
    latency = _refresh_latency(metrics, prev_metrics) if prev_metrics else None
    if latency is not None:
        span = f"last {elapsed_s:.1f} s"
    else:
        latency, span = stats.get("latency", {}), "since start"
    telemetry = report.get("telemetry", {})
    server = report.get("server", {})

    lines: List[str] = []
    address = server.get("address")
    title = "repro top"
    if address:
        title += f" — {address[0]}:{address[1]}" if isinstance(
            address, (list, tuple)
        ) else f" — {address}"
    lines.append(title)

    qps = _rate(metrics, prev_metrics, "repro_queries_answered_total", elapsed_s)
    shed_rate = _rate(metrics, prev_metrics, "repro_queries_shed_total", elapsed_s)
    lines.append(
        "  qps {qps:>10}   answered {ans:>8}   shed {shed:>8} ({srate}/s)   "
        "failed {failed}".format(
            qps="--" if qps is None else f"{qps:,.0f}",
            ans=_fmt_count(queries.get("answered", 0)),
            shed=_fmt_count(queries.get("shed", 0)),
            srate="--" if shed_rate is None else f"{shed_rate:,.0f}",
            failed=_fmt_count(queries.get("failed", 0)),
        )
    )
    lines.append(
        "  latency ms  p50 {p50:>8}  p95 {p95:>8}  p99 {p99:>8}  "
        "({span}, n={n})".format(
            p50=_fmt_ms(latency.get("p50_ms")),
            p95=_fmt_ms(latency.get("p95_ms")),
            p99=_fmt_ms(latency.get("p99_ms")),
            span=span,
            n=int(latency.get("count", 0)),
        )
    )
    lines.append(
        "  queue depth {depth:>6}   connections {conns:>5}".format(
            depth=int(stats.get("queue_depth", 0)),
            conns=int(stats.get("connections", 0)),
        )
    )

    hits = metrics.get("repro_cache_hits_total")
    misses = metrics.get("repro_cache_misses_total")
    if hits is not None and misses is not None:
        total = hits + misses
        rate = f"{100.0 * hits / total:.1f}%" if total else "--"
        lines.append(
            "  cache  hit rate {rate:>7}   hits {hits}   misses {misses}   "
            "entries {entries}".format(
                rate=rate,
                hits=_fmt_count(hits),
                misses=_fmt_count(misses),
                entries=_fmt_count(metrics.get("repro_cache_entries", 0)),
            )
        )

    alive = metrics.get('repro_pool_workers{state="alive"}')
    total_workers = metrics.get('repro_pool_workers{state="total"}')
    if alive is not None and total_workers is not None:
        restarts = sum(
            value
            for name, value in metrics.items()
            if name.startswith("repro_pool_restarts_total")
        )
        lines.append(
            "  workers {alive}/{total} alive   restarts {restarts}".format(
                alive=int(alive),
                total=int(total_workers),
                restarts=int(restarts),
            )
        )

    epoch = metrics.get("repro_publisher_epoch")
    if epoch is not None:
        lines.append(f"  epoch {int(epoch)}")

    if telemetry:
        slow = telemetry.get("slow_queries", 0)
        sampled = telemetry.get("traces_sampled", 0)
        lines.append(
            "  tracing {state}  1/{every}   sampled {sampled}   "
            "slow {slow} (>{thresh} ms)".format(
                state="on" if telemetry.get("tracing") else "off",
                every=telemetry.get("sample_every", 0),
                sampled=_fmt_count(sampled),
                slow=_fmt_count(slow),
                thresh=telemetry.get("slow_ms"),
            )
        )

    slow_rows = report.get("slow_queries") or []
    if slow_rows:
        lines.append("  recent slow queries:")
        for row in slow_rows[-3:]:
            lines.append(
                "    trace {tid:#x}  {total:>9.3f} ms  {q} queries".format(
                    tid=int(row.get("trace_id", 0)),
                    total=float(row.get("total_us", 0.0)) / 1000.0,
                    q=row.get("queries", "?"),
                )
            )
    return "\n".join(lines)
