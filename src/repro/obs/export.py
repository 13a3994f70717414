"""Scrape-time bridges and the periodic JSONL exporter.

The answer cache, the worker pool, the supervisor and the live
publisher all keep their counters where their locking demands (per
shard, per slot, under the publish lock).  Rather than make their hot
paths also bump registry metrics, each joins the registry through a
*collector* — a callable run at scrape time that reads the component's
own snapshot and emits :class:`~repro.obs.metrics.MetricFamily` rows.
``bind_backend`` walks a client stack (``CachingClient`` →
``PoolClient`` → ``QueryServer`` → ``Supervisor``) and installs every
bridge that applies, so the network front door wires the whole stack
with one call.

Exposed families (see the README metric table):

* ``repro_cache_{hits,misses,evictions,invalidations,flushes,
  invalidated_entries}_total``,
  ``repro_cache_{entries,capacity,generation,suspended}``
* ``repro_pool_workers{state="alive"|"total"}``,
  ``repro_pool_chunk_size`` (the pool's own histogram),
  ``repro_pool_restarts_total`` (+ per-slot via ``slot`` label),
  ``repro_pool_degraded``
* ``repro_publisher_epoch``, ``repro_publisher_publishes_total``,
  ``repro_publisher_ops_applied_total``

:class:`JsonlExporter` flushes ``registry.snapshot()`` to a JSONL file
on a daemon-thread interval for offline analysis (one timestamped JSON
object per line; the timestamp is wall-clock, metrics are cumulative).
"""

from __future__ import annotations

import json
import threading
import time
from typing import List, Optional

from .metrics import MetricFamily, MetricsRegistry

__all__ = [
    "bind_cache",
    "bind_pool",
    "bind_publisher",
    "bind_backend",
    "JsonlExporter",
]

_CACHE_COUNTERS = (
    ("hits", "Cache lookups answered locally"),
    ("misses", "Cache lookups forwarded to the engine"),
    ("evictions", "Entries dropped by LRU pressure"),
    ("invalidations", "Republish invalidation passes"),
    ("invalidated_entries", "Entries dropped by invalidation or flush"),
    ("flushes", "Whole-cache flushes"),
)

_CACHE_GAUGES = (
    ("entries", "Entries currently cached"),
    ("capacity", "Total entry capacity"),
    ("generation", "Cache generation token"),
    ("suspended", "1 while the cache is suspended (all lookups miss)"),
)


def bind_cache(registry: MetricsRegistry, cache) -> None:
    """Expose an :class:`~repro.serve.cache.AnswerCache`'s counters."""

    def collect() -> List[MetricFamily]:
        snap = cache.snapshot()
        families = []
        for name, help_ in _CACHE_COUNTERS:
            family = MetricFamily(f"repro_cache_{name}_total", "counter", help_)
            family.add_sample("", {}, int(snap[name]))
            families.append(family)
        for name, help_ in _CACHE_GAUGES:
            family = MetricFamily(f"repro_cache_{name}", "gauge", help_)
            family.add_sample("", {}, int(snap[name]))
            families.append(family)
        return families

    registry.register_collector(collect)


def bind_pool(registry: MetricsRegistry, server) -> None:
    """Expose a :class:`~repro.serve.server.QueryServer`'s worker table,
    its chunk-size histogram and (when supervised) its supervisor's
    restart counters."""

    def collect() -> List[MetricFamily]:
        families = [server.chunk_sizes.collect()]
        workers = MetricFamily(
            "repro_pool_workers", "gauge", "Pool worker counts", []
        )
        states = server.worker_states()
        workers.add_sample("", {"state": "total"}, len(states))
        workers.add_sample(
            "", {"state": "alive"}, sum(1 for s in states if s["alive"])
        )
        families.append(workers)
        supervisor = server.supervisor
        if supervisor is not None:
            restarts = MetricFamily(
                "repro_pool_restarts_total",
                "counter",
                "Supervisor worker respawns",
            )
            for slot, count in enumerate(supervisor.restart_counts):
                restarts.add_sample("", {"slot": slot}, count)
            families.append(restarts)
            degraded = MetricFamily(
                "repro_pool_degraded",
                "gauge",
                "1 once the supervisor circuit breaker opened",
            )
            degraded.add_sample("", {}, 1 if supervisor.degraded else 0)
            families.append(degraded)
        return families

    registry.register_collector(collect)


def bind_publisher(registry: MetricsRegistry, publisher) -> None:
    """Expose a :class:`~repro.live.publisher.LivePublisher`'s epoch and
    publish counters."""

    def collect() -> List[MetricFamily]:
        epoch = MetricFamily(
            "repro_publisher_epoch", "gauge", "Currently published epoch"
        )
        epoch.add_sample("", {}, publisher.epoch)
        publishes = MetricFamily(
            "repro_publisher_publishes_total",
            "counter",
            "Republish operations committed",
        )
        publishes.add_sample("", {}, publisher.publishes)
        ops = MetricFamily(
            "repro_publisher_ops_applied_total",
            "counter",
            "Journal operations applied across republishes",
        )
        ops.add_sample("", {}, publisher.ops_applied)
        return [epoch, publishes, ops]

    registry.register_collector(collect)


def bind_backend(registry: MetricsRegistry, backend) -> None:
    """Walk a client stack and install every bridge that applies.

    Recognizes ``CachingClient`` (``cache`` + ``inner``), ``PoolClient``
    (``server``), and a bare ``QueryServer`` — whatever subset the
    front door was built from gets covered.
    """
    seen = set()
    node = backend
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        cache = getattr(node, "cache", None)
        if cache is not None and hasattr(cache, "snapshot"):
            bind_cache(registry, cache)
        server = getattr(node, "server", None)
        if server is not None and hasattr(server, "worker_states"):
            bind_pool(registry, server)
        if hasattr(node, "worker_states"):  # a bare QueryServer
            bind_pool(registry, node)
        node = getattr(node, "inner", None)


class JsonlExporter:
    """Flush ``registry.snapshot()`` to a JSONL file periodically.

    Each line is ``{"ts": <unix seconds>, "metrics": {...}}``.  The
    writer thread is a daemon; :meth:`stop` flushes one final snapshot
    so short runs still leave a record.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str,
        interval_s: float = 10.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self._registry = registry
        self._path = path
        self._interval = interval_s
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _write_once(self) -> None:
        record = {"ts": time.time(), "metrics": self._registry.snapshot()}
        with open(self._path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def _run(self) -> None:
        while not self._stop_event.wait(self._interval):
            try:
                self._write_once()
            except OSError:
                continue  # a full disk must not kill the exporter

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-metrics-jsonl"
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop_event.set()
        thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        try:
            self._write_once()
        except OSError:
            pass
