"""Load generation against any :class:`~repro.serve.client.QueryClient`.

Two classic traffic shapes drive the serving stack:

* :func:`closed_loop` — N clients, each with its own connection,
  issuing the next request the moment the previous answer lands.
  Throughput is limited by service latency; this is the shape the
  ``family: net`` coalescing gate uses (32 concurrent clients).
* :func:`open_loop` — Poisson arrivals at a fixed offered rate,
  independent of completions.  This is the honest overload probe: when
  the server saturates, arrivals keep coming and the admission
  controller must shed with typed errors instead of queueing without
  bound.  Outstanding requests are capped client-side
  (``max_outstanding``) so the generator itself cannot balloon.

Both return a :class:`LoadReport` with throughput and exact
nearest-rank latency percentiles (:func:`repro.serve.stats.percentile`;
the server's own HEALTH percentiles are bucket estimates, reported
with the bucket bounds that contain the exact value),
and an exact disposition count: every request sent is ``ok``,
``overloaded`` (shed by admission control), or ``failed`` — plus
``dropped`` for arrivals the open-loop generator never sent because
its outstanding cap was full.  ``python -m repro loadgen`` is the CLI
front end.

``server_snapshot`` (a callable returning the server's ``STATS``
report, e.g. ``NetClient.stats``) is invoked right after the run and
stored on the report, putting the client-observed and server-observed
latency percentiles side by side: the gap between them is what the
network, the client stack and the socket queues cost.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..serve.client import QueryClient
from ..serve.errors import ServeError, ServerOverloadedError
from ..serve.stats import percentile

__all__ = ["LoadReport", "closed_loop", "open_loop"]

Query = Tuple[int, int, float]
ClientFactory = Callable[[], QueryClient]


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    mode: str
    clients: int
    duration_s: float
    offered_qps: Optional[float]
    sent: int
    ok: int
    overloaded: int
    failed: int
    dropped: int
    latencies_ms: List[float] = field(repr=False, default_factory=list)
    #: The server's STATS report scraped right after the run (None when
    #: no ``server_snapshot`` callable was given).
    server_metrics: Optional[dict] = field(repr=False, default=None)

    @property
    def throughput_qps(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def _percentile(self, p: float) -> float:
        return percentile(sorted(self.latencies_ms), p)

    @property
    def p50_ms(self) -> float:
        return self._percentile(50.0)

    @property
    def p95_ms(self) -> float:
        return self._percentile(95.0)

    @property
    def p99_ms(self) -> float:
        return self._percentile(99.0)

    def server_latency(self) -> dict:
        """The server-observed latency window of the scraped snapshot
        (empty dict when no snapshot was taken)."""
        if not self.server_metrics:
            return {}
        return self.server_metrics.get("stats", {}).get("latency", {})

    def format(self) -> str:
        offered = (
            f"{self.offered_qps:.0f} q/s offered"
            if self.offered_qps is not None
            else "closed loop"
        )
        lines = [
            f"loadgen: mode={self.mode} clients={self.clients} "
            f"duration={self.duration_s:.2f}s ({offered})",
            f"  sent={self.sent} ok={self.ok} "
            f"overloaded={self.overloaded} failed={self.failed} "
            f"dropped={self.dropped}",
            f"  throughput={self.throughput_qps:.1f} q/s",
            f"  latency p50={self.p50_ms:.3f}ms p95={self.p95_ms:.3f}ms "
            f"p99={self.p99_ms:.3f}ms",
        ]
        server = self.server_latency()
        if server:
            stats = self.server_metrics.get("stats", {})
            queries = stats.get("queries", {})
            lines.append(
                "  server  p50={p50:.3f}ms p95={p95:.3f}ms p99={p99:.3f}ms "
                "(answered={answered} shed={shed})".format(
                    p50=server.get("p50_ms", float("nan")),
                    p95=server.get("p95_ms", float("nan")),
                    p99=server.get("p99_ms", float("nan")),
                    answered=queries.get("answered", 0),
                    shed=queries.get("shed", 0),
                )
            )
        return "\n".join(lines)


class _Tally:
    """Thread-safe disposition counts + latency samples."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.sent = 0
        self.ok = 0
        self.overloaded = 0
        self.failed = 0
        self.dropped = 0
        self.latencies_ms: List[float] = []

    def record(self, outcome: str, queries: int, elapsed_s: float) -> None:
        with self._lock:
            self.sent += queries
            if outcome == "ok":
                self.ok += queries
                self.latencies_ms.append(elapsed_s * 1000.0)
            elif outcome == "overloaded":
                self.overloaded += queries
            else:
                self.failed += queries

    def drop(self, queries: int) -> None:
        with self._lock:
            self.dropped += queries


def _issue(client: QueryClient, batch: Sequence[Query], tally: _Tally) -> None:
    start = time.perf_counter()
    try:
        client.distance_many(batch)
    except ServerOverloadedError:
        tally.record("overloaded", len(batch), 0.0)
        return
    except (ServeError, ValueError, OSError):
        tally.record("failed", len(batch), 0.0)
        return
    tally.record("ok", len(batch), time.perf_counter() - start)


def _scrape(server_snapshot) -> Optional[dict]:
    """Best-effort STATS scrape: a server torn down right after the run
    loses the comparison row, not the whole report."""
    if server_snapshot is None:
        return None
    try:
        return server_snapshot()
    except Exception:
        return None


def closed_loop(
    client_factory: ClientFactory,
    queries: Sequence[Query],
    *,
    clients: int = 8,
    duration_s: float = 5.0,
    batch: int = 1,
    server_snapshot: Optional[Callable[[], dict]] = None,
) -> LoadReport:
    """Drive ``clients`` synchronous clients back-to-back for
    ``duration_s`` seconds; each request carries ``batch`` queries."""
    if not queries:
        raise ValueError("closed_loop needs at least one query")
    if clients < 1:
        raise ValueError("clients must be >= 1")
    tally = _Tally()
    stop = time.perf_counter() + duration_s

    def worker(offset: int) -> None:
        client = client_factory()
        cursor = offset * batch
        try:
            while time.perf_counter() < stop:
                chunk = [
                    queries[(cursor + j) % len(queries)] for j in range(batch)
                ]
                cursor += batch
                _issue(client, chunk, tally)
        finally:
            client.close()

    threads = [
        threading.Thread(
            target=worker, args=(i,), name=f"loadgen-closed-{i}", daemon=True
        )
        for i in range(clients)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    return LoadReport(
        mode="closed",
        clients=clients,
        duration_s=elapsed,
        offered_qps=None,
        sent=tally.sent,
        ok=tally.ok,
        overloaded=tally.overloaded,
        failed=tally.failed,
        dropped=tally.dropped,
        latencies_ms=tally.latencies_ms,
        server_metrics=_scrape(server_snapshot),
    )


def open_loop(
    client_factory: ClientFactory,
    queries: Sequence[Query],
    *,
    rate_qps: float,
    duration_s: float = 5.0,
    clients: int = 8,
    max_outstanding: int = 256,
    seed: int = 0,
    server_snapshot: Optional[Callable[[], dict]] = None,
) -> LoadReport:
    """Offer Poisson traffic at ``rate_qps`` regardless of completions.

    A scheduler thread draws exponential inter-arrival gaps and hands
    single-query work items to ``clients`` sender threads through a
    bounded queue of ``max_outstanding`` slots; arrivals that find the
    queue full are counted as ``dropped`` (the generator sheds, so a
    saturated server is probed, not the generator's own memory).
    """
    if not queries:
        raise ValueError("open_loop needs at least one query")
    if rate_qps <= 0:
        raise ValueError("rate_qps must be > 0")
    tally = _Tally()
    work: "queue.Queue" = queue.Queue(maxsize=max_outstanding)
    rng = random.Random(seed)

    def sender() -> None:
        client = client_factory()
        try:
            while True:
                item = work.get()
                if item is None:
                    return
                _issue(client, [item], tally)
        finally:
            client.close()

    threads = [
        threading.Thread(target=sender, name=f"loadgen-open-{i}", daemon=True)
        for i in range(clients)
    ]
    for t in threads:
        t.start()

    started = time.perf_counter()
    deadline = started + duration_s
    next_arrival = started
    cursor = 0
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        if now < next_arrival:
            time.sleep(min(next_arrival - now, deadline - now))
            continue
        next_arrival += rng.expovariate(rate_qps)
        item = queries[cursor % len(queries)]
        cursor += 1
        try:
            work.put_nowait(item)
        except queue.Full:
            tally.drop(1)
    for _ in threads:
        work.put(None)
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    return LoadReport(
        mode="open",
        clients=clients,
        duration_s=elapsed,
        offered_qps=rate_qps,
        sent=tally.sent,
        ok=tally.ok,
        overloaded=tally.overloaded,
        failed=tally.failed,
        dropped=tally.dropped,
        latencies_ms=tally.latencies_ms,
        server_metrics=_scrape(server_snapshot),
    )
