"""The asyncio TCP front door: micro-batching + admission control.

:class:`NetServer` listens on a TCP socket, speaks the length-prefixed
binary protocol of :mod:`repro.serve.protocol`, and answers every
``QUERY`` frame from one backend — any
:class:`~repro.serve.client.QueryClient` (an in-process engine, or the
shared-memory :class:`~repro.serve.server.QueryServer` pool behind a
:class:`~repro.serve.client.PoolClient`).  Three mechanisms make it a
*front door* rather than a socket wrapper:

**Micro-batching.**  Concurrent requests — across connections — are
coalesced into one ``distance_many`` call: the batcher takes the first
pending request, then keeps absorbing arrivals until the batch reaches
``max_batch`` queries or the oldest has waited ``max_wait_us``
microseconds, whichever first — unless every open connection already
has a request in the batch.  Then nobody else can join it, so the
batcher takes only what is already queued (pipelined frames included)
and flushes at once: a lone client, or closed-loop clients that have
all sent, never sit out the window (which the event loop's selector
would round up to a whole millisecond).  The per-query cost of frame
handling, executor hand-off and kernel entry is amortized over the
whole batch — the serving shape the paper's batch kernels are built
for.  ``max_batch=1`` degenerates to per-request dispatch (the load
generator's baseline).

**Admission control.**  At most ``max_inflight`` queries may be
admitted-but-unanswered at once.  A ``QUERY`` that would exceed the
budget is *shed immediately* with a typed ``ERROR`` frame
(``overloaded``, surfacing as
:class:`~repro.serve.errors.ServerOverloadedError` in the client)
instead of queueing unboundedly — under offered load beyond capacity
the queue depth, the memory footprint, and the p99 of *admitted*
queries stay bounded, and every frame still gets an ``ANSWER`` or an
``ERROR`` (zero silent drops; shutdown flushes the residue with typed
``shutting-down`` errors).

**Observability.**  A :class:`~repro.serve.stats.ServerStats` keeps
admission counters, queue depth, the coalesced batch-size histogram and
the request-latency histogram as metrics of the server's one
:class:`~repro.obs.metrics.MetricsRegistry`.  Its snapshot — p50/p95/p99
estimated from the latency buckets since start, each with its bucket's
bounds — is a view of that registry.  :meth:`NetServer.health_report`
serves it (plus the backend pool's own health and the flat metrics
snapshot) over the ``HEALTH`` frame and the CLI ``serve --listen``
status output, and the ``STATS`` frame serves either the JSON stats
report (:meth:`NetServer.stats_report` — the same view, recent traces,
the slow-query log) or the Prometheus text exposition
(:meth:`NetServer.prometheus_text`).

**Per-query tracing.**  Each server owns a
:class:`~repro.obs.telemetry.Telemetry` bundle.  Sampled requests
(every Nth admitted, or any carrying the QUERY frame's
``FLAG_SAMPLE``) produce a span tree — ``queue-wait``,
``batch-coalesce``, ``kernel`` (with backend sub-spans like
``cache-lookup`` and ``pool-dispatch`` when the backend implements
``distance_many_traced``), ``serialize`` — pushed to a bounded ring the
``STATS`` frame serves.  Every request, sampled or not, is offered to
the slow-query log.  ``Telemetry.off()`` disables all of it (the
overhead bench's untraced baseline).

A frame whose header carries a version other than
:data:`~repro.serve.protocol.PROTOCOL_VERSION` is answered with a typed
``ERR_VERSION`` error and the connection is closed.

A failing coalesced batch is re-executed per request, so one malformed
query poisons only its own request — its sender gets the engine's exact
error message (bit-identity preserved), everyone else gets answers.

:class:`NetServerThread` hosts the server on a private event loop in a
daemon thread — the bridge synchronous callers (CLI, benches, tests)
use.
"""

from __future__ import annotations

import asyncio
import struct
import threading
from typing import List, Optional, Sequence, Tuple

from ..obs.export import bind_backend
from ..obs.telemetry import Telemetry
from . import protocol
from .stats import ServerStats

__all__ = ["NetServer", "NetServerThread"]

#: Defaults of the micro-batching window.
DEFAULT_MAX_BATCH = 128
DEFAULT_MAX_WAIT_US = 500.0

#: Default admission budget (queries admitted but not yet answered).
DEFAULT_MAX_INFLIGHT = 8192

_STOP = object()


class _Request:
    """One admitted QUERY frame: who to answer, what to compute.

    ``trace`` is the sampled request's :class:`~repro.obs.trace.Trace`
    (``None`` for the unsampled majority); ``picked_at`` is stamped when
    the batcher pops the request and ``prelude_done`` guards the
    queue-wait/batch-coalesce spans against the per-request re-run the
    failure-isolation path performs.
    """

    __slots__ = (
        "connection",
        "request_id",
        "queries",
        "admitted_at",
        "trace",
        "picked_at",
        "prelude_done",
    )

    def __init__(self, connection, request_id, queries, admitted_at, trace=None):
        self.connection = connection
        self.request_id = request_id
        self.queries = queries
        self.admitted_at = admitted_at
        self.trace = trace
        self.picked_at = admitted_at
        self.prelude_done = False


class _Connection:
    """Server side of one client connection: frame loop + ordered writes."""

    def __init__(self, server: "NetServer", reader, writer) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        #: Serializes writes: the batcher finishes requests of this
        #: connection concurrently with the reader answering HEALTH.
        self.write_lock = asyncio.Lock()
        self.alive = True

    async def send(self, data: bytes) -> None:
        """Write one encoded frame; a peer that vanished is not an error
        (its pending answers are simply undeliverable)."""
        if not self.alive:
            return
        async with self.write_lock:
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.alive = False

    async def run(self) -> None:
        decoder = protocol.FrameDecoder()
        try:
            while True:
                data = await self.reader.read(65536)
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except protocol.VersionMismatchError as exc:
                    await self._refuse(protocol.ERR_VERSION, str(exc))
                    return
                except protocol.FrameTooLargeError as exc:
                    await self._refuse(protocol.ERR_TOO_LARGE, str(exc))
                    return
                except protocol.ProtocolError as exc:
                    await self._refuse(protocol.ERR_MALFORMED, str(exc))
                    return
                for frame in frames:
                    await self._handle(frame)
        finally:
            self.alive = False
            try:
                self.writer.close()
            except OSError:
                pass

    async def _refuse(self, code: int, message: str) -> None:
        """Connection-scoped typed error; the stream has lost framing
        (or spoke a foreign version), so the connection ends after it."""
        await self.send(protocol.encode_error(protocol.CONNECTION_SCOPE, code, message))

    async def _handle(self, frame: protocol.Frame) -> None:
        if frame.msg_type == protocol.MSG_HELLO:
            await self.send(protocol.encode_hello(self.server.hello_info()))
        elif frame.msg_type == protocol.MSG_HEALTH:
            await self.send(protocol.encode_health_report(self.server.health_report()))
        elif frame.msg_type == protocol.MSG_STATS:
            await self._handle_stats(frame)
        elif frame.msg_type == protocol.MSG_QUERY:
            await self._handle_query(frame.payload)
        else:
            # ANSWER/ERROR are server-to-client only.
            await self._refuse(
                protocol.ERR_MALFORMED,
                f"clients may not send "
                f"{protocol.MSG_NAMES[frame.msg_type]} frames",
            )

    async def _handle_stats(self, frame: protocol.Frame) -> None:
        try:
            fmt = protocol.decode_stats_request(frame.payload)
        except protocol.ProtocolError as exc:
            await self.send(
                protocol.encode_error(
                    protocol.CONNECTION_SCOPE, protocol.ERR_MALFORMED, str(exc)
                )
            )
            return
        if fmt == protocol.STATS_PROMETHEUS:
            body = self.server.prometheus_text()
        else:
            body = self.server.stats_report()
        await self.send(protocol.encode_stats(fmt, body))

    async def _handle_query(self, payload: bytes) -> None:
        try:
            request_id, queries, trace = protocol.decode_query(payload)
        except protocol.ProtocolError as exc:
            # The frame itself was well-formed (framing holds), so the
            # connection survives; the request id is recovered when the
            # prefix made it, CONNECTION_SCOPE otherwise.
            request_id = protocol.CONNECTION_SCOPE
            if len(payload) >= 4:
                (request_id,) = struct.unpack_from("!I", payload)
            code = (
                protocol.ERR_TOO_LARGE
                if isinstance(exc, protocol.FrameTooLargeError)
                else protocol.ERR_MALFORMED
            )
            await self.send(protocol.encode_error(request_id, code, str(exc)))
            return
        await self.server.submit(self, request_id, queries, trace)


class NetServer:
    """The asyncio TCP front door over one backend client.

    ``backend`` is any :class:`~repro.serve.client.QueryClient` (or any
    object with ``distance_many``); its calls run on the event loop's
    default executor, so the loop keeps accepting, admitting and
    shedding while a batch computes.  See the module docstring for the
    micro-batching and admission semantics.  All coroutines must run on
    one event loop; synchronous callers use :class:`NetServerThread`.
    """

    def __init__(
        self,
        backend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_us: float = DEFAULT_MAX_WAIT_US,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {max_wait_us}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self._backend = backend
        self._host = host
        self._port = port
        self._max_batch = max_batch
        self._max_wait = max_wait_us / 1e6
        self._max_inflight = max_inflight
        # One registry carries everything: the telemetry counters, the
        # admission stats, and the bridge collectors over the backend
        # stack (cache shards, pool workers, supervisor restarts).
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.stats = ServerStats(registry=self.telemetry.registry)
        bind_backend(self.telemetry.registry, backend)
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher: Optional[asyncio.Task] = None
        #: Open connections, each with the task serving it.
        self._connections: dict = {}
        self._running = False
        self._address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves at start)."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    async def start(self) -> Tuple[str, int]:
        """Bind, start serving connections and the batcher; returns the
        bound address."""
        if self._running:
            raise RuntimeError("server is already started")
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._running = True
        self._batcher = asyncio.ensure_future(self._batch_loop())
        return self._address

    async def stop(self) -> None:
        """Stop accepting, flush the batcher, fail residual requests
        with typed ``shutting-down`` errors (idempotent)."""
        if not self._running:
            return
        self._running = False
        self._server.close()
        await self._server.wait_closed()
        await self._queue.put(_STOP)
        await self._batcher
        # Residue admitted after the sentinel (or left by a mid-coalesce
        # stop): every admitted request still gets a typed answer.
        while not self._queue.empty():
            request = self._queue.get_nowait()
            if request is _STOP:
                continue
            await self._fail_request(
                request, protocol.ERR_SHUTDOWN, "server is shutting down"
            )
        # Open connections would otherwise outlive the loop as orphaned
        # tasks; every pending request already got its typed error.
        tasks = list(self._connections.values())
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def submit(
        self,
        connection: _Connection,
        request_id: int,
        queries: Sequence[Tuple[int, int, float]],
        trace: Tuple[int, int],
    ) -> None:
        """Admit or shed one decoded QUERY (called by connections).

        ``trace`` is the frame's ``(trace_id, flags)`` header (a zero
        ``trace_id`` lets the server mint one if sampling picks the
        request).
        """
        count = len(queries)
        trace_id, flags = trace
        if not self._running:
            await connection.send(
                protocol.encode_error(
                    request_id, protocol.ERR_SHUTDOWN, "server is shutting down"
                )
            )
            return
        loop = asyncio.get_running_loop()
        # Answer-before-dispatch: a batch served entirely from the
        # backend's answer cache never waits for the batching window,
        # never costs admission budget, and never touches the pool.
        cached = getattr(self._backend, "cached_answers", None)
        if cached is not None:
            sampled = self.telemetry.should_sample(flags)
            started = loop.time() if sampled else 0.0
            answers = cached(queries)
            if answers is not None:
                self.stats.admit(count)
                self.stats.answer(count, 0.0)
                if sampled:
                    record = self.telemetry.begin_trace(
                        trace_id, request_id, count, started
                    )
                    record.meta["cache_hit"] = True
                    looked_up = loop.time()
                    record.add_span("cache-lookup", started, looked_up)
                    await connection.send(protocol.encode_answer(request_id, answers))
                    sent = loop.time()
                    record.add_span("serialize", looked_up, sent)
                    self.telemetry.finish_trace(record, sent)
                else:
                    await connection.send(protocol.encode_answer(request_id, answers))
                return
        else:
            sampled = self.telemetry.should_sample(flags)
        if self.stats.in_flight + count > self._max_inflight:
            self.stats.shed(count)
            await connection.send(
                protocol.encode_error(
                    request_id,
                    protocol.ERR_OVERLOADED,
                    f"admission budget full: {self.stats.in_flight} queries "
                    f"in flight, {count} more would exceed the "
                    f"{self._max_inflight}-query limit; back off and retry",
                )
            )
            return
        self.stats.admit(count)
        admitted_at = loop.time()
        record = None
        if sampled:
            record = self.telemetry.begin_trace(
                trace_id, request_id, count, admitted_at
            )
            record.meta["cache_hit"] = False
        await self._queue.put(
            _Request(connection, request_id, list(queries), admitted_at, record)
        )

    # ------------------------------------------------------------------
    # The micro-batcher
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            request = await self._queue.get()
            if request is _STOP:
                return
            request.picked_at = loop.time()
            batch = [request]
            total = len(request.queries)
            stop_after = False
            if self._max_batch > 1:
                deadline = request.picked_at + self._max_wait
                members = {request.connection}
                while total < self._max_batch:
                    # Once every open connection has a request in the
                    # batch, no new one can join it: take only what is
                    # already queued, then flush.
                    if self._connections.keys() <= members:
                        remaining = 0.0
                    else:
                        remaining = deadline - loop.time()
                    try:
                        if remaining <= 0:
                            nxt = self._queue.get_nowait()
                        else:
                            nxt = await asyncio.wait_for(
                                self._queue.get(), remaining
                            )
                    except (asyncio.QueueEmpty, asyncio.TimeoutError):
                        break
                    if nxt is _STOP:
                        stop_after = True
                        break
                    nxt.picked_at = loop.time()
                    batch.append(nxt)
                    members.add(nxt.connection)
                    total += len(nxt.queries)
            try:
                await self._execute(loop, batch)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # A bug past the backend call (encode, bookkeeping) must
                # not kill the batcher: answer the batch with typed
                # errors and keep serving.
                for request in batch:
                    await self._fail_request(
                        request,
                        protocol.ERR_QUERY,
                        f"{type(exc).__name__}: {exc}",
                    )
            if stop_after:
                return

    async def _execute(self, loop, batch: List[_Request]) -> None:
        merged = [
            query for request in batch for query in request.queries
        ]
        if merged:
            self.stats.batch_sizes.observe(len(merged))
        kernel_start = loop.time()
        traced = [r for r in batch if r.trace is not None]
        for request in traced:
            if not request.prelude_done:
                request.prelude_done = True
                request.trace.add_span(
                    "queue-wait", request.admitted_at, request.picked_at
                )
                request.trace.add_span(
                    "batch-coalesce", request.picked_at, kernel_start
                )
        # Backend sub-spans (cache-lookup, pool-dispatch) ride an
        # optional traced entry point; the sink collects them once per
        # coalesced call and replays them into every sampled trace of
        # the batch, nested under its kernel span.
        sub_spans: List[Tuple[str, float, float, dict]] = []
        backend_call = self._backend.distance_many
        if traced:
            traced_many = getattr(self._backend, "distance_many_traced", None)
            if traced_many is not None:

                def sink(name, start, end, **meta):
                    sub_spans.append((name, start, end, meta))

                def backend_call(queries):  # noqa: F811 — traced variant
                    return traced_many(queries, sink)

        try:
            answers = await loop.run_in_executor(None, backend_call, merged)
        except Exception as exc:
            if len(batch) == 1:
                await self._fail_request(
                    batch[0],
                    protocol.ERR_QUERY,
                    f"{type(exc).__name__}: {exc}",
                )
                return
            # Isolate the failure: re-run per request, so one malformed
            # query errors only its own sender — with the engine's exact
            # message — and every other coalesced request still answers.
            for request in batch:
                await self._execute(loop, [request])
            return
        at = 0
        now = loop.time()
        for request in traced:
            request.trace.add_span(
                "kernel", kernel_start, now, batch_queries=len(merged)
            )
            for name, start, end, meta in sub_spans:
                request.trace.add_span(
                    name, start, end, parent="kernel", **meta
                )
        for request in batch:
            count = len(request.queries)
            # Count before sending: a client that has its answer in hand
            # must never observe a health report that hasn't.
            self.stats.answer(count, now - request.admitted_at)
            send_start = loop.time()
            await request.connection.send(
                protocol.encode_answer(request.request_id, answers[at:at + count])
            )
            at += count
            if request.trace is not None:
                sent = loop.time()
                request.trace.add_span("serialize", send_start, sent)
                self.telemetry.finish_trace(request.trace, sent)
            else:
                self.telemetry.observe_unsampled(
                    request.request_id,
                    count,
                    now - request.admitted_at,
                    queue_wait_s=request.picked_at - request.admitted_at,
                )

    async def _fail_request(
        self, request: _Request, code: int, message: str
    ) -> None:
        await request.connection.send(
            protocol.encode_error(request.request_id, code, message)
        )
        self.stats.fail(len(request.queries))

    # ------------------------------------------------------------------
    # Connections / introspection
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        connection = _Connection(self, reader, writer)
        self._connections[connection] = asyncio.current_task()
        self.stats.connection_opened()
        try:
            await connection.run()
        except asyncio.CancelledError:
            pass  # server shutdown closes the connection
        finally:
            del self._connections[connection]
            self.stats.connection_closed()

    def hello_info(self) -> dict:
        return {
            "server": "repro-netserver",
            "protocol": protocol.PROTOCOL_VERSION,
            "max_batch": self._max_batch,
            "max_queries_per_frame": protocol.MAX_QUERIES_PER_FRAME,
        }

    def _shared_report(self) -> dict:
        """What ``HEALTH`` and ``STATS`` both carry: server identity, the
        admission stats view, the flat metrics snapshot and the
        telemetry summary — all read from the one registry."""
        return {
            "server": {
                "state": "ok" if self._running else "closed",
                "address": list(self._address) if self._address else None,
                "protocol_version": protocol.PROTOCOL_VERSION,
            },
            "stats": self.stats.snapshot(),
            "metrics": self.telemetry.registry.snapshot(),
            "telemetry": self.telemetry.summary(),
        }

    def health_report(self) -> dict:
        """The front door's structured health snapshot, flat: serving
        state and identity, knobs, the stats view (latency percentiles,
        queue depth, batch sizes, shed counts) at top level, the flat
        metrics snapshot, the telemetry summary and the backend's own
        health report."""
        report = self._shared_report()
        report.update(report.pop("server"))
        report.update(report.pop("stats"))
        report["transport"] = "net"
        report["max_batch"] = self._max_batch
        report["max_wait_us"] = self._max_wait * 1e6
        report["max_inflight"] = self._max_inflight
        backend_health = getattr(self._backend, "health", None)
        if callable(backend_health):
            report["backend"] = backend_health()
        return report

    def stats_report(self) -> dict:
        """The JSON ``STATS`` body: the shared report (identity under
        ``"server"``, the stats view under ``"stats"``, metrics and
        telemetry) plus the most recent sampled traces and the
        slow-query log tail."""
        report = self._shared_report()
        report["recent_traces"] = [
            trace.to_dict() for trace in self.telemetry.traces.recent(8)
        ]
        report["slow_queries"] = (
            self.telemetry.slow_log.recent(8)
            if self.telemetry.slow_log is not None
            else []
        )
        return report

    def prometheus_text(self) -> str:
        """The Prometheus text exposition of the unified registry."""
        return self.telemetry.registry.render_prometheus()


class NetServerThread:
    """A :class:`NetServer` on a private event loop in a daemon thread.

    The bridge between the asyncio front door and the synchronous rest
    of the stack (CLI, benches, tests, the load generator)::

        with NetServerThread(InProcessClient(engine)) as front:
            client = NetClient(*front.address)

    ``start()`` returns once the socket is bound (construction errors
    re-raise in the caller); ``stop()`` shuts the server down on its
    loop and joins the thread.  ``health_report()`` snapshots the live
    server from any thread (the stats objects are lock-guarded).
    """

    def __init__(self, backend, **server_options) -> None:
        self._backend = backend
        self._options = server_options
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[NetServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._finished = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._address: Optional[Tuple[str, int]] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server thread is not started")
        return self._address

    @property
    def server(self) -> NetServer:
        if self._server is None:
            raise RuntimeError("server thread is not started")
        return self._server

    def health_report(self) -> dict:
        return self.server.health_report()

    def start(self, *, timeout: float = 30.0) -> Tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="wcindex-netserver"
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("network server failed to start in time")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise self._startup_error
        return self._address

    def stop(self, *, timeout: float = 30.0) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError("network server failed to stop in time")

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
            self._finished.set()
            # Late start() callers must not hang on a dead thread.
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = NetServer(self._backend, **self._options)
        try:
            self._address = await server.start()
        except BaseException as exc:  # surface bind errors in start()
            self._startup_error = exc
            self._started.set()
            return
        self._server = server
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            await server.stop()

    def __enter__(self) -> "NetServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
