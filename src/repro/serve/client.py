"""One client interface over every serving tier.

:class:`QueryClient` is the API surface callers program against —
``distance`` / ``distance_many`` / ``health`` / ``close`` — with three
transports behind it:

* :class:`InProcessClient` — wraps any engine (list, frozen, mmap- or
  shm-attached, any family): zero overhead, the baseline every other
  transport must answer bit-identically to.
* :class:`PoolClient` — wraps a
  :class:`~repro.serve.server.QueryServer`: the shared-memory
  multi-process pool, same answers, worker-process isolation.
* :class:`NetClient` — speaks the length-prefixed binary protocol
  (:mod:`repro.serve.protocol`) to a
  :class:`~repro.serve.net.NetServer` over TCP: same answers again,
  now from another process or another machine.

Tests, the benchmark and the load generator drive every tier through
this one interface, so "swap the transport" is a constructor change,
not a rewrite.  Every transport's ``distance_many`` preserves query
order and raises the engine's own ``ValueError`` for malformed queries
— over the wire included, message bytes identical.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.trace import new_trace_id
from . import protocol
from .errors import (
    QueryTimeoutError,
    RemoteQueryError,
    ServeError,
    ServerOverloadedError,
)
from .protocol import (
    CONNECTION_SCOPE,
    ERROR_NAMES,
    FrameDecoder,
    FrameTooLargeError,
    ProtocolError,
)

__all__ = [
    "QueryClient",
    "InProcessClient",
    "PoolClient",
    "NetClient",
]

Query = Tuple[int, int, float]


class QueryClient:
    """The unified serving interface (abstract base).

    Subclasses implement :meth:`distance_many`, :meth:`health` and
    :meth:`close`; ``distance`` and the context-manager protocol are
    shared.  Clients are not thread-safe — give each thread its own
    (the load generator does exactly that).
    """

    def distance(self, s: int, t: int, w: float) -> float:
        """Answer one ``(s, t, w)`` constrained-distance query."""
        return self.distance_many([(s, t, w)])[0]

    def distance_many(self, queries: Sequence[Query]) -> List[float]:
        raise NotImplementedError

    def health(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InProcessClient(QueryClient):
    """The in-process transport: calls the engine directly.

    ``engine`` is anything with ``distance_many`` — every frozen/list
    engine of all three families qualifies.  ``owns_engine=True`` makes
    :meth:`close` release the engine (mmap/shm attaches want that);
    by default the caller keeps ownership.
    """

    def __init__(self, engine, *, owns_engine: bool = False) -> None:
        self._engine = engine
        self._owns = owns_engine
        self._closed = False

    @property
    def engine(self):
        return self._engine

    def distance_many(self, queries: Sequence[Query]) -> List[float]:
        if self._closed:
            raise RuntimeError("client is closed")
        return self._engine.distance_many(list(queries))

    def health(self) -> dict:
        return {
            "state": "closed" if self._closed else "ok",
            "transport": "in-process",
            "engine": type(self._engine).__name__,
            "kernel": getattr(self._engine, "kernel_backend", None),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns:
            release = getattr(self._engine, "release", None)
            if release is not None:
                release()


class PoolClient(QueryClient):
    """The shared-memory transport: batches through a
    :class:`~repro.serve.server.QueryServer`.

    ``timeout`` / ``retries`` become the defaults of every
    ``query_batch`` this client issues.  ``owns_server=True`` makes
    :meth:`close` shut the pool down (and unlink its segment); by
    default the pool outlives the client.
    """

    def __init__(
        self,
        server,
        *,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        owns_server: bool = False,
    ) -> None:
        self._server = server
        self._timeout = timeout
        self._retries = retries
        self._owns = owns_server
        self._closed = False

    @property
    def server(self):
        return self._server

    def distance_many(self, queries: Sequence[Query]) -> List[float]:
        return self._query(list(queries), None)

    def distance_many_traced(self, queries: Sequence[Query], sink) -> List[float]:
        """Traced variant: forwards ``sink`` into the pool's
        ``query_batch`` so the fan-out reports a ``pool-dispatch`` span
        (chunk count and worker meta included)."""
        return self._query(list(queries), sink)

    def _query(self, queries: List[Query], trace_sink) -> List[float]:
        if self._closed:
            raise RuntimeError("client is closed")
        try:
            return self._server.query_batch(
                queries,
                timeout=self._timeout,
                retries=self._retries,
                trace_sink=trace_sink,
            )
        except RuntimeError as exc:
            # Workers report engine failures as "query worker failed:
            # TypeName: text"; re-raise an engine ValueError with its
            # exact message so every transport fails identically.
            prefix = "query worker failed: ValueError: "
            if str(exc).startswith(prefix):
                raise ValueError(str(exc)[len(prefix):]) from None
            raise

    def health(self) -> dict:
        report = dict(self._server.health())
        report["transport"] = "pool"
        if self._closed:
            report["state"] = "closed"
        return report

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns:
            self._server.close()


class NetClient(QueryClient):
    """The TCP transport: speaks :mod:`repro.serve.protocol` to a
    :class:`~repro.serve.net.NetServer`.

    Connects (and handshakes HELLO) at construction.  ``distance_many``
    splits batches over the per-frame query cap transparently,
    pipelines the frames, and reassembles the answers in query order;
    the server's typed ``ERROR`` frames come back as the matching
    exceptions — :class:`ServerOverloadedError` for admission refusals,
    the engine's own ``ValueError`` (identical message) for malformed
    queries, :class:`RemoteQueryError` otherwise.  ``timeout`` bounds
    every socket wait and surfaces as :class:`QueryTimeoutError`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = 30.0,
        name: str = "repro-netclient",
    ) -> None:
        self._address = (host, port)
        self._decoder = FrameDecoder()
        #: Frames decoded beyond the one requested (pipelining).
        self._pushback: List[protocol.Frame] = []
        self._next_request = 0
        self._closed = False
        self._lock = threading.Lock()  # guards close() vs in-flight use
        self._sock = socket.create_connection((host, port), timeout=timeout)
        try:
            self._sock.settimeout(timeout)
            self._send(
                protocol.encode_hello(
                    {"peer": name, "protocol": protocol.PROTOCOL_VERSION}
                )
            )
            frame = self._read_frame()
            if frame.msg_type == protocol.MSG_ERROR:
                _, code, message = protocol.decode_error(frame.payload)
                raise _remote_error(code, message)
            if frame.msg_type != protocol.MSG_HELLO:
                raise ProtocolError(
                    f"expected HELLO, server sent "
                    f"{protocol.MSG_NAMES[frame.msg_type]}"
                )
            self.server_info = protocol.decode_hello(frame.payload)
        except BaseException:
            self._sock.close()
            self._closed = True
            raise

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    # -- wire plumbing -------------------------------------------------
    def _send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except socket.timeout:
            raise QueryTimeoutError(
                f"send to {self._address} timed out"
            ) from None
        except OSError as exc:
            raise ServeError(
                f"connection to {self._address} broke: {exc}"
            ) from exc

    def _read_frame(self) -> protocol.Frame:
        while True:
            try:
                data = self._sock.recv(65536)
            except socket.timeout:
                raise QueryTimeoutError(
                    f"no response from {self._address} within the timeout"
                ) from None
            except OSError as exc:
                raise ServeError(
                    f"connection to {self._address} broke: {exc}"
                ) from exc
            if not data:
                raise ServeError(
                    f"server at {self._address} closed the connection"
                )
            frames = self._decoder.feed(data)
            if frames:
                if len(frames) > 1:
                    # Pipelined responses beyond the first are consumed
                    # by the caller loop via the pushback buffer.
                    self._pushback.extend(frames[1:])
                return frames[0]

    def _next_frame(self) -> protocol.Frame:
        if self._pushback:
            return self._pushback.pop(0)
        return self._read_frame()

    # -- the client API ------------------------------------------------
    def distance_many(self, queries: Sequence[Query]) -> List[float]:
        return self._distance_many(queries, flags=0)[0]

    def distance_many_sampled(
        self, queries: Sequence[Query]
    ) -> Tuple[List[float], List[int]]:
        """Like :meth:`distance_many`, but every QUERY frame carries
        :data:`~repro.serve.protocol.FLAG_SAMPLE` — the server records a
        full span tree for each.  Returns ``(answers, trace_ids)``; the
        traces are fetchable from the server's ``STATS`` frame (see
        ``repro trace``)."""
        return self._distance_many(queries, flags=protocol.FLAG_SAMPLE)

    def _distance_many(
        self, queries: Sequence[Query], *, flags: int
    ) -> Tuple[List[float], List[int]]:
        with self._lock:
            if self._closed:
                raise RuntimeError("client is closed")
            queries = list(queries)
            if not queries:
                return [], []
            # Split over the per-frame cap and pipeline all chunks.
            # Each chunk is stamped with a client-minted trace id so a
            # sampled server-side span tree is correlatable back here.
            spans: Dict[int, Tuple[int, int]] = {}
            trace_ids: List[int] = []
            at = 0
            payload = bytearray()
            while at < len(queries):
                chunk = queries[at:at + protocol.MAX_QUERIES_PER_FRAME]
                request_id = self._next_request
                self._next_request = (self._next_request + 1) % CONNECTION_SCOPE
                spans[request_id] = (at, len(chunk))
                trace_id = new_trace_id()
                trace_ids.append(trace_id)
                payload.extend(
                    protocol.encode_query(
                        request_id, chunk, trace_id=trace_id, flags=flags
                    )
                )
                at += len(chunk)
            self._send(bytes(payload))
            answers: List[float] = [0.0] * len(queries)
            failure = None  # first error, by request order
            failed_request = None
            outstanding = set(spans)
            while outstanding:
                frame = self._next_frame()
                if frame.msg_type == protocol.MSG_ANSWER:
                    request_id, chunk_answers = protocol.decode_answer(
                        frame.payload
                    )
                    span = spans.get(request_id)
                    if span is None or request_id not in outstanding:
                        raise ProtocolError(
                            f"ANSWER for unknown request {request_id}"
                        )
                    start, count = span
                    if len(chunk_answers) != count:
                        raise ProtocolError(
                            f"request {request_id} sent {count} queries "
                            f"but got {len(chunk_answers)} answers"
                        )
                    answers[start:start + count] = chunk_answers
                    outstanding.discard(request_id)
                elif frame.msg_type == protocol.MSG_ERROR:
                    request_id, code, message = protocol.decode_error(
                        frame.payload
                    )
                    if request_id == CONNECTION_SCOPE:
                        raise _remote_error(code, message)
                    if request_id not in outstanding:
                        raise ProtocolError(
                            f"ERROR for unknown request {request_id}"
                        )
                    outstanding.discard(request_id)
                    if failure is None or (
                        spans[request_id][0] < spans[failed_request][0]
                    ):
                        failure = (code, message)
                        failed_request = request_id
                else:
                    raise ProtocolError(
                        f"unexpected {protocol.MSG_NAMES[frame.msg_type]} "
                        f"frame while awaiting answers"
                    )
            if failure is not None:
                raise _remote_error(*failure)
            return answers, trace_ids

    def stats(self, *, prometheus: bool = False):
        """Scrape the server's ``STATS`` frame: the JSON stats report
        (metrics, recent traces, slow-query log) or, with
        ``prometheus=True``, the text exposition as a string."""
        fmt = protocol.STATS_PROMETHEUS if prometheus else protocol.STATS_JSON
        with self._lock:
            if self._closed:
                raise RuntimeError("client is closed")
            self._send(protocol.encode_stats_request(fmt))
            while True:
                frame = self._next_frame()
                if frame.msg_type == protocol.MSG_STATS:
                    got_fmt, body = protocol.decode_stats(frame.payload)
                    if got_fmt != fmt:
                        raise ProtocolError(
                            f"STATS response format {got_fmt} does not match "
                            f"the requested {fmt}"
                        )
                    return body
                if frame.msg_type == protocol.MSG_ERROR:
                    _, code, message = protocol.decode_error(frame.payload)
                    raise _remote_error(code, message)
                raise ProtocolError(
                    f"unexpected {protocol.MSG_NAMES[frame.msg_type]} "
                    f"frame while awaiting the stats report"
                )

    def health(self) -> dict:
        with self._lock:
            if self._closed:
                raise RuntimeError("client is closed")
            self._send(protocol.encode_frame(protocol.MSG_HEALTH))
            while True:
                frame = self._next_frame()
                if frame.msg_type == protocol.MSG_HEALTH:
                    return protocol.decode_health_report(frame.payload)
                if frame.msg_type == protocol.MSG_ERROR:
                    _, code, message = protocol.decode_error(frame.payload)
                    raise _remote_error(code, message)
                raise ProtocolError(
                    f"unexpected {protocol.MSG_NAMES[frame.msg_type]} "
                    f"frame while awaiting the health report"
                )

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass


def _remote_error(code: int, message: str) -> Exception:
    """The exception a typed ERROR frame maps to, locally re-raisable.

    ``ERR_QUERY`` messages carry ``"TypeName: text"``; an engine
    ``ValueError`` is re-raised as a ``ValueError`` with the identical
    message, so the network transport stays bit-identical to the
    in-process engine even in how it fails.
    """
    if code == protocol.ERR_OVERLOADED:
        return ServerOverloadedError(message)
    if code == protocol.ERR_QUERY:
        typename, sep, text = message.partition(": ")
        if sep and typename == "ValueError":
            return ValueError(text)
        return RemoteQueryError(message)
    if code == protocol.ERR_TOO_LARGE:
        return FrameTooLargeError(message)
    if code in (protocol.ERR_MALFORMED, protocol.ERR_VERSION):
        return ProtocolError(message)
    return ServeError(f"{ERROR_NAMES.get(code, code)}: {message}")
