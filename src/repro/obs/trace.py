"""Per-query tracing: spans, traces, the ring buffer, the slow log.

A *trace* follows one client request through the serving stack.  The
trace id is minted at the edge — :class:`repro.serve.client.NetClient`
stamps one into the QUERY frames it force-samples; the server mints one
for frames that carry none — and the layers the request passes through
append *spans*:

========================  =============================================
span                      meaning
========================  =============================================
``queue-wait``            admitted by the front door until the batcher
                          picked the request up
``batch-coalesce``        sitting in the forming batch waiting for
                          more requests (or the deadline)
``kernel``                the backend ``distance_many`` call (executor
                          thread, pool round trip included)
``cache-lookup``          the answer-cache probe (and, on a miss, the
                          whole fill: the ``kernel`` span nests under
                          it when the caching client is traced)
``pool-dispatch``         chunk fan-out to pool workers inside
                          ``QueryServer.query_batch``
``serialize``             encoding + writing the ANSWER frame
========================  =============================================

Timings come from ``time.monotonic()`` — the same clock the asyncio
loop uses — so spans recorded on the loop and on executor threads
compose.  Span times are *relative to the trace start*, which keeps
serialized traces meaningful across processes with different monotonic
epochs.

Completed traces land in a bounded :class:`TraceBuffer` ring (oldest
evicted first) from which the ``STATS`` frame and ``repro trace``
fetch them; traces slower than a threshold additionally go to the
:class:`SlowQueryLog`, which keeps its own ring and a JSONL sink hook.
Sampling policy lives in :class:`repro.obs.telemetry.Telemetry`, not
here — this module only records what it is handed.
"""

from __future__ import annotations

import itertools
import random
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

__all__ = [
    "SPAN_NAMES",
    "new_trace_id",
    "Span",
    "Trace",
    "TraceBuffer",
    "SlowQueryLog",
    "format_trace",
]

#: The span glossary (see the table above / README "Telemetry").
SPAN_NAMES = (
    "queue-wait",
    "batch-coalesce",
    "kernel",
    "cache-lookup",
    "pool-dispatch",
    "serialize",
)

_TRACE_ID_SCOPE = 1 << 64

# Process-unique prefix + counter so two clients in one process (or a
# client and a server minting for untraced frames) do not collide.
_mint_prefix = random.getrandbits(31) << 32
_mint_counter = itertools.count(1)


def new_trace_id() -> int:
    """Mint a fresh 64-bit trace id (non-zero; 0 means "untraced")."""
    return (_mint_prefix | (next(_mint_counter) & 0xFFFFFFFF)) % _TRACE_ID_SCOPE or 1


class Span:
    """One timed region inside a trace.

    ``start_s`` is relative to the owning trace's start; ``duration_s``
    is the span's length.  Both are monotonic-clock derived floats.
    """

    __slots__ = ("name", "start_s", "duration_s", "parent", "meta")

    def __init__(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        parent: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start_s = start_s
        self.duration_s = duration_s
        self.parent = parent
        self.meta = meta or {}

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "start_us": round(self.start_s * 1e6, 3),
            "duration_us": round(self.duration_s * 1e6, 3),
        }
        if self.parent is not None:
            out["parent"] = self.parent
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            name=payload["name"],
            start_s=float(payload.get("start_us", 0.0)) / 1e6,
            duration_s=float(payload.get("duration_us", 0.0)) / 1e6,
            parent=payload.get("parent"),
            meta=dict(payload.get("meta", {})),
        )


class Trace:
    """The span tree of one request.

    Built incrementally while the request is in flight (``add_span`` is
    thread-safe: the loop, the batcher task and executor threads all
    contribute), then sealed with :meth:`finish` and handed to the
    ring/slow log.  ``start_monotonic`` anchors relative span times.
    """

    __slots__ = (
        "trace_id",
        "request_id",
        "queries",
        "start_monotonic",
        "spans",
        "meta",
        "total_s",
        "_lock",
    )

    def __init__(
        self,
        trace_id: int,
        request_id: int,
        queries: int,
        start_monotonic: float,
    ) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.queries = queries
        self.start_monotonic = start_monotonic
        self.spans: List[Span] = []
        self.meta: Dict[str, Any] = {}
        self.total_s: Optional[float] = None
        self._lock = threading.Lock()

    def add_span(
        self,
        name: str,
        start_monotonic: float,
        end_monotonic: float,
        parent: Optional[str] = None,
        **meta: Any,
    ) -> Span:
        span = Span(
            name,
            start_s=max(0.0, start_monotonic - self.start_monotonic),
            duration_s=max(0.0, end_monotonic - start_monotonic),
            parent=parent,
            meta=meta or None,
        )
        with self._lock:
            self.spans.append(span)
        return span

    def finish(self, end_monotonic: float) -> None:
        with self._lock:
            self.total_s = max(0.0, end_monotonic - self.start_monotonic)

    @property
    def finished(self) -> bool:
        return self.total_s is not None

    def span_sum_s(self, names: Iterable[str]) -> float:
        """Sum of the durations of top-level spans with the given
        names (nested children excluded to avoid double counting)."""
        wanted = set(names)
        with self._lock:
            return sum(
                s.duration_s
                for s in self.spans
                if s.name in wanted and s.parent is None
            )

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "request_id": self.request_id,
                "queries": self.queries,
                "total_us": round((self.total_s or 0.0) * 1e6, 3),
                "spans": [s.to_dict() for s in self.spans],
                "meta": dict(self.meta),
            }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Trace":
        trace = cls(
            trace_id=int(payload["trace_id"]),
            request_id=int(payload.get("request_id", 0)),
            queries=int(payload.get("queries", 0)),
            start_monotonic=0.0,
        )
        trace.spans = [Span.from_dict(s) for s in payload.get("spans", [])]
        trace.meta = dict(payload.get("meta", {}))
        trace.total_s = float(payload.get("total_us", 0.0)) / 1e6
        return trace


class TraceBuffer:
    """A bounded ring of finished traces (oldest evicted first)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._lock = threading.Lock()
        self._ring: Deque[Trace] = deque(maxlen=capacity)

    def push(self, trace: Trace) -> None:
        with self._lock:
            self._ring.append(trace)

    def recent(self, n: int = 16) -> List[Trace]:
        with self._lock:
            items = list(self._ring)
        return items[-n:]

    def find(self, trace_id: int) -> Optional[Trace]:
        with self._lock:
            for trace in reversed(self._ring):
                if trace.trace_id == trace_id:
                    return trace
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class SlowQueryLog:
    """Threshold-triggered span dumps.

    Traces whose total exceeds ``threshold_s`` are kept in their own
    ring; an optional ``sink`` callable (e.g. a JSONL writer) receives
    each slow trace's dict as it is recorded.
    """

    def __init__(
        self,
        threshold_s: float = 0.050,
        capacity: int = 128,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if threshold_s <= 0:
            raise ValueError("threshold_s must be positive")
        self.threshold_s = threshold_s
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._sink = sink
        self._recorded = 0

    def offer(self, trace: Trace) -> bool:
        """Record ``trace`` if it is slow; returns True if recorded."""
        total = trace.total_s or 0.0
        if total < self.threshold_s:
            return False
        payload = trace.to_dict()
        with self._lock:
            self._ring.append(payload)
            self._recorded += 1
            sink = self._sink
        if sink is not None:
            try:
                sink(payload)
            except Exception:
                pass  # a broken sink must not fail the request path
        return True

    @property
    def recorded(self) -> int:
        with self._lock:
            return self._recorded

    def recent(self, n: int = 16) -> List[Dict[str, Any]]:
        with self._lock:
            items = list(self._ring)
        return items[-n:]


def _format_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.3f}s"
    if us >= 1e3:
        return f"{us / 1e3:.3f}ms"
    return f"{us:.1f}us"


def format_trace(payload: Dict[str, Any]) -> str:
    """Pretty-print a trace dict as an indented span tree with a
    proportional time bar (used by ``repro trace``)."""
    total_us = float(payload.get("total_us", 0.0))
    lines = [
        f"trace {payload.get('trace_id', '?'):#x}  "
        f"request {payload.get('request_id', '?')}  "
        f"queries {payload.get('queries', '?')}  "
        f"total {_format_us(total_us)}"
    ]
    meta = payload.get("meta") or {}
    if meta:
        rendered = "  ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"  {rendered}")
    spans = payload.get("spans", [])
    by_parent: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in spans:
        by_parent.setdefault(span.get("parent"), []).append(span)

    width = 24

    def emit(parent: Optional[str], depth: int) -> None:
        for span in by_parent.get(parent, []):
            start = float(span.get("start_us", 0.0))
            dur = float(span.get("duration_us", 0.0))
            if total_us > 0:
                lead = int(width * start / total_us)
                fill = max(1, int(width * dur / total_us))
                bar = " " * lead + "#" * min(fill, width - lead)
            else:
                bar = ""
            smeta = span.get("meta") or {}
            tail = (
                "  " + " ".join(f"{k}={v}" for k, v in sorted(smeta.items()))
                if smeta
                else ""
            )
            lines.append(
                f"  {'  ' * depth}{span['name']:<16} "
                f"{_format_us(dur):>10}  |{bar:<{width}}|{tail}"
            )
            emit(span["name"], depth + 1)

    emit(None, 0)
    return "\n".join(lines)
