"""The wire protocol of the network front door: length-prefixed frames.

One frame is an 8-byte header followed by a payload::

    !HBBI  =  magic (0x5751 "WQ") | version | msg type | payload bytes

Message types:

* ``HELLO``  — handshake, both directions.  JSON payload; the client
  opens with one, the server echoes its identity (protocol version,
  kernel backend).
* ``QUERY``  — a batch of ``(s, t, w)`` queries under one client-chosen
  request id, behind a trace header (``u32 request_id | u32 count |
  u64 trace_id | u8 flags | count × (i64, i64, f64)``; ``trace_id`` 0
  means "untraced"; :data:`FLAG_SAMPLE` asks the server to record a
  full span tree for this request).
* ``ANSWER`` — the distances of one request, in query order
  (``u32 request_id | u32 count | count × f64``).  ``inf`` round-trips
  exactly (IEEE-754 doubles on the wire).
* ``HEALTH`` — empty-payload request; the response carries the server's
  structured health report as JSON (stats, admission, backend pool).
* ``STATS``  — telemetry scrape.  The request carries one format
  byte (:data:`STATS_JSON` or :data:`STATS_PROMETHEUS`; empty payload
  means JSON); the response echoes the format byte followed by the
  body — a JSON stats report or the Prometheus text exposition.
* ``ERROR``  — a typed refusal (``u32 request_id | u8 code | utf-8
  message``).  ``request_id`` is :data:`CONNECTION_SCOPE` for failures
  not tied to one request (malformed frames, version mismatch).

Versioning: this build speaks :data:`PROTOCOL_VERSION` only.  A header
carrying any other version raises :class:`VersionMismatchError` at the
decoder, which the server answers with a typed ``ERR_VERSION`` frame
before closing.

Hard caps guard both sides: a frame's payload may not exceed
:data:`MAX_PAYLOAD_BYTES` and a ``QUERY`` may not carry more than
:data:`MAX_QUERIES_PER_FRAME` queries — oversized input raises
:class:`FrameTooLargeError` *before* any allocation proportional to the
declared size, so a hostile header cannot balloon memory.

:class:`FrameDecoder` is the incremental parser both the asyncio server
and the blocking :class:`~repro.serve.client.NetClient` feed raw socket
bytes into; it buffers partial frames, so TCP segmentation at any byte
boundary is invisible to the message layer.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import ServeError

__all__ = [
    "PROTOCOL_VERSION",
    "MAGIC",
    "FLAG_SAMPLE",
    "MSG_HELLO",
    "MSG_QUERY",
    "MSG_ANSWER",
    "MSG_HEALTH",
    "MSG_ERROR",
    "MSG_STATS",
    "MSG_NAMES",
    "STATS_JSON",
    "STATS_PROMETHEUS",
    "ERR_MALFORMED",
    "ERR_OVERLOADED",
    "ERR_QUERY",
    "ERR_VERSION",
    "ERR_TOO_LARGE",
    "ERR_SHUTDOWN",
    "ERROR_NAMES",
    "CONNECTION_SCOPE",
    "MAX_PAYLOAD_BYTES",
    "MAX_QUERIES_PER_FRAME",
    "Frame",
    "FrameDecoder",
    "ProtocolError",
    "FrameTooLargeError",
    "VersionMismatchError",
    "encode_frame",
    "encode_hello",
    "decode_hello",
    "encode_query",
    "decode_query",
    "encode_answer",
    "decode_answer",
    "encode_error",
    "decode_error",
    "encode_health_report",
    "decode_health_report",
    "encode_stats_request",
    "decode_stats_request",
    "encode_stats",
    "decode_stats",
]

#: Protocol version this build speaks (bumped on incompatible changes).
#: v2 added the QUERY trace header and the STATS frame.
PROTOCOL_VERSION = 2

#: Frame magic: ``"WQ"`` big-endian (WC-INDEX query protocol).
MAGIC = 0x5751

#: QUERY trace-header flag: the client asks for this request to be
#: traced regardless of the server's sampling rate.
FLAG_SAMPLE = 0x01

_HEADER = struct.Struct("!HBBI")
_QUERY_PREFIX = struct.Struct("!II")
_QUERY_TRACE = struct.Struct("!QB")
_QUERY_ITEM = struct.Struct("!qqd")
_ANSWER_PREFIX = struct.Struct("!II")
_ERROR_PREFIX = struct.Struct("!IB")

#: Hard cap on one frame's payload: nothing this protocol carries needs
#: more, and the decoder refuses larger declared sizes up front.
MAX_PAYLOAD_BYTES = 8 * 1024 * 1024

#: Hard cap on queries per QUERY frame (the batch-size ceiling a client
#: must chunk to; ``NetClient.distance_many`` splits transparently).
MAX_QUERIES_PER_FRAME = 65_536

# Message types.
MSG_HELLO = 1
MSG_QUERY = 2
MSG_ANSWER = 3
MSG_HEALTH = 4
MSG_ERROR = 5
MSG_STATS = 6

MSG_NAMES = {
    MSG_HELLO: "HELLO",
    MSG_QUERY: "QUERY",
    MSG_ANSWER: "ANSWER",
    MSG_HEALTH: "HEALTH",
    MSG_ERROR: "ERROR",
    MSG_STATS: "STATS",
}

# STATS payload formats.
STATS_JSON = 0
STATS_PROMETHEUS = 1

# ERROR frame codes.
ERR_MALFORMED = 1
ERR_OVERLOADED = 2
ERR_QUERY = 3
ERR_VERSION = 4
ERR_TOO_LARGE = 5
ERR_SHUTDOWN = 6

ERROR_NAMES = {
    ERR_MALFORMED: "malformed",
    ERR_OVERLOADED: "overloaded",
    ERR_QUERY: "query-failed",
    ERR_VERSION: "version-mismatch",
    ERR_TOO_LARGE: "too-large",
    ERR_SHUTDOWN: "shutting-down",
}

#: Request id of connection-scoped ERROR frames (not tied to a QUERY).
CONNECTION_SCOPE = 0xFFFFFFFF


class ProtocolError(ServeError):
    """The byte stream violates the frame protocol (bad magic, bad
    message type, payload/declared-size mismatch)."""


class FrameTooLargeError(ProtocolError):
    """A frame (or its query count) exceeds the protocol's hard caps."""


class VersionMismatchError(ProtocolError):
    """The peer speaks an unsupported protocol version."""

    def __init__(self, peer_version: int) -> None:
        super().__init__(
            f"peer speaks protocol version {peer_version}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )
        self.peer_version = peer_version


class Frame:
    """One decoded frame: message type + raw payload bytes."""

    __slots__ = ("msg_type", "payload")

    def __init__(self, msg_type: int, payload: bytes) -> None:
        self.msg_type = msg_type
        self.payload = payload

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Frame)
            and self.msg_type == other.msg_type
            and self.payload == other.payload
        )

    def __repr__(self) -> str:
        name = MSG_NAMES.get(self.msg_type, f"?{self.msg_type}")
        return f"Frame({name}, {len(self.payload)} bytes)"


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """One wire frame: header + payload."""
    if msg_type not in MSG_NAMES:
        raise ProtocolError(f"unknown message type {msg_type}")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise FrameTooLargeError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame cap"
        )
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, msg_type, len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrarily segmented stream.

    ``feed(data)`` buffers ``data`` and returns every frame completed by
    it — zero, one or many; a frame split across any number of ``feed``
    calls (TCP segment boundaries) is reassembled transparently.  The
    header of every frame is validated the moment its 8 bytes are
    buffered, *before* waiting for (or allocating for) the declared
    payload, so bad magic, foreign versions and hostile sizes fail fast.
    A decoder that raised is poisoned — the stream has lost framing and
    the connection must be closed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered_bytes(self) -> int:
        """Bytes buffered but not yet part of a returned frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return frames
            magic, version, msg_type, size = _HEADER.unpack_from(self._buffer)
            if magic != MAGIC:
                raise ProtocolError(
                    f"bad frame magic 0x{magic:04x} (expected 0x{MAGIC:04x})"
                )
            if version != PROTOCOL_VERSION:
                raise VersionMismatchError(version)
            if msg_type not in MSG_NAMES:
                raise ProtocolError(f"unknown message type {msg_type}")
            if size > MAX_PAYLOAD_BYTES:
                raise FrameTooLargeError(
                    f"frame declares a {size}-byte payload; the cap is "
                    f"{MAX_PAYLOAD_BYTES} bytes"
                )
            if len(self._buffer) < _HEADER.size + size:
                return frames
            payload = bytes(self._buffer[_HEADER.size:_HEADER.size + size])
            del self._buffer[:_HEADER.size + size]
            frames.append(Frame(msg_type, payload))


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------
def encode_hello(info: dict) -> bytes:
    """HELLO frame: JSON identity blob (protocol version, peer name)."""
    return encode_frame(MSG_HELLO, json.dumps(info, sort_keys=True).encode("utf-8"))


def decode_hello(payload: bytes) -> dict:
    try:
        info = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed HELLO payload: {exc}") from None
    if not isinstance(info, dict):
        raise ProtocolError(
            f"HELLO payload must be a JSON object, got {type(info).__name__}"
        )
    return info


def encode_query(
    request_id: int,
    queries: Sequence[Tuple[int, int, float]],
    *,
    trace_id: int = 0,
    flags: int = 0,
) -> bytes:
    """QUERY frame: one request id, its trace header (``trace_id`` 0 =
    untraced; :data:`FLAG_SAMPLE` forces a span tree) and its
    ``(s, t, w)`` batch."""
    if not 0 <= request_id < CONNECTION_SCOPE:
        raise ProtocolError(f"request id {request_id} out of range")
    if len(queries) > MAX_QUERIES_PER_FRAME:
        raise FrameTooLargeError(
            f"{len(queries)} queries exceed the per-frame cap of "
            f"{MAX_QUERIES_PER_FRAME}; split the batch"
        )
    if not 0 <= trace_id < (1 << 64):
        raise ProtocolError(f"trace id {trace_id} out of range")
    if not 0 <= flags < 256:
        raise ProtocolError(f"trace flags {flags} out of range")
    parts = [
        _QUERY_PREFIX.pack(request_id, len(queries)),
        _QUERY_TRACE.pack(trace_id, flags),
    ]
    pack = _QUERY_ITEM.pack
    for s, t, w in queries:
        parts.append(pack(s, t, w))
    return encode_frame(MSG_QUERY, b"".join(parts))


def decode_query(
    payload: bytes,
) -> Tuple[int, List[Tuple[int, int, float]], Tuple[int, int]]:
    """Decode a QUERY payload into ``(request_id, queries, trace)``,
    where ``trace`` is the ``(trace_id, flags)`` header."""
    if len(payload) < _QUERY_PREFIX.size:
        raise ProtocolError("truncated QUERY payload: missing prefix")
    request_id, count = _QUERY_PREFIX.unpack_from(payload)
    if count > MAX_QUERIES_PER_FRAME:
        raise FrameTooLargeError(
            f"QUERY declares {count} queries; the per-frame cap is "
            f"{MAX_QUERIES_PER_FRAME}"
        )
    body_at = _QUERY_PREFIX.size + _QUERY_TRACE.size
    if len(payload) < body_at:
        raise ProtocolError("truncated QUERY payload: missing trace header")
    trace = _QUERY_TRACE.unpack_from(payload, _QUERY_PREFIX.size)
    expected = body_at + count * _QUERY_ITEM.size
    if len(payload) != expected:
        raise ProtocolError(
            f"QUERY of {count} queries must carry {expected} bytes, "
            f"got {len(payload)}"
        )
    queries = [
        (s, t, w)
        for s, t, w in _QUERY_ITEM.iter_unpack(payload[body_at:])
    ]
    return request_id, queries, trace


def encode_answer(request_id: int, answers: Iterable[float]) -> bytes:
    """ANSWER frame: the distances of one request, in query order."""
    answers = list(answers)
    payload = _ANSWER_PREFIX.pack(request_id, len(answers)) + struct.pack(
        f"!{len(answers)}d", *answers
    )
    return encode_frame(MSG_ANSWER, payload)


def decode_answer(payload: bytes) -> Tuple[int, List[float]]:
    if len(payload) < _ANSWER_PREFIX.size:
        raise ProtocolError("truncated ANSWER payload: missing prefix")
    request_id, count = _ANSWER_PREFIX.unpack_from(payload)
    expected = _ANSWER_PREFIX.size + count * 8
    if len(payload) != expected:
        raise ProtocolError(
            f"ANSWER of {count} distances must carry {expected} bytes, "
            f"got {len(payload)}"
        )
    answers = list(
        struct.unpack_from(f"!{count}d", payload, _ANSWER_PREFIX.size)
    )
    return request_id, answers


def encode_error(request_id: int, code: int, message: str) -> bytes:
    """ERROR frame: a typed refusal (:data:`CONNECTION_SCOPE` request id
    for failures not tied to one request)."""
    if code not in ERROR_NAMES:
        raise ProtocolError(f"unknown error code {code}")
    return encode_frame(
        MSG_ERROR,
        _ERROR_PREFIX.pack(request_id, code) + message.encode("utf-8"),
    )


def decode_error(payload: bytes) -> Tuple[int, int, str]:
    if len(payload) < _ERROR_PREFIX.size:
        raise ProtocolError("truncated ERROR payload: missing prefix")
    request_id, code = _ERROR_PREFIX.unpack_from(payload)
    if code not in ERROR_NAMES:
        raise ProtocolError(f"unknown error code {code}")
    try:
        message = payload[_ERROR_PREFIX.size:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed ERROR message: {exc}") from None
    return request_id, code, message


def _sanitize(value):
    """JSON-safe copy of a health report (non-finite floats stringified,
    so the wire stays strict-JSON parseable)."""
    if isinstance(value, dict):
        return {str(key): _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def encode_health_report(report: dict) -> bytes:
    """HEALTH response frame: the structured report as strict JSON."""
    return encode_frame(
        MSG_HEALTH,
        json.dumps(_sanitize(report), sort_keys=True).encode("utf-8"),
    )


def decode_health_report(payload: bytes) -> dict:
    if not payload:
        return {}
    try:
        report = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed HEALTH payload: {exc}") from None
    if not isinstance(report, dict):
        raise ProtocolError(
            f"HEALTH payload must be a JSON object, got {type(report).__name__}"
        )
    return report


_STATS_FORMATS = (STATS_JSON, STATS_PROMETHEUS)


def encode_stats_request(fmt: int = STATS_JSON) -> bytes:
    """STATS request frame: one format byte."""
    if fmt not in _STATS_FORMATS:
        raise ProtocolError(f"unknown STATS format {fmt}")
    return encode_frame(MSG_STATS, bytes([fmt]))


def decode_stats_request(payload: bytes) -> int:
    """The requested format of a STATS request (empty payload = JSON)."""
    if not payload:
        return STATS_JSON
    if len(payload) != 1:
        raise ProtocolError(
            f"STATS request payload must be empty or one format byte, "
            f"got {len(payload)} bytes"
        )
    fmt = payload[0]
    if fmt not in _STATS_FORMATS:
        raise ProtocolError(f"unknown STATS format {fmt}")
    return fmt


def encode_stats(fmt: int, report: Union[dict, str]) -> bytes:
    """STATS response frame: format byte + body (sanitized JSON report
    or the Prometheus text exposition)."""
    if fmt == STATS_JSON:
        if not isinstance(report, dict):
            raise ProtocolError(
                f"JSON STATS body must be a dict, got {type(report).__name__}"
            )
        body = json.dumps(_sanitize(report), sort_keys=True).encode("utf-8")
    elif fmt == STATS_PROMETHEUS:
        if not isinstance(report, str):
            raise ProtocolError(
                f"Prometheus STATS body must be text, got "
                f"{type(report).__name__}"
            )
        body = report.encode("utf-8")
    else:
        raise ProtocolError(f"unknown STATS format {fmt}")
    return encode_frame(MSG_STATS, bytes([fmt]) + body)


def decode_stats(payload: bytes) -> Tuple[int, Union[dict, str]]:
    """Decode a STATS response: ``(format, report-dict | text)``."""
    if not payload:
        raise ProtocolError("truncated STATS payload: missing format byte")
    fmt = payload[0]
    if fmt not in _STATS_FORMATS:
        raise ProtocolError(f"unknown STATS format {fmt}")
    body = payload[1:]
    if fmt == STATS_PROMETHEUS:
        try:
            return fmt, body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed STATS text body: {exc}") from None
    try:
        report = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed STATS payload: {exc}") from None
    if not isinstance(report, dict):
        raise ProtocolError(
            f"STATS payload must be a JSON object, got {type(report).__name__}"
        )
    return fmt, report
