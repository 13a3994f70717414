"""Tests for the length-prefixed binary frame protocol."""

import json
import math
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.serve import protocol
from repro.serve.protocol import (
    CONNECTION_SCOPE,
    FLAG_SAMPLE,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MAX_QUERIES_PER_FRAME,
    MSG_ANSWER,
    MSG_HEALTH,
    MSG_HELLO,
    MSG_QUERY,
    MSG_STATS,
    STATS_JSON,
    STATS_PROMETHEUS,
    Frame,
    FrameDecoder,
    FrameTooLargeError,
    ProtocolError,
    VersionMismatchError,
    decode_answer,
    decode_error,
    decode_health_report,
    decode_hello,
    decode_query,
    decode_stats,
    decode_stats_request,
    encode_answer,
    encode_error,
    encode_frame,
    encode_health_report,
    encode_hello,
    encode_query,
    encode_stats,
    encode_stats_request,
)

INF = float("inf")
_HEADER = struct.Struct("!HBBI")


def one_frame(data: bytes) -> Frame:
    frames = FrameDecoder().feed(data)
    assert len(frames) == 1
    return frames[0]


class TestRoundTrips:
    def test_query(self):
        queries = [(0, 1, 2.0), (5, 9, INF), (-1, 2**62, 0.25)]
        request_id, decoded, trace = decode_query(
            one_frame(encode_query(7, queries)).payload
        )
        assert request_id == 7
        assert decoded == queries
        assert trace == (0, 0)

    def test_empty_query_batch(self):
        request_id, decoded, trace = decode_query(
            one_frame(encode_query(0, [])).payload
        )
        assert (request_id, decoded, trace) == (0, [], (0, 0))

    def test_query_trace_header_roundtrips(self):
        payload = one_frame(
            encode_query(
                4, [(1, 2, 3.0)], trace_id=0xDEADBEEFCAFE, flags=FLAG_SAMPLE
            )
        ).payload
        request_id, decoded, trace = decode_query(payload)
        assert request_id == 4
        assert decoded == [(1, 2, 3.0)]
        assert trace == (0xDEADBEEFCAFE, FLAG_SAMPLE)

    def test_answer_roundtrips_inf_exactly(self):
        answers = [0.0, 3.0, INF, 1e308, 0.1]
        request_id, decoded = decode_answer(
            one_frame(encode_answer(3, answers)).payload
        )
        assert request_id == 3
        assert decoded == answers

    def test_error(self):
        payload = one_frame(
            encode_error(9, protocol.ERR_QUERY, "ValueError: bad query")
        ).payload
        assert decode_error(payload) == (
            9,
            protocol.ERR_QUERY,
            "ValueError: bad query",
        )

    def test_connection_scoped_error(self):
        payload = one_frame(
            encode_error(CONNECTION_SCOPE, protocol.ERR_MALFORMED, "boom")
        ).payload
        assert decode_error(payload)[0] == CONNECTION_SCOPE

    def test_hello(self):
        info = {"peer": "test", "protocol": protocol.PROTOCOL_VERSION}
        assert decode_hello(one_frame(encode_hello(info)).payload) == info

    def test_health_report_sanitizes_non_finite(self):
        report = {"latency": {"p99_ms": INF}, "nan": float("nan")}
        decoded = decode_health_report(
            one_frame(encode_health_report(report)).payload
        )
        assert decoded["latency"]["p99_ms"] == "inf"
        assert decoded["nan"] == "nan"

    @given(
        request_id=st.integers(min_value=0, max_value=CONNECTION_SCOPE - 1),
        queries=st.lists(
            st.tuples(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.just(INF),
                ),
            ),
            max_size=50,
        ),
    )
    def test_query_roundtrip_property(self, request_id, queries):
        decoded_id, decoded, trace = decode_query(
            one_frame(encode_query(request_id, queries)).payload
        )
        assert decoded_id == request_id
        assert decoded == queries
        assert trace == (0, 0)

    @given(
        request_id=st.integers(min_value=0, max_value=CONNECTION_SCOPE),
        answers=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.just(INF),
            ),
            max_size=50,
        ),
    )
    def test_answer_roundtrip_property(self, request_id, answers):
        decoded_id, decoded = decode_answer(
            one_frame(encode_answer(request_id, answers)).payload
        )
        assert decoded_id == request_id
        assert decoded == answers


class TestFrameDecoder:
    def test_byte_at_a_time_reassembly(self):
        data = encode_query(1, [(0, 1, 2.0)]) + encode_frame(MSG_HEALTH)
        decoder = FrameDecoder()
        frames = []
        for i in range(len(data)):
            frames.extend(decoder.feed(data[i:i + 1]))
        assert [f.msg_type for f in frames] == [MSG_QUERY, MSG_HEALTH]
        assert decoder.buffered_bytes == 0

    @given(cut=st.integers(min_value=0, max_value=200))
    def test_any_split_point_is_invisible(self, cut):
        data = encode_answer(2, [1.0, INF]) + encode_hello({"a": 1})
        cut = min(cut, len(data))
        decoder = FrameDecoder()
        frames = decoder.feed(data[:cut]) + decoder.feed(data[cut:])
        assert [f.msg_type for f in frames] == [MSG_ANSWER, MSG_HELLO]

    def test_many_frames_in_one_feed(self):
        data = b"".join(encode_answer(i, [float(i)]) for i in range(10))
        frames = FrameDecoder().feed(data)
        assert [decode_answer(f.payload)[0] for f in frames] == list(range(10))

    def test_truncated_frame_stays_buffered(self):
        data = encode_query(1, [(0, 1, 2.0)])
        decoder = FrameDecoder()
        assert decoder.feed(data[:-1]) == []
        assert decoder.buffered_bytes == len(data) - 1
        assert len(decoder.feed(data[-1:])) == 1

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            FrameDecoder().feed(_HEADER.pack(0xDEAD, 1, MSG_HELLO, 0))

    def test_version_mismatch_carries_peer_version(self):
        frame = _HEADER.pack(MAGIC, 9, MSG_HELLO, 2) + b"{}"
        with pytest.raises(VersionMismatchError) as excinfo:
            FrameDecoder().feed(frame)
        assert excinfo.value.peer_version == 9

    def test_unknown_message_type(self):
        with pytest.raises(ProtocolError, match="message type"):
            FrameDecoder().feed(
                _HEADER.pack(MAGIC, protocol.PROTOCOL_VERSION, 99, 0)
            )

    def test_hostile_declared_size_rejected_from_header_alone(self):
        # Only the 8 header bytes arrive; the decoder must refuse the
        # declared size without waiting for (or allocating) the payload.
        header = _HEADER.pack(
            MAGIC, protocol.PROTOCOL_VERSION, MSG_QUERY, MAX_PAYLOAD_BYTES + 1
        )
        with pytest.raises(FrameTooLargeError):
            FrameDecoder().feed(header)


class TestCaps:
    def test_oversized_query_batch_rejected_at_encode(self):
        queries = [(0, 1, 1.0)] * (MAX_QUERIES_PER_FRAME + 1)
        with pytest.raises(FrameTooLargeError, match="split the batch"):
            encode_query(0, queries)

    def test_oversized_declared_count_rejected_at_decode(self):
        payload = struct.pack("!II", 0, MAX_QUERIES_PER_FRAME + 1)
        with pytest.raises(FrameTooLargeError):
            decode_query(payload)

    def test_oversized_payload_rejected_at_encode(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame(MSG_HELLO, b"x" * (MAX_PAYLOAD_BYTES + 1))

    def test_request_id_out_of_range(self):
        with pytest.raises(ProtocolError):
            encode_query(CONNECTION_SCOPE, [])


class TestMalformedPayloads:
    def test_query_count_payload_mismatch(self):
        payload = (
            struct.pack("!II", 0, 2)
            + struct.pack("!QB", 0, 0)
            + struct.pack("!qqd", 0, 1, 2.0)
        )
        with pytest.raises(ProtocolError, match="must carry"):
            decode_query(payload)

    def test_query_missing_prefix(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_query(b"\x00")

    def test_query_missing_trace_header(self):
        # A v2 frame whose payload stops after the !II prefix: the
        # decoder must name the missing trace header, not mis-slice.
        with pytest.raises(ProtocolError, match="missing trace header"):
            decode_query(struct.pack("!II", 0, 0))

    def test_answer_count_payload_mismatch(self):
        payload = struct.pack("!II", 0, 3) + struct.pack("!d", 1.0)
        with pytest.raises(ProtocolError, match="must carry"):
            decode_answer(payload)

    def test_error_unknown_code(self):
        with pytest.raises(ProtocolError, match="error code"):
            decode_error(struct.pack("!IB", 0, 99))

    def test_error_bad_utf8(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_error(
                struct.pack("!IB", 0, protocol.ERR_QUERY) + b"\xff\xfe"
            )

    def test_hello_not_json(self):
        with pytest.raises(ProtocolError, match="HELLO"):
            decode_hello(b"not json")

    def test_hello_not_an_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_hello(json.dumps([1, 2]).encode())

    def test_health_not_an_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_health_report(b"[1]")

    def test_health_report_is_strict_json(self):
        payload = one_frame(
            encode_health_report({"p": INF, "n": 3})
        ).payload
        # strict JSON: parseable by any peer, no NaN/Infinity literals
        parsed = json.loads(payload.decode("utf-8"))
        assert parsed == {"p": "inf", "n": 3}
        assert math.isfinite(parsed["n"])

    def test_health_sanitization_roundtrips_nested_structures(self):
        report = {
            "latency": {"p50_ms": 1.5, "p99_ms": INF, "samples": []},
            "workers": [{"slot": 0, "lag": float("nan")}, {"slot": 1}],
            "neg": -INF,
        }
        decoded = decode_health_report(
            one_frame(encode_health_report(report)).payload
        )
        assert decoded["latency"] == {
            "p50_ms": 1.5, "p99_ms": "inf", "samples": []
        }
        assert decoded["workers"] == [
            {"slot": 0, "lag": "nan"}, {"slot": 1}
        ]
        assert decoded["neg"] == "-inf"


class TestStatsFrames:
    def test_supported_versions_cover_both_generations(self):
        # v2 is the only version spoken; a v1 header is refused.
        assert protocol.PROTOCOL_VERSION == 2
        assert one_frame(encode_stats_request()).msg_type == MSG_STATS
        with pytest.raises(VersionMismatchError):
            FrameDecoder().feed(_HEADER.pack(MAGIC, 1, MSG_STATS, 0))

    def test_stats_request_roundtrip(self):
        for fmt in (STATS_JSON, STATS_PROMETHEUS):
            frame = one_frame(encode_stats_request(fmt))
            assert frame.msg_type == MSG_STATS
            assert decode_stats_request(frame.payload) == fmt

    def test_empty_stats_request_defaults_to_json(self):
        assert decode_stats_request(b"") == STATS_JSON

    def test_stats_request_rejects_unknown_format(self):
        with pytest.raises(ProtocolError, match="format"):
            decode_stats_request(b"\x07")

    def test_stats_request_rejects_trailing_bytes(self):
        with pytest.raises(ProtocolError):
            decode_stats_request(b"\x00\x00")

    def test_json_stats_roundtrip_sanitizes_non_finite(self):
        report = {"stats": {"p99_ms": INF}, "queries": {"admitted": 4}}
        payload = one_frame(encode_stats(STATS_JSON, report)).payload
        fmt, decoded = decode_stats(payload)
        assert fmt == STATS_JSON
        assert decoded == {"stats": {"p99_ms": "inf"}, "queries": {"admitted": 4}}

    def test_prometheus_stats_roundtrip(self):
        text = "# TYPE repro_queries_admitted_total counter\n" \
               "repro_queries_admitted_total 12\n"
        payload = one_frame(encode_stats(STATS_PROMETHEUS, text)).payload
        fmt, decoded = decode_stats(payload)
        assert fmt == STATS_PROMETHEUS
        assert decoded == text

    def test_encode_stats_rejects_mismatched_body_type(self):
        with pytest.raises(ProtocolError):
            encode_stats(STATS_JSON, "not a dict")
        with pytest.raises(ProtocolError):
            encode_stats(STATS_PROMETHEUS, {"not": "text"})

    def test_truncated_stats_payload(self):
        with pytest.raises(ProtocolError, match="truncated STATS"):
            decode_stats(b"")

    def test_hostile_stats_format_byte(self):
        with pytest.raises(ProtocolError, match="format"):
            decode_stats(b"\xff{}")

    def test_hostile_stats_json_body(self):
        with pytest.raises(ProtocolError):
            decode_stats(bytes([STATS_JSON]) + b"not json")

    def test_hostile_stats_non_object_json(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_stats(bytes([STATS_JSON]) + b"[1, 2]")

    def test_hostile_stats_bad_utf8(self):
        with pytest.raises(ProtocolError):
            decode_stats(bytes([STATS_PROMETHEUS]) + b"\xff\xfe")
