"""Tests for the asyncio TCP front door and its blocking client."""

import socket
import struct
import threading
import time

import pytest

from repro.core import (
    DirectedWCIndex,
    WeightedWCIndex,
    build_wc_index_plus,
)
from repro.graph.generators import (
    oriented_copy,
    scale_free_network,
    with_random_lengths,
)
from repro.serve import (
    InProcessClient,
    NetClient,
    NetServerThread,
    QueryServer,
    ServerOverloadedError,
)
from repro.serve import protocol
from repro.serve.client import PoolClient
from repro.serve.errors import ServeError
from repro.serve.net import NetServer
from repro.serve.stats import percentile
from repro.workloads.queries import random_queries

INF = float("inf")


@pytest.fixture(scope="module")
def network():
    return scale_free_network(120, 3, num_qualities=5, seed=9)


@pytest.fixture(scope="module")
def frozen(network):
    return build_wc_index_plus(network).freeze()


@pytest.fixture(scope="module")
def workload(network):
    return list(random_queries(network, 300, seed=2))


@pytest.fixture(scope="module")
def front(frozen):
    with NetServerThread(InProcessClient(frozen)) as server:
        yield server


@pytest.fixture()
def client(front):
    with NetClient(*front.address) as c:
        yield c


def raw_connection(front):
    sock = socket.create_connection(front.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def wait_for_connections(front, count):
    """Until the server has registered ``count`` open connections."""
    deadline = time.monotonic() + 5.0
    while front.health_report()["connections"] < count:
        assert time.monotonic() < deadline, "connections never registered"
        time.sleep(0.005)


def read_answers(sock, count):
    """``request_id -> answers`` of the next ``count`` ANSWER frames."""
    decoder = protocol.FrameDecoder()
    answers = {}
    while len(answers) < count:
        data = sock.recv(65536)
        assert data, "connection closed before every answer arrived"
        for frame in decoder.feed(data):
            assert frame.msg_type == protocol.MSG_ANSWER
            request_id, values = protocol.decode_answer(frame.payload)
            answers[request_id] = values
    return answers


class TestBitIdentity:
    def test_undirected(self, client, frozen, workload):
        assert client.distance_many(workload) == frozen.distance_many(workload)

    def test_single_query(self, client, frozen, workload):
        s, t, w = workload[0]
        assert client.distance(s, t, w) == frozen.distance(s, t, w)

    def test_empty_batch(self, client):
        assert client.distance_many([]) == []

    @pytest.mark.parametrize("family", ["directed", "weighted"])
    def test_extension_families(self, network, family):
        if family == "directed":
            graph = oriented_copy(network, seed=4)
            engine = DirectedWCIndex(graph).freeze()
        else:
            graph = with_random_lengths(network, seed=4)
            engine = WeightedWCIndex(graph).freeze()
        queries = list(random_queries(graph, 150, seed=5))
        with NetServerThread(InProcessClient(engine)) as front:
            with NetClient(*front.address) as client:
                assert client.distance_many(queries) == engine.distance_many(
                    queries
                )

    def test_error_messages_bit_identical(self, client, frozen):
        bad = (0, 10**6, 1.0)
        with pytest.raises(ValueError) as engine_err:
            frozen.distance_many([bad])
        with pytest.raises(ValueError) as net_err:
            client.distance_many([bad])
        assert str(net_err.value) == str(engine_err.value)

    def test_failure_isolated_to_offending_request(self, front, frozen):
        # Two pipelined requests on one connection: only the malformed
        # one fails; the other is answered (no silent drop, and the
        # connection survives to serve the follow-up call).
        with NetClient(*front.address) as client:
            with pytest.raises(ValueError):
                client.distance_many([(0, 10**6, 1.0)])
            good = [(0, 1, 2.0), (3, 4, 1.0)]
            assert client.distance_many(good) == frozen.distance_many(good)

    def test_large_batch_chunks_over_frame_cap(self, frozen, workload):
        big = (workload * ((protocol.MAX_QUERIES_PER_FRAME // len(workload)) + 1))
        assert len(big) > protocol.MAX_QUERIES_PER_FRAME
        # Admission counts queries, so the budget must cover the whole
        # pipelined batch (both wire chunks in flight at once).
        with NetServerThread(
            InProcessClient(frozen), max_inflight=2 * len(big)
        ) as front:
            with NetClient(*front.address) as client:
                assert client.distance_many(big) == frozen.distance_many(big)


class TestMicroBatching:
    def test_concurrent_clients_coalesce(self, frozen, workload):
        with NetServerThread(
            InProcessClient(frozen), max_batch=64, max_wait_us=2000.0
        ) as front:
            expected = frozen.distance_many(workload)
            results = {}

            def drive(slot):
                with NetClient(*front.address) as client:
                    answers = []
                    for query in workload:
                        answers.extend(client.distance_many([query]))
                    results[slot] = answers

            threads = [
                threading.Thread(target=drive, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            report = front.health_report()
        assert all(results[i] == expected for i in range(8))
        batches = report["batch_sizes"]
        # 8 clients × len(workload) single-query requests answered in
        # fewer backend calls than requests: coalescing happened.
        assert batches["batches"] < 8 * len(workload)
        assert batches["mean_size"] > 1.0
        assert report["queries"]["answered"] == 8 * len(workload)

    def test_lone_connection_skips_the_batching_window(self, frozen, workload):
        # With every open connection already in the batch nobody can
        # join it, so a 2 s window is never waited out.
        with NetServerThread(
            InProcessClient(frozen), max_wait_us=2_000_000
        ) as front:
            with NetClient(*front.address) as client:
                for at in range(0, 48, 16):
                    batch = workload[at:at + 16]
                    started = time.monotonic()
                    assert client.distance_many(batch) == (
                        frozen.distance_many(batch)
                    )
                    assert time.monotonic() - started < 0.5

    def test_waits_for_every_open_connection(self, frozen, workload):
        # Two connections, one frame each: the first frame waits for
        # the second (not for the 2 s window), and both are answered
        # by one backend call.
        with NetServerThread(
            InProcessClient(frozen), max_wait_us=2_000_000
        ) as front:
            socks = [raw_connection(front) for _ in range(2)]
            try:
                wait_for_connections(front, 2)
                started = time.monotonic()
                for rid, sock in enumerate(socks):
                    sock.sendall(protocol.encode_query(rid, workload[:16]))
                answers = [read_answers(sock, 1) for sock in socks]
                elapsed = time.monotonic() - started
            finally:
                for sock in socks:
                    sock.close()
            report = front.health_report()
        expected = frozen.distance_many(workload[:16])
        assert answers == [{0: expected}, {1: expected}]
        assert elapsed < 0.5
        assert report["batch_sizes"]["batches"] == 1
        assert report["batch_sizes"]["mean_size"] == 32

    def test_pipelined_frames_from_one_connection_coalesce(
        self, frozen, workload
    ):
        # Frames already queued when the batcher runs join its batch,
        # even though their connection is the only one open.
        with NetServerThread(InProcessClient(frozen)) as front:
            sock = raw_connection(front)
            try:
                sock.sendall(
                    b"".join(
                        protocol.encode_query(rid, workload[rid * 8:rid * 8 + 8])
                        for rid in range(4)
                    )
                )
                answers = read_answers(sock, 4)
            finally:
                sock.close()
            report = front.health_report()
        assert answers == {
            rid: frozen.distance_many(workload[rid * 8:rid * 8 + 8])
            for rid in range(4)
        }
        assert report["batch_sizes"]["mean_size"] > 8

    def test_per_request_dispatch_mode(self, frozen, workload):
        # max_batch=1 disables cross-request coalescing: single-query
        # requests reach the backend one at a time.
        with NetServerThread(InProcessClient(frozen), max_batch=1) as front:
            with NetClient(*front.address) as client:
                for query in workload[:20]:
                    assert client.distance_many([query]) == (
                        frozen.distance_many([query])
                    )
            report = front.health_report()
        assert report["batch_sizes"]["mean_size"] == 1.0


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, frozen):
        release = threading.Event()

        class Gated:
            def distance_many(self, queries):
                release.wait(5.0)
                return frozen.distance_many(queries)

        with NetServerThread(
            InProcessClient(Gated()), max_batch=4, max_inflight=4
        ) as front:
            filler = NetClient(*front.address)
            prober = NetClient(*front.address)
            try:
                # Fill the budget with queries parked behind the gate...
                errors = []

                def fill():
                    try:
                        filler.distance_many([(0, 1, 1.0)] * 4)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                t = threading.Thread(target=fill)
                t.start()
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    if front.server.stats.in_flight >= 4:
                        break
                    time.sleep(0.01)
                # ... the next admission must be refused, typed.
                with pytest.raises(ServerOverloadedError) as excinfo:
                    prober.distance_many([(0, 1, 1.0)])
                assert "in flight" in str(excinfo.value)
                release.set()
                t.join()
                assert not errors
                # The shed shows up in the stats, and nothing vanished.
                snapshot = front.health_report()["queries"]
                assert snapshot["shed"] >= 1
                assert snapshot["admitted"] == snapshot["answered"]
            finally:
                release.set()
                filler.close()
                prober.close()

    def test_recovers_after_shed(self, frozen, workload):
        # A shed connection keeps working for later requests.
        with NetServerThread(
            InProcessClient(frozen), max_inflight=1
        ) as front:
            with NetClient(*front.address) as client:
                subset = workload[:10]
                for query in subset:
                    assert client.distance_many([query]) == (
                        frozen.distance_many([query])
                    )


class TestHealth:
    def test_health_frame(self, client):
        report = client.health()
        assert report["state"] == "ok"
        assert report["transport"] == "net"
        assert report["protocol_version"] == protocol.PROTOCOL_VERSION
        for key in ("queries", "latency", "batch_sizes", "queue_depth"):
            assert key in report
        assert report["backend"]["transport"] == "in-process"

    def test_latency_percentiles_populate(self, frozen, workload):
        client_ms = []
        with NetServerThread(InProcessClient(frozen)) as front:
            with NetClient(*front.address) as client:
                for _ in range(20):
                    started = time.perf_counter()
                    client.distance_many(workload[:50])
                    client_ms.append((time.perf_counter() - started) * 1e3)
                latency = client.health()["latency"]
        assert latency["count"] == len(client_ms)
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert float(latency[key]) >= 0.0
            lo, hi = latency[key[:3] + "_bounds_ms"]
            assert lo <= float(latency[key]) <= float(hi)
        # Each server-side latency lies inside its request's client-side
        # one, so the server's exact nearest-rank p99 is no higher than
        # the client's; it lies in the reported bucket, above its floor.
        assert latency["p99_bounds_ms"][0] <= percentile(sorted(client_ms), 99.0)

    def test_pool_backend_health_travels_over_the_wire(self, frozen):
        with QueryServer(frozen, workers=1) as pool:
            with NetServerThread(PoolClient(pool)) as front:
                with NetClient(*front.address) as client:
                    report = client.health()
        backend = report["backend"]
        assert backend["transport"] == "pool"
        assert backend["alive"] == 1

    def test_hello_carries_server_identity(self, client):
        assert client.server_info["protocol"] == protocol.PROTOCOL_VERSION
        assert client.server_info["server"] == "repro-netserver"


class TestProtocolViolations:
    def _raw(self, front):
        sock = socket.create_connection(front.address, timeout=5.0)
        sock.settimeout(5.0)
        return sock

    def _frames(self, sock):
        decoder = protocol.FrameDecoder()
        frames = []
        try:
            while not frames:
                data = sock.recv(65536)
                if not data:
                    break
                frames.extend(decoder.feed(data))
        except socket.timeout:
            pass
        return frames

    def test_version_mismatch_answered_with_typed_error(self, front):
        with self._raw(front) as sock:
            sock.sendall(
                struct.pack("!HBBI", protocol.MAGIC, 9, protocol.MSG_HELLO, 2)
                + b"{}"
            )
            frames = self._frames(sock)
        assert frames and frames[0].msg_type == protocol.MSG_ERROR
        request_id, code, message = protocol.decode_error(frames[0].payload)
        assert request_id == protocol.CONNECTION_SCOPE
        assert code == protocol.ERR_VERSION
        assert "version 9" in message

    def test_v1_query_answered_with_version_mismatch(self, front):
        # A v1 QUERY: version-1 header, no trace header in the payload.
        payload = struct.pack("!II", 5, 1) + struct.pack("!qqd", 0, 1, 2.0)
        header = struct.pack(
            "!HBBI", protocol.MAGIC, 1, protocol.MSG_QUERY, len(payload)
        )
        with self._raw(front) as sock:
            sock.sendall(header + payload)
            frames = self._frames(sock)
        assert frames and frames[0].msg_type == protocol.MSG_ERROR
        request_id, code, message = protocol.decode_error(frames[0].payload)
        assert request_id == protocol.CONNECTION_SCOPE
        assert code == protocol.ERR_VERSION
        assert "version 1" in message

    def test_garbage_bytes_answered_with_typed_error(self, front):
        with self._raw(front) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            frames = self._frames(sock)
        assert frames and frames[0].msg_type == protocol.MSG_ERROR
        _, code, _ = protocol.decode_error(frames[0].payload)
        assert code == protocol.ERR_MALFORMED

    def test_hostile_declared_size_refused(self, front):
        header = struct.pack(
            "!HBBI",
            protocol.MAGIC,
            protocol.PROTOCOL_VERSION,
            protocol.MSG_QUERY,
            protocol.MAX_PAYLOAD_BYTES + 1,
        )
        with self._raw(front) as sock:
            sock.sendall(header)
            frames = self._frames(sock)
        assert frames and frames[0].msg_type == protocol.MSG_ERROR
        _, code, _ = protocol.decode_error(frames[0].payload)
        assert code == protocol.ERR_TOO_LARGE

    def test_malformed_query_payload_fails_that_request_only(self, front):
        # A QUERY frame whose declared count disagrees with its bytes:
        # the request id is still recoverable, so the refusal is
        # request-scoped and the connection survives.
        bad_payload = struct.pack("!II", 42, 5) + struct.pack("!qqd", 0, 1, 2.0)
        with self._raw(front) as sock:
            sock.sendall(
                protocol.encode_frame(protocol.MSG_QUERY, bad_payload)
            )
            frames = self._frames(sock)
            request_id, code, _ = protocol.decode_error(frames[0].payload)
            assert request_id == 42
            assert code == protocol.ERR_MALFORMED
            # Connection still answers a well-formed request.
            sock.sendall(protocol.encode_query(43, [(0, 1, 2.0)]))
            frames = self._frames(sock)
        assert frames and frames[0].msg_type == protocol.MSG_ANSWER
        assert protocol.decode_answer(frames[0].payload)[0] == 43


class TestShutdown:
    def test_shutdown_fails_parked_requests_with_typed_error(self, frozen):
        release = threading.Event()

        class Gated:
            def distance_many(self, queries):
                release.wait(5.0)
                return frozen.distance_many(queries)

        front = NetServerThread(InProcessClient(Gated()), max_batch=1)
        front.start()
        client = NetClient(*front.address, timeout=10.0)
        outcome = []

        def drive():
            try:
                outcome.append(client.distance_many([(0, 1, 1.0)] * 2))
            except Exception as exc:  # noqa: BLE001
                outcome.append(exc)

        t = threading.Thread(target=drive)
        t.start()
        deadline = time.time() + 5.0
        while time.time() < deadline and front.server.stats.in_flight < 2:
            time.sleep(0.01)
        try:
            # Stop with requests still parked: each must come back as a
            # typed error (or, for the one already executing when the
            # gate lifts, an answer) — never a silent drop.
            release.set()
            front.stop()
            t.join(timeout=10.0)
            assert outcome, "request vanished at shutdown"
            result = outcome[0]
            assert isinstance(result, (list, ServeError, OSError))
        finally:
            release.set()
            client.close()

    def test_stop_is_idempotent_and_frees_the_port(self, frozen):
        front = NetServerThread(InProcessClient(frozen))
        host, port = front.start()
        front.stop()
        front.stop()
        # The port is released: a fresh server can bind it.
        probe = socket.socket()
        try:
            probe.bind((host, port))
        finally:
            probe.close()

    def test_server_refuses_after_stop(self, frozen):
        front = NetServerThread(InProcessClient(frozen))
        front.start()
        address = front.address
        front.stop()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5).close()


class TestNetServerValidation:
    def test_rejects_bad_options(self, frozen):
        backend = InProcessClient(frozen)
        with pytest.raises(ValueError):
            NetServer(backend, max_batch=0)
        with pytest.raises(ValueError):
            NetServer(backend, max_wait_us=-1.0)
        with pytest.raises(ValueError):
            NetServer(backend, max_inflight=0)

    def test_startup_error_surfaces_in_start(self, frozen):
        # Binding a port that is already taken must raise in start(),
        # in the caller's thread.
        with NetServerThread(InProcessClient(frozen)) as front:
            host, port = front.address
            clash = NetServerThread(
                InProcessClient(frozen), host=host, port=port
            )
            with pytest.raises(OSError):
                clash.start()
