"""Serving a WC-INDEX over TCP: the network front door end to end.

Builds a small index, puts the asyncio :class:`NetServerThread` in
front of it, and drives it with :class:`NetClient` — the same
`QueryClient` interface as the in-process and shared-memory-pool
transports, bit-identical answers included.  Finishes with a short
closed-loop load run and the server's health report.

Run with::

    python examples/network_serving.py
"""

from repro import build_wc_index_plus
from repro.bench import closed_loop
from repro.graph.generators import scale_free_network
from repro.serve import (
    InProcessClient,
    NetClient,
    NetServerThread,
    ServerOverloadedError,
)
from repro.workloads.queries import random_queries


def main() -> None:
    # Any engine works behind the front door: a list index, a frozen
    # image, an mmap attach, or a whole QueryServer pool (PoolClient).
    network = scale_free_network(200, 3, num_qualities=5, seed=7)
    frozen = build_wc_index_plus(network).freeze()
    print(f"engine: {frozen}")

    # NetServerThread runs the asyncio server on a private event loop in
    # a daemon thread; port 0 asks the OS for a free port.  Queries from
    # all connections coalesce into micro-batches of up to max_batch,
    # flushed after at most max_wait_us microseconds; past max_inflight
    # queries the admission controller sheds with a typed error instead
    # of queueing without bound.
    front = NetServerThread(
        InProcessClient(frozen),
        host="127.0.0.1",
        port=0,
        max_batch=64,
        max_wait_us=200,
        max_inflight=4096,
    )
    host, port = front.start()
    print(f"serving on {host}:{port}")

    try:
        with NetClient(host, port) as client:
            # The HELLO handshake reports the server's limits up front.
            print(f"server says: {client.server_info}")

            # Same interface as every other transport — and the answers
            # are bit-identical to calling the engine directly.
            workload = list(random_queries(network, 100, seed=3))
            over_the_wire = client.distance_many(workload)
            assert over_the_wire == frozen.distance_many(workload)
            d = client.distance(0, 42, 2.0)
            print(f"dist(v0, v42 | quality >= 2) = {d:g}")

            # Even failures match: a malformed query raises the
            # engine's own ValueError with the identical message.
            try:
                client.distance(0, 10**9, 1.0)
            except ValueError as exc:
                print(f"rejected as expected: {exc}")

            # An admission refusal is typed, never a silent drop:
            try:
                client.distance_many(workload * 100)  # 10k queries at once
            except ServerOverloadedError as exc:
                print(f"shed as expected: {exc}")

        # A short closed-loop run: 8 clients, each its own connection,
        # back-to-back requests (the CLI equivalent is
        # `python -m repro loadgen --connect HOST:PORT --clients 8 ...`).
        report = closed_loop(
            lambda: NetClient(host, port),
            workload,
            clients=8,
            duration_s=1.0,
        )
        print(report.format())

        # The server's own view: percentiles since start, queue depth
        # and the batch-size histogram showing the coalescing at work.
        health = front.health_report()
        print(
            f"server health: state={health['state']} "
            f"p99={health['latency']['p99_ms']:.2f}ms "
            f"mean_batch={health['batch_sizes']['mean_size']:.1f}"
        )
    finally:
        front.stop()
    print("server stopped")


if __name__ == "__main__":
    main()
