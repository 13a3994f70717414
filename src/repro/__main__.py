"""Command-line interface: ``python -m repro``.

Subcommands:

* ``build``   — build a WC-INDEX from an edge-list file and save it as a
  ``.wcxb`` v3 image, the one index file format (``--directed`` /
  ``--weighted`` build the Section V extension indexes; the image's
  variant tag records the family).  Every command that reads an index
  recognises the image by its magic bytes, whatever the file is named,
  and exits with a clean error on any other file.
* ``query``   — answer ``s t w`` queries (arguments or stdin) from a saved
  index; ``--engine {frozen,mmap}`` picks the storage behind the frozen
  engine of whatever family the image holds (owned arrays read from the
  file, or zero-copy views over an mmap of it); ``--kernel
  {auto,stdlib,numpy}`` picks the batch kernel backend (also on
  ``serve``).
* ``serve``   — answer the same queries through a shared-memory
  multi-process worker pool (``--workers``): one frozen image published
  in ``multiprocessing.shared_memory``, N processes answering batches
  over it.  ``--listen HOST:PORT`` puts the asyncio TCP front door in
  front of the pool instead (binary frames, micro-batching, admission
  control) and runs until SIGINT/SIGTERM.
* ``loadgen`` — drive a running ``serve --listen`` with closed-loop or
  open-loop (Poisson) traffic and report throughput, latency
  percentiles and the shed/failed disposition; ``--server-stats``
  also scrapes the server's metrics around the run for the client- vs
  server-observed latency comparison.
* ``top``     — live dashboard over a running ``serve --listen``: scrape
  the ``STATS`` frame every ``--interval`` seconds and render qps,
  latency percentiles, cache hit rate, worker liveness and recent slow
  queries (``--once`` for one scrape; ``--format
  {dashboard,json,prometheus}`` for scripts and scrapers).
* ``trace``   — force-sample one request through a running server and
  pretty-print its span tree (queue-wait, batch-coalesce, kernel,
  serialize), or ``--last N`` to print the server's most recent
  sampled traces.
* ``update``  — apply an edge-mutation file to a saved ``.wcxb`` index:
  journal the updates against the graph, incrementally refreeze only
  the dirty vertices, and write the image back (in-place byte-range
  patch, appended delta blob, or full rewrite).  ``--pool N`` serves
  the queries through a worker pool across the epoch swap (old
  generation before the updates, new generation after).
* ``profile`` — print the full quality/distance Pareto staircase of a pair.
* ``stats``   — index statistics (entries, max label, modelled bytes, the
  real frozen footprint, format version and per-section byte sizes; a
  v1/v2 image fails with a format error).
* ``verify``  — check a saved index against its graph (small graphs).

Example::

    python -m repro build --graph net.edges --out net.wcxb --ordering hybrid
    python -m repro build --graph roads.arcs --directed --out roads.wcxb
    python -m repro query --engine frozen --index net.wcxb 0 42 3.0
    echo "0 42 3.0" | python -m repro query --index net.wcxb -
    echo "0 42 3.0" | python -m repro serve --index net.wcxb --workers 4 -
    python -m repro serve --index net.wcxb --listen 127.0.0.1:7071
    echo "0 42 3.0" | python -m repro loadgen --connect 127.0.0.1:7071 -
    python -m repro update --index net.wcxb --graph net.edges --updates ops.txt
"""

from __future__ import annotations

import argparse
import sys
import time

from .core.construction import WCIndexBuilder
from .core.directed import DirectedWCIndex
from .core.kernels import (
    BACKEND_CHOICES,
    KernelUnavailableError,
    resolve_backend,
)
from .core.labels import WCIndex
from .core.profile import distance_profile
from .core.serialize import IndexFormatError, load_frozen, save_frozen
from .core.validation import verify_index
from .core.weighted import WeightedWCIndex
from .graph.io import (
    read_directed_edge_list,
    read_edge_list,
    read_weighted_edge_list,
)


def _resolve_kernel(spec, command: str) -> str:
    """Resolve a ``--kernel`` choice to a concrete backend name, turning
    an explicitly requested but unavailable backend into a clean exit
    (never a silent fallback)."""
    try:
        return resolve_backend(spec).name
    except KernelUnavailableError as exc:
        raise SystemExit(f"{command}: {exc}") from None


def _build_graph(args):
    """Materialize the build substrate: an edge list or a named dataset,
    in the family the flags select."""
    if args.dataset is not None:
        from .workloads import datasets as ds

        if args.directed:
            return ds.load_directed(args.dataset)
        if args.weighted:
            return ds.load_weighted(args.dataset)
        return ds.load(args.dataset)
    if args.directed:
        return read_directed_edge_list(args.graph)
    if args.weighted:
        return read_weighted_edge_list(args.graph)
    return read_edge_list(args.graph)


def _cmd_build(args) -> int:
    if (args.graph is None) == (args.dataset is None):
        raise SystemExit("build: give exactly one of --graph or --dataset")
    if args.directed and args.weighted:
        raise SystemExit("build: --directed and --weighted are exclusive")
    graph = _build_graph(args)
    started = time.perf_counter()
    if args.directed:
        index = DirectedWCIndex(graph, track_parents=args.paths)
    elif args.weighted:
        index = WeightedWCIndex(graph, track_parents=args.paths)
    else:
        builder = WCIndexBuilder(
            graph,
            args.ordering,
            query_kernel=args.kernel,
            track_parents=args.paths,
        )
        index = builder.build()
    index = index.freeze()
    elapsed = time.perf_counter() - started
    save_frozen(index, args.out)
    print(
        f"built {index.entry_count()} entries over {graph.num_vertices} "
        f"vertices in {elapsed:.2f}s -> {args.out}"
    )
    return 0


def _parse_query_line(text: str):
    parts = text.split()
    if len(parts) != 3:
        raise ValueError(f"expected 's t w', got {text!r}")
    return int(parts[0]), int(parts[1]), float(parts[2])


def _read_queries(args):
    if args.query == ["-"]:
        lines = [line for line in sys.stdin if line.strip()]
    else:
        lines = [" ".join(args.query)]
    return [_parse_query_line(line) for line in lines]


def _read_workload(args):
    """Like :func:`_read_queries`, but positional args may carry a whole
    workload mix — any multiple of three tokens, one query per triple."""
    if args.query == ["-"]:
        lines = [line for line in sys.stdin if line.strip()]
        return [_parse_query_line(line) for line in lines]
    tokens = args.query
    if len(tokens) % 3 != 0:
        raise ValueError(
            f"expected 's t w' triples, got {len(tokens)} token(s): "
            f"{' '.join(tokens)!r}"
        )
    return [
        _parse_query_line(" ".join(tokens[at:at + 3]))
        for at in range(0, len(tokens), 3)
    ]


def _print_answers(queries, answers) -> None:
    for (s, t, w), dist in zip(queries, answers):
        rendered = "INF" if dist == float("inf") else f"{dist:g}"
        print(f"{s} {t} {w:g} -> {rendered}")


def _add_cache_flags(parser) -> None:
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=65536,
        metavar="N",
        help="answer-cache capacity: a sharded LRU keyed on "
        "quality-bucket-quantized queries, invalidated precisely from "
        "the update journal (0 disables; default 65536)",
    )


def _cache_for(path: str, entries: int):
    """An :class:`~repro.serve.cache.AnswerCache` keyed from the image
    at ``path`` (the keyer needs label access the shm pool does not
    expose, so the image is read-loaded here)."""
    from .serve import AnswerCache

    return AnswerCache(load_frozen(path), entries=entries)


def _cmd_query(args) -> int:
    from . import open_index

    kernel = _resolve_kernel(args.kernel, "query")
    mode = "mmap" if args.engine == "mmap" else "read"
    index = open_index(args.index, mode=mode, backend=kernel)
    # Batch through distance_many so stdin workloads hit the engines'
    # batch hot path (the frozen engine's hash-intersection merge).
    queries = _read_queries(args)
    entries = args.cache_entries
    if entries:
        from .serve import AnswerCache, CachingClient, InProcessClient

        client = CachingClient(
            InProcessClient(index), AnswerCache(index, entries=entries)
        )
        _print_answers(queries, client.distance_many(queries))
    else:
        _print_answers(queries, index.distance_many(queries))
    return 0


def _parse_hostport(spec: str, command: str):
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"{command}: expected HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def _serve_listen(args, kernel: str) -> int:
    """``serve --listen``: the asyncio TCP front door over the pool.

    Runs until SIGINT/SIGTERM, then shuts down cleanly and prints the
    final stats snapshot (admissions, sheds, latency percentiles).
    """
    import signal
    import threading

    from .obs import JsonlExporter, Telemetry
    from .serve import CachingClient, NetServerThread, PoolClient, QueryServer
    from .serve.net import (
        DEFAULT_MAX_BATCH,
        DEFAULT_MAX_INFLIGHT,
        DEFAULT_MAX_WAIT_US,
    )

    host, port = _parse_hostport(args.listen, "serve")
    telemetry = Telemetry(
        sample_every=args.trace_sample,
        slow_ms=args.slow_ms if args.slow_ms > 0 else None,
    )
    exporter = None
    if args.metrics_jsonl:
        exporter = JsonlExporter(
            telemetry.registry,
            args.metrics_jsonl,
            interval_s=args.metrics_interval,
        )
    max_batch = (
        args.max_batch if args.max_batch is not None else DEFAULT_MAX_BATCH
    )
    max_wait_us = (
        args.max_wait_us
        if args.max_wait_us is not None
        else DEFAULT_MAX_WAIT_US
    )
    max_inflight = (
        args.max_inflight
        if args.max_inflight is not None
        else DEFAULT_MAX_INFLIGHT
    )
    supervisor_options = None
    if args.max_restarts is not None:
        supervisor_options = {"max_restarts": args.max_restarts}
    with QueryServer(
        args.index,
        workers=args.workers,
        supervise=args.supervise,
        supervisor_options=supervisor_options,
        fallback=args.fallback,
        kernel=kernel,
    ) as server:
        backend = PoolClient(
            server, timeout=args.query_timeout, retries=args.retries
        )
        cache_entries = args.cache_entries
        if cache_entries:
            # Attaching the cache to the server wires swap_image
            # invalidation; the wrapper puts it in front of the pool.
            cache = server.attach_cache(_cache_for(args.index, cache_entries))
            backend = CachingClient(backend, cache)
        with NetServerThread(
            backend,
            host=host,
            port=port,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            max_inflight=max_inflight,
            telemetry=telemetry,
        ) as front:
            bound_host, bound_port = front.address
            # The parse-friendly readiness line scripts wait for.
            print(f"listening on {bound_host}:{bound_port}", flush=True)
            print(
                f"serving {args.index} over TCP "
                f"({server.num_workers} workers, {server.kernel_backend} "
                f"kernel, max_batch={max_batch}, "
                f"max_wait_us={max_wait_us:g}, "
                f"max_inflight={max_inflight}, "
                + (
                    f"cache={cache_entries} entries, "
                    if cache_entries
                    else "cache off, "
                )
                + (
                    f"tracing 1/{args.trace_sample})"
                    if args.trace_sample
                    else "tracing off)"
                ),
                file=sys.stderr,
            )
            if exporter is not None:
                exporter.start()
            done = threading.Event()
            previous = {
                sig: signal.signal(sig, lambda *_: done.set())
                for sig in (signal.SIGINT, signal.SIGTERM)
            }
            try:
                done.wait()
            finally:
                for sig, handler in previous.items():
                    signal.signal(sig, handler)
                if exporter is not None:
                    exporter.stop()
            report = front.health_report()
    queries = report["queries"]
    latency = report["latency"]
    print(
        f"served {queries['answered']} queries "
        f"({queries['shed']} shed, {queries['failed']} failed); "
        f"latency p50={latency['p50_ms']:.3f}ms "
        f"p95={latency['p95_ms']:.3f}ms p99={latency['p99_ms']:.3f}ms",
        file=sys.stderr,
    )
    print("shutdown complete", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import os
    import signal
    import time

    from .serve import FaultPlan, QueryServer, recover_segments

    # Sweep generations orphaned by crashed publishers before creating
    # our own — safe unconditionally, a live publisher's segments carry
    # a live pid.
    swept = recover_segments()
    if swept:
        print(
            f"recovered {len(swept)} orphaned shared-memory "
            f"segment(s): {', '.join(swept)}",
            file=sys.stderr,
        )
    kernel = _resolve_kernel(args.kernel, "serve")
    if args.listen is not None:
        if args.query:
            raise SystemExit(
                "serve: --listen runs until interrupted; drive queries "
                "over the network with 'python -m repro loadgen'"
            )
        if args.chaos_kill:
            raise SystemExit("serve: --chaos-kill does not combine with --listen")
        return _serve_listen(args, kernel)
    if not args.query:
        raise SystemExit(
            "serve: queries required ('s t w' or '-') unless --listen"
        )
    queries = _read_queries(args)
    supervisor_options = None
    if args.max_restarts is not None:
        supervisor_options = {"max_restarts": args.max_restarts}
    fault_plan = None
    if args.chaos_kill:
        # The deterministic kill-respawn self-test: worker 0 dies after
        # two jobs of every life; supervised, the workload must still
        # answer every round.
        fault_plan = FaultPlan(kill_after={0: 2})
    with QueryServer(
        args.index,
        workers=args.workers,
        supervise=args.supervise or args.chaos_kill,
        supervisor_options=supervisor_options,
        fallback=args.fallback,
        fault_plan=fault_plan,
        kernel=kernel,
    ) as server:
        print(
            f"serving {args.index} from shared memory "
            f"({server.image_bytes} bytes, {server.num_workers} workers, "
            f"{server.kernel_backend} kernel"
            + (", supervised" if server.supervisor else "")
            + ")",
            file=sys.stderr,
        )
        # The chaos self-test must drive the pool itself every round —
        # a cache would answer the replays locally and prove nothing
        # about the respawn — so caching only arms the plain path.
        cache_entries = 0 if args.chaos_kill else args.cache_entries
        if cache_entries:
            from .serve import CachingClient, PoolClient

            cache = server.attach_cache(_cache_for(args.index, cache_entries))
            client = CachingClient(
                PoolClient(
                    server,
                    timeout=args.query_timeout,
                    retries=args.retries,
                ),
                cache,
            )

            def answer_batch():
                return client.distance_many(queries)

        else:

            def answer_batch():
                return server.query_batch(
                    queries, timeout=args.query_timeout, retries=args.retries
                )

        if args.chaos_kill:
            expected = answer_batch()
            pid = server.worker_states()[0]["pid"]
            os.kill(pid, signal.SIGKILL)
            time.sleep(0.05)
        answers = None
        for _round in range(max(1, args.rounds)):
            answers = answer_batch()
            if args.chaos_kill and answers != expected:
                print("serve: answers diverged after respawn", file=sys.stderr)
                return 1
        health = server.health()
        print(
            f"pool {health['state']}: {health['alive']}/{server.num_workers} "
            f"workers alive, {health['restarts']} restart(s)",
            file=sys.stderr,
        )
        if args.chaos_kill and health["restarts"] < 1:
            print("serve: expected at least one respawn", file=sys.stderr)
            return 1
    _print_answers(queries, answers)
    return 0


def _cmd_loadgen(args) -> int:
    from .bench.loadgen import closed_loop, open_loop
    from .serve import NetClient

    host, port = _parse_hostport(args.connect, "loadgen")
    try:
        queries = _read_workload(args)
    except ValueError as exc:
        raise SystemExit(f"loadgen: {exc}")
    if args.zipf is not None:
        from .workloads import zipf_mix

        queries = list(
            zipf_mix(
                queries,
                args.zipf_count,
                skew=args.zipf,
                seed=args.zipf_seed,
            )
        )
        if not queries:
            raise SystemExit("loadgen: --zipf resampled an empty mix")

    def client_factory():
        return NetClient(host, port, timeout=args.timeout)

    # Probe the server up front so a wrong address is one clean error,
    # not one per generator thread.
    try:
        client_factory().close()
    except OSError as exc:
        raise SystemExit(f"loadgen: cannot connect to {args.connect}: {exc}")

    server_snapshot = None
    if args.server_stats:

        def server_snapshot():
            with client_factory() as client:
                return client.stats()

    if args.mode == "open":
        if args.rate is None:
            raise SystemExit("loadgen: --mode open requires --rate")
        report = open_loop(
            client_factory,
            queries,
            rate_qps=args.rate,
            duration_s=args.duration,
            clients=args.clients,
            max_outstanding=args.max_outstanding,
            server_snapshot=server_snapshot,
        )
    else:
        report = closed_loop(
            client_factory,
            queries,
            clients=args.clients,
            duration_s=args.duration,
            batch=args.batch,
            server_snapshot=server_snapshot,
        )
    print(report.format())
    return 0


def _cmd_top(args) -> int:
    import json

    from .obs.top import render_dashboard
    from .serve import NetClient

    host, port = _parse_hostport(args.address, "top")
    try:
        client = NetClient(host, port, timeout=args.timeout)
    except OSError as exc:
        raise SystemExit(f"top: cannot connect to {args.address}: {exc}")
    prev = None
    prev_at = None
    with client:
        try:
            while True:
                if args.format == "prometheus":
                    print(client.stats(prometheus=True), end="", flush=True)
                else:
                    report = client.stats()
                    now = time.monotonic()
                    if args.format == "json":
                        print(json.dumps(report, sort_keys=True), flush=True)
                    else:
                        elapsed = now - prev_at if prev_at is not None else 0.0
                        text = render_dashboard(report, prev, elapsed)
                        if not args.once:
                            # Clear + home, like top(1); --once stays pipable.
                            print("\x1b[2J\x1b[H", end="")
                        print(text, flush=True)
                    prev, prev_at = report, now
                if args.once:
                    return 0
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_trace(args) -> int:
    from .obs.trace import format_trace
    from .serve import NetClient

    host, port = _parse_hostport(args.address, "trace")
    if not args.query and args.last is None:
        raise SystemExit(
            "trace: give 's t w' queries to sample, or --last N for the "
            "server's most recent sampled traces"
        )
    try:
        queries = _read_workload(args) if args.query else []
    except ValueError as exc:
        raise SystemExit(f"trace: {exc}")
    try:
        client = NetClient(host, port, timeout=args.timeout)
    except OSError as exc:
        raise SystemExit(f"trace: cannot connect to {args.address}: {exc}")
    with client:
        if not queries:
            report = client.stats()
            rows = report.get("recent_traces", [])[-args.last:]
            if not rows:
                print("no sampled traces buffered yet", file=sys.stderr)
                return 1
            for payload in rows:
                print(format_trace(payload))
            return 0
        _, trace_ids = client.distance_many_sampled(queries)
        # The answer frame lands a hair before the trace is sealed into
        # the ring; poll the STATS frame briefly.
        pending = set(trace_ids)
        found = {}
        deadline = time.monotonic() + 5.0
        while pending and time.monotonic() < deadline:
            report = client.stats()
            for payload in report.get("recent_traces", []):
                if payload.get("trace_id") in pending:
                    found[payload["trace_id"]] = payload
                    pending.discard(payload["trace_id"])
            if pending:
                time.sleep(0.02)
    for trace_id in trace_ids:
        payload = found.get(trace_id)
        if payload is None:
            print(
                f"trace {trace_id:#x} never reached the ring (evicted?)",
                file=sys.stderr,
            )
            continue
        print(format_trace(payload))
    return 0 if not pending else 1


def _graph_for_engine(engine, path: str):
    """Read the edge-list file in the family the loaded engine names."""
    from .core.frozen import FrozenDirectedWCIndex, FrozenWeightedWCIndex

    if isinstance(engine, FrozenDirectedWCIndex):
        return read_directed_edge_list(path)
    if isinstance(engine, FrozenWeightedWCIndex):
        return read_weighted_edge_list(path)
    return read_edge_list(path)


def _apply_mutations(live, mutations):
    """Apply the batch (one rebuild for the rebuild-based families)
    with readable error reporting."""
    try:
        live.apply(mutations)
    except KeyError as exc:
        raise SystemExit(f"update: {exc.args[0]}") from None
    except ValueError as exc:
        raise SystemExit(f"update: bad mutation batch: {exc}") from None
    return live.journal.dirty_vertices()


def _write_graph_back(graph, path: str) -> None:
    """Persist the mutated graph in its family's edge-list format."""
    from .graph.digraph import DiGraph
    from .graph.io import (
        write_directed_edge_list,
        write_edge_list,
        write_weighted_edge_list,
    )
    from .graph.weighted import WeightedGraph

    if isinstance(graph, DiGraph):
        write_directed_edge_list(graph, path)
    elif isinstance(graph, WeightedGraph):
        write_weighted_edge_list(graph, path)
    else:
        write_edge_list(graph, path)


def _cmd_update(args) -> int:
    from .live import apply_image_update, live_index, read_mutations, refreeze

    if args.pool and not args.query:
        raise SystemExit("update: --pool needs queries ('s t w' or '-')")
    if args.query and not args.pool:
        raise SystemExit("update: queries require --pool")
    old_frozen = load_frozen(args.index)
    graph = _graph_for_engine(old_frozen, args.graph)
    live = live_index(graph, index=old_frozen.thaw())
    mutations = read_mutations(args.updates)
    out = args.out if args.out is not None else args.index

    def write_image_and_graph():
        mode, bytes_written = apply_image_update(
            result, dirty, out, args.mode, source=args.index
        )
        # An in-place update must keep the graph file in step with the
        # image — immediately, before anything else can fail: the next
        # update's rebuild paths reconstitute the graph from it, and a
        # stale file would silently revert this batch.
        note = ""
        if out == args.index and not args.keep_graph:
            _write_graph_back(live.graph, args.graph)
            note = f", graph written back to {args.graph}"
        return mode, bytes_written, note

    before = after = None
    if args.pool:
        from .serve import QueryServer

        queries = _read_queries(args)
        # old_frozen was just read and validated; publish it directly
        # instead of re-reading and re-validating the file.
        with QueryServer(old_frozen, workers=args.pool) as server:
            before = server.query_batch(queries)
            dirty = _apply_mutations(live, mutations)
            result = refreeze(old_frozen, live.index, dirty)
            mode, bytes_written, graph_note = write_image_and_graph()
            server.swap_image(result.engine, validate=False)
            after = server.query_batch(queries)
    else:
        dirty = _apply_mutations(live, mutations)
        result = refreeze(old_frozen, live.index, dirty)
        mode, bytes_written, graph_note = write_image_and_graph()

    n = live.num_vertices
    fraction = len(dirty) / n if n else 0.0
    print(
        f"applied {len(mutations)} updates: {len(dirty)} dirty vertices "
        f"({fraction:.1%}), {'incremental' if result.incremental else 'full'}"
        f" refreeze, {mode} wrote {bytes_written} bytes -> {out}"
        f"{graph_note}",
        file=sys.stderr,
    )
    if before is not None:
        print("# epoch 0 (before update)")
        _print_answers(queries, before)
        print("# epoch 1 (after update)")
        _print_answers(queries, after)
    return 0


def _cmd_profile(args) -> int:
    index = load_frozen(args.index).thaw()
    if isinstance(index, WeightedWCIndex):
        raise SystemExit(
            "profile: quality/distance profiles are not supported for "
            "weighted indexes"
        )
    if isinstance(index, DirectedWCIndex):
        profile = index.distance_profile(args.s, args.t)
    else:
        profile = distance_profile(index, args.s, args.t)
    if not profile:
        print(f"{args.s} and {args.t} are disconnected at every threshold")
        return 0
    print(f"quality/distance profile of ({args.s}, {args.t}):")
    for quality, dist in profile:
        q = "inf" if quality == float("inf") else f"{quality:g}"
        print(f"  w <= {q:>6}: dist {dist:g}")
    return 0


def _cmd_stats(args) -> int:
    from .core.labels import BYTES_PER_ENTRY
    from .core.serialize import describe_frozen

    from . import open_index

    # Reported straight from the frozen engine — no thaw, so stats on a
    # large serving index stays as cheap as loading it.
    index = open_index(args.index)
    described = describe_frozen(args.index)
    print(f"engine:          {type(index).__name__}")
    print(
        f"format:          wcxb v{described['format_version']} "
        f"({described['variant']})"
    )
    print(
        f"kernel backend:  {index.kernel_backend} "
        f"(available: {', '.join(described['kernel_backends'])})"
    )
    print(f"vertices:        {index.num_vertices}")
    print(f"entries:         {index.entry_count()}")
    print(f"max label size:  {index.max_label_size()}")
    if index.num_vertices:
        print(f"avg label size:  {index.entry_count() / index.num_vertices:.2f}")
    print(f"modelled bytes:  {BYTES_PER_ENTRY * index.entry_count()}")
    print(f"frozen bytes:    {index.nbytes()}")
    print(f"image bytes:     {described['total_bytes']}")
    print(f"tracks parents:  {index.tracks_parents}")
    print("sections:")
    for section in described["sections"]:
        print(
            f"  {section['name']:<15} {section['nbytes']:>10} bytes "
            f"at {section['offset']}"
        )
    for delta in described["deltas"]:
        print(
            f"  delta ({delta['num_dirty']} dirty) "
            f"{delta['nbytes']:>10} bytes at {delta['offset']}"
        )
    return 0


def _cmd_verify(args) -> int:
    graph = read_edge_list(args.graph)
    index = load_frozen(args.index).thaw()
    if not isinstance(index, WCIndex):
        raise SystemExit(
            f"verify: only undirected indexes are supported, "
            f"{args.index} holds a {type(index).__name__}"
        )
    report = verify_index(index, graph)
    for key, violations in report.details.items():
        status = "ok" if not violations else f"{len(violations)} violations"
        print(f"{key:<26} {status}")
    print("VERDICT:", "OK" if report.ok else "BROKEN")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Quality constrained shortest distance queries (WC-INDEX)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build and save a WC-INDEX")
    p_build.add_argument("--graph", help="edge-list file")
    p_build.add_argument(
        "--dataset",
        help="a synthetic suite dataset name (e.g. CAL, EU) instead of a file; "
        "scaled by REPRO_SCALE",
    )
    p_build.add_argument(
        "--out", required=True, help="output .wcxb image path"
    )
    p_build.add_argument(
        "--ordering",
        default="hybrid",
        choices=["degree", "treedec", "hybrid", "identity", "random"],
    )
    p_build.add_argument(
        "--kernel", default="linear", choices=["naive", "binary", "linear"]
    )
    p_build.add_argument(
        "--paths", action="store_true", help="track parents for path queries"
    )
    p_build.add_argument(
        "--directed",
        action="store_true",
        help="build a DirectedWCIndex over 'u v quality' arcs "
        "(--ordering/--kernel apply to undirected builds only)",
    )
    p_build.add_argument(
        "--weighted",
        action="store_true",
        help="build a WeightedWCIndex over 'u v length quality' edges "
        "(--ordering/--kernel apply to undirected builds only)",
    )
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser("query", help="answer s t w queries")
    p_query.add_argument("--index", required=True)
    p_query.add_argument(
        "--engine",
        default="frozen",
        choices=["frozen", "mmap"],
        help="storage behind the frozen engine: arrays read from the "
        "image (frozen), or zero-copy views over an mmap of it (mmap)",
    )
    p_query.add_argument(
        "--kernel",
        default="auto",
        choices=list(BACKEND_CHOICES),
        help="batch kernel backend: auto picks numpy when installed, "
        "else the pure-Python stdlib backend; an explicit unavailable "
        "choice fails fast",
    )
    _add_cache_flags(p_query)
    p_query.add_argument(
        "query",
        nargs="+",
        help="either 's t w' or '-' to read queries from stdin",
    )
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="answer queries through a shared-memory multi-process pool",
    )
    p_serve.add_argument("--index", required=True)
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes attached to the shared image (default 2)",
    )
    p_serve.add_argument(
        "--supervise",
        action="store_true",
        help="respawn dead workers (exponential backoff, restart-rate "
        "circuit breaker)",
    )
    p_serve.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        help="circuit breaker: respawns allowed inside the restart "
        "window before the supervisor degrades (default 5/30s)",
    )
    p_serve.add_argument(
        "--query-timeout",
        type=float,
        default=None,
        help="per-chunk deadline in seconds; timed-out chunks reroute "
        "to another worker (default: no deadline)",
    )
    p_serve.add_argument(
        "--retries",
        type=int,
        default=None,
        help="redispatches allowed per chunk after a worker death or "
        "deadline miss (default 2)",
    )
    p_serve.add_argument(
        "--fallback",
        action="store_true",
        help="answer in-process off the shared image when the pool "
        "cannot (graceful degradation instead of typed errors)",
    )
    p_serve.add_argument(
        "--chaos-kill",
        action="store_true",
        help="self-test: SIGKILL a worker mid-workload and assert the "
        "supervised pool recovers with identical answers (implies "
        "--supervise)",
    )
    p_serve.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="times the workload is replayed (chaos runs use >1 to "
        "cross respawns; default 1)",
    )
    p_serve.add_argument(
        "--kernel",
        default="auto",
        choices=list(BACKEND_CHOICES),
        help="batch kernel backend pinned into every worker and the "
        "fallback engine: auto picks numpy when installed, else the "
        "pure-Python stdlib backend; an explicit unavailable choice "
        "fails fast",
    )
    p_serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve over TCP instead of answering the positional "
        "queries: bind the asyncio front door (length-prefixed binary "
        "frames, micro-batching, admission control) and run until "
        "SIGINT/SIGTERM (port 0 picks a free port; the bound address "
        "is printed as 'listening on HOST:PORT')",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="--listen: queries coalesced into one pool batch before "
        "the window flushes (default 128)",
    )
    p_serve.add_argument(
        "--max-wait-us",
        type=float,
        default=None,
        help="--listen: micro-batching window in microseconds — how "
        "long an admitted query waits for company (default 500)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="--listen: admission budget; queries beyond this many "
        "in flight are shed with typed overload errors (default 8192)",
    )
    p_serve.add_argument(
        "--trace-sample",
        type=int,
        default=64,
        metavar="N",
        help="--listen: sample every Nth request for a full span trace "
        "(0 disables sampling; clients can still force one per request "
        "with the wire flag; default 64)",
    )
    p_serve.add_argument(
        "--slow-ms",
        type=float,
        default=50.0,
        help="--listen: slow-query threshold in milliseconds — requests "
        "over it land in the slow-query log even when unsampled "
        "(0 disables the log; default 50)",
    )
    p_serve.add_argument(
        "--metrics-jsonl",
        default=None,
        metavar="PATH",
        help="--listen: append periodic metrics snapshots to this JSONL "
        "file (one timestamped object per line; default off)",
    )
    p_serve.add_argument(
        "--metrics-interval",
        type=float,
        default=10.0,
        help="--listen: seconds between --metrics-jsonl snapshots "
        "(default 10)",
    )
    _add_cache_flags(p_serve)
    p_serve.add_argument(
        "query",
        nargs="*",
        help="either 's t w' or '-' to read queries from stdin "
        "(omitted with --listen)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive a TCP front door ('serve --listen') with closed- or "
        "open-loop traffic and report throughput + latency percentiles",
    )
    p_loadgen.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of a running 'serve --listen'",
    )
    p_loadgen.add_argument(
        "--mode",
        default="closed",
        choices=["closed", "open"],
        help="closed: each client sends the next request when the "
        "previous answer lands; open: Poisson arrivals at --rate "
        "regardless of completions (the overload probe)",
    )
    p_loadgen.add_argument(
        "--clients",
        type=int,
        default=8,
        help="concurrent connections (default 8)",
    )
    p_loadgen.add_argument(
        "--duration",
        type=float,
        default=5.0,
        help="seconds to run (default 5)",
    )
    p_loadgen.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open loop: offered queries/second (required with "
        "--mode open)",
    )
    p_loadgen.add_argument(
        "--batch",
        type=int,
        default=1,
        help="closed loop: queries per request frame (default 1)",
    )
    p_loadgen.add_argument(
        "--max-outstanding",
        type=int,
        default=256,
        help="open loop: arrivals admitted to the send queue before "
        "the generator counts drops (default 256)",
    )
    p_loadgen.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-connection socket timeout in seconds (default 30)",
    )
    p_loadgen.add_argument(
        "--zipf",
        type=float,
        default=None,
        metavar="S",
        help="resample the query mix Zipf-skewed before driving: the "
        "distinct queries are ranked (seeded shuffle) and rank r is "
        "drawn proportional to r**-S — the hot-query shape the answer "
        "cache serves (deterministic; omit for the mix as given)",
    )
    p_loadgen.add_argument(
        "--zipf-count",
        type=int,
        default=10000,
        metavar="N",
        help="queries in the resampled Zipf mix (default 10000)",
    )
    p_loadgen.add_argument(
        "--zipf-seed",
        type=int,
        default=0,
        help="seed of the Zipf ranking and draws (default 0)",
    )
    p_loadgen.add_argument(
        "--server-stats",
        action="store_true",
        help="scrape the server's STATS frame right after the run and "
        "print its latency window next to the client-observed one "
        "(the gap is what the network and socket queues cost)",
    )
    p_loadgen.add_argument(
        "query",
        nargs="+",
        help="one or more 's t w' triples, or '-' to read the query "
        "mix from stdin (cycled for the whole run)",
    )
    p_loadgen.set_defaults(func=_cmd_loadgen)

    p_top = sub.add_parser(
        "top",
        help="live dashboard over a running 'serve --listen' (scrapes "
        "the STATS frame; like top(1) for the query server)",
    )
    p_top.add_argument(
        "address",
        metavar="HOST:PORT",
        help="address of a running 'serve --listen'",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between scrapes (default 2)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="print one scrape and exit (pipable; no screen clearing)",
    )
    p_top.add_argument(
        "--format",
        default="dashboard",
        choices=["dashboard", "json", "prometheus"],
        help="dashboard: the human view; json: the raw STATS report; "
        "prometheus: the text exposition scrapers ingest",
    )
    p_top.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="socket timeout in seconds (default 30)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_trace = sub.add_parser(
        "trace",
        help="force-sample requests through a running server and "
        "pretty-print their span trees",
    )
    p_trace.add_argument(
        "address",
        metavar="HOST:PORT",
        help="address of a running 'serve --listen'",
    )
    p_trace.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="instead of sending queries, print the server's N most "
        "recent sampled traces",
    )
    p_trace.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="socket timeout in seconds (default 30)",
    )
    p_trace.add_argument(
        "query",
        nargs="*",
        help="'s t w' triples to send force-sampled, or '-' to read "
        "them from stdin (omitted with --last)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_update = sub.add_parser(
        "update",
        help="apply an edge-mutation file to a saved .wcxb index "
        "(journal, incremental refreeze, patched image)",
    )
    p_update.add_argument("--index", required=True, help=".wcxb image to update")
    p_update.add_argument(
        "--graph",
        required=True,
        help="edge-list file of the indexed graph (family follows the "
        "image's variant tag)",
    )
    p_update.add_argument(
        "--updates",
        required=True,
        help="mutation file: 'insert u v q' (weighted: 'insert u v len q'), "
        "'delete u v', 'quality u v q'; '#' comments",
    )
    p_update.add_argument(
        "--out",
        default=None,
        help="write the updated image here (default: patch --index in "
        "place, writing the mutated graph back to --graph so the pair "
        "stays consistent for the next update)",
    )
    p_update.add_argument(
        "--keep-graph",
        action="store_true",
        help="do not write the mutated graph back to --graph on an "
        "in-place update (the next update must then supply a graph "
        "matching the image, or its rebuilds will revert this batch)",
    )
    p_update.add_argument(
        "--mode",
        default="patch",
        choices=["patch", "delta", "rewrite"],
        help="how the image absorbs the batch: rewrite only the changed "
        "byte ranges (patch, default), append a delta blob resolved at "
        "load time (delta), or rewrite the file (rewrite)",
    )
    p_update.add_argument(
        "--pool",
        type=int,
        default=0,
        help="also serve the given queries through an N-worker "
        "shared-memory pool, hot-swapping it across the update (answers "
        "printed for both epochs)",
    )
    p_update.add_argument(
        "query",
        nargs="*",
        help="with --pool: either 's t w' or '-' to read queries from stdin",
    )
    p_update.set_defaults(func=_cmd_update)

    p_profile = sub.add_parser(
        "profile", help="print the Pareto staircase of a vertex pair"
    )
    p_profile.add_argument("--index", required=True)
    p_profile.add_argument("s", type=int)
    p_profile.add_argument("t", type=int)
    p_profile.set_defaults(func=_cmd_profile)

    p_stats = sub.add_parser(
        "stats",
        help="index statistics (v3 images only; v1/v2 are rejected)",
    )
    p_stats.add_argument(
        "--index",
        required=True,
        help=".wcxb v3 image (reports the layout and delta chain)",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_verify = sub.add_parser(
        "verify", help="verify a saved index against its graph (small graphs)"
    )
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--index", required=True)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IndexFormatError as exc:
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
