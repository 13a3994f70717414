"""``tcp-small-frames``: online serving as a TCP client sees it.

Set-up builds the undirected 1,088-vertex road index, saves its image
and starts ``python -m repro serve --listen 127.0.0.1:0 --workers 1`` as
a child process with default flags (answer cache on, tracing 1/64).
Two connections from this process then drive it closed-loop, each
sending 16-query frames of fresh uniform queries; the server coalesces
them into batches of at most 32.  The query space (~2.6M distinct cache
keys) dwarfs the 65,536-entry answer cache, so nearly every lookup
misses.  Between windows the clients pause while this process takes a
calibration sample and republishes the served index's image (freeze,
save, mmap open) — the ``publish`` samples.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from array import array

import inputs
from bulk import Family, publish
from harness import (
    Context,
    Series,
    check_gone,
    check_no_leaks,
    codec_probe,
    finish,
    kernel_probe,
    peak_rss_mb,
    percentile,
    process_tree,
    shm_segments,
)
from layers import Shims, image_layers, install_image_shims, pool_layers
from oracle import Oracle

CLIENTS = 2
FRAME = 16
#: Windows are short so that the calibration slices bracketing each
#: stay close to the traffic they scale.
WINDOW_S = 0.05
#: Windows between two republishes of the served image.
PUBLISH_EVERY = 4
SOURCES = 512
#: The server must be listening within this many seconds of its start,
#: and gone within this many of SIGINT; past it, it is killed and the
#: run fails.
START_DEADLINE_S = 60.0
SHUTDOWN_DEADLINE_S = 20.0


def start_server(ctx: Context, image) -> subprocess.Popen:
    root = ctx.scratch.parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    serve = ["serve", "--index", str(image), "--listen", "127.0.0.1:0", "--workers", "1"]
    if ctx.trace:
        command = [sys.executable, str(root / "perfbench" / "traced_serve.py"),
                   str(ctx.scratch / "server-layers.json")] + serve
    else:
        command = [sys.executable, "-m", "repro"] + serve
    stderr = open(ctx.scratch / "server.log", "wb")
    try:
        return subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr,
                                env=env, cwd=str(ctx.scratch))
    finally:
        stderr.close()


def await_address(server: subprocess.Popen):
    """The ``listening on HOST:PORT`` readiness line."""
    deadline = time.monotonic() + START_DEADLINE_S
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or server.poll() is not None:
            raise RuntimeError(f"server did not start (exit code {server.poll()})")
        ready, _, _ = select.select([server.stdout], [], [], remaining)
        if ready:
            chunk = os.read(server.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("server closed its stdout before listening")
            line += chunk
    text = line.decode().strip()
    if not text.startswith("listening on "):
        raise RuntimeError(f"unexpected readiness line {text!r}")
    host, _, port = text[len("listening on "):].rpartition(":")
    return host, int(port)


def stop_server(ctx: Context, server: subprocess.Popen) -> None:
    """SIGINT, then wait; a server that misses the deadline is killed
    and fails the run."""
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
    try:
        server.wait(timeout=SHUTDOWN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
        ctx.failed += 1
        ctx.checker.fail(f"server missed its {SHUTDOWN_DEADLINE_S:g} s shutdown deadline")
    finally:
        server.stdout.close()


class Driver:
    """The closed-loop clients and the window barrier they share with
    the main thread: each window starts and ends on the barrier, so the
    main thread's calibration samples and publishes never overlap
    traffic."""

    def __init__(self, ctx: Context, clients, sources, n) -> None:
        self.ctx = ctx
        self.clients = clients
        # A client thread that died would leave the others waiting
        # forever; the timeout turns that into an error.
        self.barrier = threading.Barrier(len(clients) + 1, timeout=60.0)
        self.deadline = 0.0
        self.position = 0
        self.series = None
        self.stop = False
        self.lock = threading.Lock()
        #: Per client: every query sent and answer received, as flat
        #: arrays (s, t, w, answer), so the log neither grows the heap the
        #: garbage collector walks nor lets memory track throughput much.
        self.log = [tuple(array(code) for code in "qqdd") for _ in clients]
        self.frames = [0] * len(clients)
        self.errors = []
        self.rngs = [inputs.stream(ctx.seed, f"frames:{i}") for i in range(len(clients))]
        self.sources = sources
        self.n = n
        self.threads = [threading.Thread(target=self._client, args=(i,), daemon=True)
                        for i in range(len(clients))]
        for thread in self.threads:
            thread.start()

    def _client(self, i: int) -> None:
        client, rng = self.clients[i], self.rngs[i]
        sources, targets, thresholds, answered = self.log[i]
        while True:
            self.barrier.wait()
            if self.stop:
                return
            deadline, position, series = self.deadline, self.position, self.series
            while time.perf_counter() < deadline:
                queries = inputs.uniform_queries(rng, self.sources, self.n, FRAME, True)
                begun = time.perf_counter()
                try:
                    answers = client.distance_many(queries)
                except Exception as exc:  # counted, reported, never fatal
                    with self.lock:
                        self.errors.append(repr(exc))
                    continue
                elapsed = time.perf_counter() - begun
                with self.lock:
                    series.add(position, elapsed, FRAME)
                for (s, t, w), answer in zip(queries, answers):
                    sources.append(s)
                    targets.append(t)
                    thresholds.append(w)
                    answered.append(answer)
                self.frames[i] += 1
            self.barrier.wait()

    def window(self, series: Series) -> float:
        """Run one window; returns its wall time."""
        self.position = self.ctx.cal.mark()
        self.series = series
        begun = time.perf_counter()
        self.deadline = begun + WINDOW_S
        self.barrier.wait()
        self.barrier.wait()
        return time.perf_counter() - begun

    def close(self) -> None:
        self.stop = True
        self.barrier.wait()
        for thread in self.threads:
            thread.join(timeout=10.0)


def run(ctx: Context):
    from repro import Graph, build_wc_index_plus
    from repro.serve import NetClient

    ctx.setup_mark()
    rows, cols = inputs.BULK_GRID
    n = rows * cols
    grid = inputs.road_grid(inputs.stream(inputs.FIXTURE, "grid"), rows, cols)
    family = Family("undirected", n, grid, True, False,
                    lambda: build_wc_index_plus(Graph(n, grid)))
    family.index = ctx.timed_build(family.name, family.build)
    publish(ctx, family)
    image = ctx.scratch / "served.wcxb"
    os.replace(ctx.scratch / "undirected.0.wcxb", image)
    index_bytes = image.stat().st_size
    ctx.setup_mark()
    segments_before = shm_segments()
    server = start_server(ctx, image)
    clients = []
    tree = [server.pid]
    try:
        host, port = await_address(server)
        clients = [NetClient(host, port, name=f"perfbench-{i}") for i in range(CLIENTS)]
        ctx.end_setup()
        tree = process_tree(server.pid)
        values, layers, extra = _measure(ctx, family, server, clients, index_bytes, tree)
    finally:
        for client in clients:
            client.close()
        stop_server(ctx, server)
        if family.engine is not None:
            family.engine.release()
    check_no_leaks(ctx, segments_before)
    check_gone(ctx, tree)
    if ctx.trace:
        layers.update(_server_layers(ctx))
    return finish(ctx, values[True], values[False], layers, extra)


def _measure(ctx, family, server, clients, index_bytes, tree):
    sources = inputs.pick_sources(inputs.stream(ctx.seed, "sources"), family.n, SOURCES)
    driver = Driver(ctx, clients, sources, family.n)
    reads = {phase: Series(ctx.cal) for phase in ("untraced", "traced")}
    windows = {phase: Series(ctx.cal) for phase in ("untraced", "traced")}
    publishes = Series(ctx.cal)
    try:
        for phase, deadline in ctx.phases():
            if phase == "traced":
                install_image_shims(ctx.shims)
                server.send_signal(signal.SIGUSR1)
            while time.perf_counter() < deadline:
                before = reads[phase].queries()
                wall = driver.window(reads[phase])
                windows[phase].add(driver.position, wall, reads[phase].queries() - before)
                if len(windows[phase]) % PUBLISH_EVERY == 0:
                    position = ctx.cal.mark()
                    begun = time.perf_counter()
                    publish(ctx, family)
                    publishes.add(position, time.perf_counter() - begun)
                    ctx.attempted += 1
    finally:
        driver.close()
    if ctx.shims is not None:
        ctx.shims.remove()
    ctx.cal.mark()
    frames = sum(driver.frames)
    ctx.attempted += frames + len(driver.errors)
    ctx.failed += len(driver.errors)
    for error in driver.errors[:3]:
        ctx.checker.fail(f"frame failed: {error}")
    report = clients[0].stats()
    answered_by_clients = sum(len(log[3]) for log in driver.log)
    ctx.checker.equal_totals("answered queries", answered_by_clients,
                             report["stats"]["queries"]["answered"])
    rss = peak_rss_mb(tree)

    oracle = Oracle(family.n, family.arcs, symmetric=True)
    source_set = set(sources)
    for i, (s, t, w, answers) in enumerate(driver.log):
        ctx.checker.against(f"client {i}", oracle, list(zip(s, t, w)), answers, source_set)
    s, t = driver.log[0][:2]
    ctx.checker.properties("tcp", clients[1].distance_many, list(zip(s[:24], t[:24])),
                           inputs.THRESHOLDS, True)

    values = {}
    for calibrated in (True, False):
        frames_ms = [s * 1000.0 for s in reads["untraced"].seconds(calibrated)]
        publish_ms = [s * 1000.0 for s in publishes.seconds(calibrated)]
        values[calibrated] = {
            "setup_s": ctx.setup_s(calibrated),
            "build_s": ctx.build_s(None, calibrated),
            "index_bytes": index_bytes,
            "query_qps": windows["untraced"].rate(calibrated),
            "request_p50_ms": percentile(frames_ms, 50),
            "request_p95_ms": percentile(frames_ms, 95),
            "publish_p50_ms": percentile(publish_ms, 50),
            "publish_p90_ms": percentile(publish_ms, 90),
            "peak_rss_mb": rss,
        }
    layers = {}
    extra = {"frames": frames, "windows": len(windows["untraced"]) + len(windows["traced"]),
             "server_answered": report["stats"]["queries"]["answered"]}
    if ctx.trace:
        scale = ctx.cal.overall()
        layers["construction.build_s.undirected"] = ctx.build_s("undirected", True)
        layers["construction.label_entries.undirected"] = family.index.entry_count()
        layers["serialize.image_bytes.undirected"] = index_bytes
        layers.update(image_layers(ctx.shims, scale))
        universe = inputs.uniform_queries(inputs.stream(ctx.seed, "probe"), sources,
                                          family.n, 8 * 2048, True)
        layers.update(kernel_probe([(family.engine, universe)], scale))
        layers.update(codec_probe(universe[:FRAME], scale))
        latency = report["stats"]["latency"]
        layers["net.server_p50_ms"] = latency["p50_ms"] * scale
        layers["net.server_p99_ms"] = latency["p99_ms"] * scale
        layers["net.batch_size_mean"] = report["stats"]["batch_sizes"]["mean_size"]
        client_p50 = percentile([s * 1000.0 for s in reads["traced"].seconds(True)], 50)
        layers["net.client_gap_p50_ms"] = client_p50 - layers["net.server_p50_ms"]
        metrics = report.get("metrics", {})
        hits = _metric(metrics, "repro_cache_hits_total")
        misses = _metric(metrics, "repro_cache_misses_total")
        layers["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["cache.flushes"] = _metric(metrics, "repro_cache_flushes_total")
        untraced = values[True]["query_qps"]
        layers["obs.trace_overhead_pct"] = (
            untraced - windows["traced"].rate(True)) / untraced * 100.0
    return values, layers, extra


def _server_layers(ctx: Context) -> dict:
    """What the server's own pool shims recorded (written at its exit)."""
    path = ctx.scratch / "server-layers.json"
    if not path.exists():
        ctx.checker.fail("the traced server wrote no layer record")
        return {}
    recorded = json.loads(path.read_text())
    shims = Shims()
    shims.times.update(recorded["times"])
    shims.values.update(recorded["values"])
    return pool_layers(shims, ctx.cal.overall())


def _metric(snapshot, name: str) -> float:
    """Sum of a metric's series in a registry snapshot, whatever its
    labels."""
    total = 0.0
    for key, value in snapshot.items():
        if (key == name or key.startswith(name + "{")) and isinstance(value, (int, float)):
            total += value
    return total
