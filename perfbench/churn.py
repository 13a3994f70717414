"""``live-churn``: writes beside reads.

Set-up builds an undirected live index on the 440-vertex churn grid
(with a stock of jammed edges, see ``inputs.TrafficStream``) and serves
it from a ``LivePublisher`` with one worker, a patch-mode image on disk
and an attached ``AnswerCache``.  Each round applies four single-change
batches of traffic updates — one jam (downward: the rebuild path) and
three recoveries (upward: the repair path) — each through
``LivePublisher.apply`` (a ``publish`` sample, from the call until the
new epoch is swapped in), each followed by a read burst of Zipf-skewed
queries over a fixed 2,048-query universe through
``CachingClient(PoolClient(...))`` (``request`` samples).  The universe
fits the cache, so reads mostly hit and each publish's invalidations
show.
"""

from __future__ import annotations

import time

import inputs
from harness import (
    Context,
    Series,
    check_gone,
    check_no_leaks,
    finish,
    kernel_probe,
    peak_rss_mb,
    percentile,
    shm_segments,
)
from layers import install_pool_shims, pool_layers
from oracle import Oracle

UNIVERSE = 2048
ZIPF_EXPONENT = 1.0
BURST_BATCHES = 8
BATCH = 32
#: Edges jammed before the index is built: the stock recoveries draw on.
CONGESTED = 12
#: Burst answers per publish checked against the oracle on the
#: benchmark's own copy of the graph.
CHECKED_PER_BURST = 8


def install_live_shims(ctx: Context) -> None:
    from repro.live import publisher as publisher_module
    from repro.live.tracked import LiveWCIndex
    from repro.serve.server import QueryServer

    shims = ctx.shims
    shims.wrap(LiveWCIndex, "apply", lambda args, result: "apply." + shims.context["kind"])
    shims.wrap(publisher_module, "refreeze", "refreeze",
               note=lambda s, args, result: s.values["refreeze.incremental"].append(
                   1.0 if result.incremental else 0.0))
    shims.wrap(publisher_module, "apply_image_update", "image_update",
               note=lambda s, args, result: s.values["refreeze.patch_bytes"].append(result[1]))
    shims.wrap(QueryServer, "swap_image", "swap")
    install_pool_shims(shims)


def run(ctx: Context):
    from repro import Graph
    from repro.live import LivePublisher
    from repro.live.tracked import LiveWCIndex
    from repro.serve import AnswerCache, CachingClient, PoolClient

    ctx.setup_mark()
    rows, cols = inputs.CHURN_GRID
    n = rows * cols
    traffic = inputs.TrafficStream(
        inputs.road_grid(inputs.stream(inputs.FIXTURE, "churn-grid"), rows, cols),
        inputs.stream(ctx.seed, "traffic"))
    edges = traffic.congest(inputs.stream(inputs.FIXTURE, "congestion"), CONGESTED)
    live = ctx.timed_build("undirected", lambda: LiveWCIndex(Graph(n, edges)))
    ctx.setup_mark()
    segments_before = shm_segments()
    image = ctx.scratch / "live.wcxb"
    publisher = LivePublisher(live, workers=1, image_path=image, image_mode="patch")
    workers = [state["pid"] for state in publisher.server.worker_states()]
    try:
        cache = publisher.attach_cache(AnswerCache(publisher.frozen))
        client = CachingClient(PoolClient(publisher.server), cache)
        ctx.end_setup()
        index_bytes = image.stat().st_size
        values, layers, extra = _measure(ctx, n, traffic, publisher, cache, client, index_bytes)
    finally:
        publisher.close()
    check_no_leaks(ctx, segments_before)
    check_gone(ctx, workers)
    return finish(ctx, values[True], values[False], layers, extra)


def _measure(ctx, n, traffic, publisher, cache, client, index_bytes):
    rng = inputs.stream(ctx.seed, "universe")
    universe = [(rng.randrange(n), rng.randrange(n), rng.choice(inputs.THRESHOLDS))
                for _ in range(UNIVERSE)]
    zipf = inputs.Zipf(UNIVERSE, ZIPF_EXPONENT)
    draws = inputs.stream(ctx.seed, "bursts")
    picks = inputs.stream(ctx.seed, "checks")
    reads = {phase: Series(ctx.cal) for phase in ("untraced", "traced")}
    publishes = {"untraced": Series(ctx.cal), "traced": Series(ctx.cal)}
    dirty = []
    cache_start = {}
    for phase, deadline in ctx.phases():
        if phase == "traced":
            install_live_shims(ctx)
            cache_start = cache.snapshot()
            traced_publishes = 0
        while time.perf_counter() < deadline:  # whole rounds
            for kind, mutations in traffic.round():
                position = ctx.cal.mark()
                if ctx.shims is not None:
                    ctx.shims.context["kind"] = kind
                begun = time.perf_counter()
                report = publisher.apply(mutations)
                publishes[phase].add(position, time.perf_counter() - begun)
                ctx.attempted += 1
                if phase == "traced":
                    traced_publishes += 1
                    dirty.append(report.dirty_count)
                if report.epoch == 0:
                    ctx.checker.fail(f"batch {mutations} published nothing")
                burst = []
                position = ctx.cal.mark()
                for _ in range(BURST_BATCHES):
                    batch = [universe[zipf.draw(draws)] for _ in range(BATCH)]
                    begun = time.perf_counter()
                    answers = client.distance_many(batch)
                    reads[phase].add(position, time.perf_counter() - begun, len(batch))
                    ctx.attempted += 1
                    burst.extend(zip(batch, answers))
                sample = picks.sample(burst, CHECKED_PER_BURST)
                oracle = Oracle(n, [(u, v, q) for (u, v), q in traffic.current.items()],
                                symmetric=True)
                ctx.checker.against(f"epoch {report.epoch}", oracle,
                                    [q for q, _ in sample], [a for _, a in sample])
    if ctx.shims is not None:
        ctx.shims.remove()
    ctx.cal.mark()
    pairs = [(s, t) for s, t, _ in universe[:24]]
    ctx.checker.properties("live", client.distance_many, pairs, inputs.THRESHOLDS, True)

    values = {}
    for calibrated in (True, False):
        request_ms = [s * 1000.0 for s in reads["untraced"].seconds(calibrated)]
        publish_ms = [s * 1000.0 for s in publishes["untraced"].seconds(calibrated)]
        values[calibrated] = {
            "setup_s": ctx.setup_s(calibrated),
            "build_s": ctx.build_s(None, calibrated),
            "index_bytes": index_bytes,
            "query_qps": reads["untraced"].rate(calibrated),
            "request_p50_ms": percentile(request_ms, 50),
            "request_p95_ms": percentile(request_ms, 95),
            "publish_p50_ms": percentile(publish_ms, 50),
            "publish_p90_ms": percentile(publish_ms, 90),
            "peak_rss_mb": peak_rss_mb(),
        }
    layers = {}
    extra = {"publishes": len(publishes["untraced"]) + len(publishes["traced"]),
             "read_batches": len(reads["untraced"]) + len(reads["traced"])}
    if ctx.trace:
        shims = ctx.shims
        scale = ctx.cal.overall()
        layers["construction.build_s.undirected"] = ctx.build_s("undirected", True)
        layers["construction.label_entries.undirected"] = publisher.live.index.entry_count()
        layers["serialize.image_bytes.undirected"] = index_bytes
        layers["live.apply_ms.repair"] = shims.median_time("apply.repair", 1000.0 * scale)
        layers["live.apply_ms.rebuild"] = shims.median_time("apply.rebuild", 1000.0 * scale)
        layers["live.dirty_vertices_per_batch"] = sum(dirty) / len(dirty)
        layers["refreeze.ms"] = shims.median_time("refreeze", 1000.0 * scale)
        incremental = shims.values["refreeze.incremental"]
        layers["refreeze.incremental_share"] = sum(incremental) / len(incremental)
        patch = shims.values["refreeze.patch_bytes"]
        layers["refreeze.patch_bytes"] = sum(patch) / len(patch)
        layers["pool.swap_ms"] = shims.median_time("swap", 1000.0 * scale)
        layers.update(pool_layers(shims, scale))
        end = cache.snapshot()
        lookups = (end["hits"] - cache_start["hits"]) + (end["misses"] - cache_start["misses"])
        layers["cache.hit_ratio"] = (end["hits"] - cache_start["hits"]) / lookups
        layers["cache.invalidated_per_publish"] = (
            end["invalidated_entries"] - cache_start["invalidated_entries"]) / traced_publishes
        layers["cache.flushes"] = end["flushes"] - cache_start["flushes"]
        layers.update(kernel_probe([(publisher.frozen, universe * 2)], scale))
        untraced = values[True]["query_qps"]
        layers["obs.trace_overhead_pct"] = (
            untraced - reads["traced"].rate(True)) / untraced * 100.0
    return values, layers, extra
