"""``query-bulk``: offline batch answering on three index families.

Set-up builds one index per family (undirected and directed on the
1,088-vertex road grid, weighted on its 272-vertex corner), then
publishes each: freeze, save as a ``.wcxb`` v3 image, open it with
``open_index(mode="mmap")`` under the default ``auto`` kernel.  Each
round then, per family: republish the image (a ``publish`` sample),
answer one untimed batch to settle lazy kernel state, and time
``BATCHES_PER_WINDOW`` batches of 2,048 uniform queries through
``distance_many`` (``request`` samples).  No pool, cache, protocol or
socket is involved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import inputs
from harness import Context, Series, finish, kernel_probe, peak_rss_mb, percentile
from layers import image_layers, install_image_shims
from oracle import Oracle

BATCH = 2048
#: Distinct query batches per family; runs cycle through them.
BATCH_POOL = 12
BATCHES_PER_WINDOW = 24
#: A calibration slice brackets every few batches (about 10-20 ms).
BATCHES_PER_MARK = 4
SOURCES = {"undirected": 256, "directed": 256, "weighted": 128}


@dataclass
class Family:
    name: str
    n: int
    arcs: list
    symmetric: bool
    weighted: bool
    build: object
    index: object = None
    engine: object = None
    generation: int = 0
    image_bytes: int = 0
    sources: list = field(default_factory=list)
    batches: list = field(default_factory=list)
    answers: dict = field(default_factory=dict)


def publish(ctx: Context, family: Family) -> None:
    """freeze -> save -> mmap open; the old generation is released."""
    from repro import open_index
    from repro.core import serialize

    path = ctx.scratch / f"{family.name}.{family.generation % 2}.wcxb"
    family.generation += 1
    frozen = family.index.freeze()
    serialize.save_frozen(frozen, path)
    engine = open_index(path, mode="mmap")
    old, family.engine = family.engine, engine
    if old is not None:
        old.release()
    family.image_bytes = path.stat().st_size


def run(ctx: Context):
    from repro import DiGraph, Graph, WeightedGraph, build_wc_index_plus
    from repro.core import DirectedWCIndex, WeightedWCIndex

    ctx.setup_mark()
    rows, cols = inputs.BULK_GRID
    n = rows * cols
    grid = inputs.road_grid(inputs.stream(inputs.FIXTURE, "grid"), rows, cols)
    arcs = inputs.orient(inputs.stream(inputs.FIXTURE, "orient"), grid)
    wrows, wcols = inputs.WEIGHTED_GRID
    wn = wrows * wcols
    warcs = inputs.with_lengths(
        inputs.stream(inputs.FIXTURE, "lengths"), inputs.corner(grid, cols, wrows, wcols))
    families = [
        Family("undirected", n, grid, True, False,
               lambda: build_wc_index_plus(Graph(n, grid))),
        Family("directed", n, arcs, False, False,
               lambda: DirectedWCIndex(DiGraph(n, arcs))),
        Family("weighted", wn, warcs, True, True,
               lambda: WeightedWCIndex(WeightedGraph(wn, warcs))),
    ]
    for family in families:
        ctx.setup_mark()
        family.index = ctx.timed_build(family.name, family.build)
        publish(ctx, family)
    ctx.end_setup()
    index_bytes = sum(family.image_bytes for family in families)

    for family in families:
        rng = inputs.stream(ctx.seed, f"queries:{family.name}")
        family.sources = inputs.pick_sources(rng, family.n, SOURCES[family.name])
        family.batches = [
            inputs.uniform_queries(rng, family.sources, family.n, BATCH, family.symmetric)
            for _ in range(BATCH_POOL)
        ]

    reads = {phase: Series(ctx.cal) for phase in ("untraced", "traced")}
    publishes = {phase: Series(ctx.cal) for phase in ("untraced", "traced")}
    cursor = 0
    for phase, deadline in ctx.phases():
        if phase == "traced":
            install_image_shims(ctx.shims)
        series = reads[phase]
        while time.perf_counter() < deadline:  # whole rounds
            for family in families:
                position = ctx.cal.mark()
                begun = time.perf_counter()
                publish(ctx, family)
                publishes[phase].add(position, time.perf_counter() - begun)
                ctx.attempted += 1
                settle = family.batches[cursor % BATCH_POOL]
                _keep(ctx, family, cursor % BATCH_POOL, family.engine.distance_many(settle))
                for at in range(BATCHES_PER_WINDOW):
                    if at % BATCHES_PER_MARK == 0:
                        position = ctx.cal.mark()
                    slot = cursor % BATCH_POOL
                    cursor += 1
                    batch = family.batches[slot]
                    begun = time.perf_counter()
                    answers = family.engine.distance_many(batch)
                    series.add(position, time.perf_counter() - begun, len(batch))
                    ctx.attempted += 1
                    _keep(ctx, family, slot, answers)
    if ctx.shims is not None:
        ctx.shims.remove()
    ctx.cal.mark()  # closes the last window's calibration bracket

    for family in families:
        oracle = Oracle(family.n, family.arcs, symmetric=family.symmetric,
                        weighted=family.weighted)
        sources = set(family.sources)
        for slot, answers in sorted(family.answers.items()):
            ctx.checker.against(f"{family.name} batch {slot}", oracle,
                                family.batches[slot], answers, sources)
        pairs = [(s, t) for s, t, _ in family.batches[0][:48]]
        ctx.checker.properties(family.name, family.engine.distance_many, pairs,
                               inputs.THRESHOLDS, family.symmetric)

    measured = reads["untraced"]
    values = {}
    for calibrated in (True, False):
        requests_ms = [s * 1000.0 for s in measured.seconds(calibrated)]
        publish_ms = [s * 1000.0 for s in publishes["untraced"].seconds(calibrated)]
        values[calibrated] = {
            "setup_s": ctx.setup_s(calibrated),
            "build_s": ctx.build_s(None, calibrated),
            "index_bytes": index_bytes,
            "query_qps": measured.rate(calibrated),
            "request_p50_ms": percentile(requests_ms, 50),
            "request_p95_ms": percentile(requests_ms, 95),
            "publish_p50_ms": percentile(publish_ms, 50),
            "publish_p90_ms": percentile(publish_ms, 90),
            "peak_rss_mb": peak_rss_mb(),
        }

    layers = {}
    if ctx.trace:
        scale = ctx.cal.overall()
        for family in families:
            layers[f"construction.build_s.{family.name}"] = (
                ctx.build_s(family.name, True))
            layers[f"construction.label_entries.{family.name}"] = family.index.entry_count()
            layers[f"serialize.image_bytes.{family.name}"] = family.image_bytes
        layers.update(image_layers(ctx.shims, scale))
        layers.update(kernel_probe(
            [(family.engine, [q for b in family.batches for q in b]) for family in families],
            scale))
        traced = reads["traced"].rate(True)
        untraced = values[True]["query_qps"]
        layers["obs.trace_overhead_pct"] = (untraced - traced) / untraced * 100.0
    for family in families:
        family.engine.release()
    return finish(ctx, values[True], values[False], layers,
                  {"publishes": len(publishes["untraced"]), "requests": len(measured)})


def _keep(ctx: Context, family: Family, slot: int, answers) -> None:
    """Keep a batch's first answers for the oracle; every later answer
    to the same batch must repeat them."""
    first = family.answers.setdefault(slot, answers)
    if first is not answers and answers != first:
        ctx.checker.compare(f"{family.name} batch {slot} (repeat)",
                            family.batches[slot], answers, first)

