"""Operational workflow: build once, persist, reload, profile.

A production deployment builds the WC-INDEX offline, ships the serialized
index next to the service, and answers queries (single, batched, or whole
quality/distance profiles) without touching the graph again.  The index
file format is the binary ``.wcxb`` image, which loads straight into the
frozen flat-array engine — no per-entry parsing, fast batched queries
(``.thaw()`` gives back the mutable list engine).  The same flow is
scriptable through the CLI::

    python -m repro build --graph net.edges --out net.wcxb
    python -m repro query --index net.wcxb 0 42 3.0
    python -m repro profile --index net.wcxb 0 42

The ``.wcxb`` header carries a variant tag, so the same binary format —
and the same ``save_frozen`` / ``load_frozen`` entry points — serve the
directed and weighted extension indexes too (shown below with a directed
round-trip)::

    python -m repro build --graph net.arcs --directed --out net.wcxb
    python -m repro query --index net.wcxb 0 42 3.0

A v3 image is *attachable*: ``load_frozen(path, mode="mmap")`` builds
the same engine out of zero-copy views over an mmap of the file — a
serving restart attaches in microseconds however large the index is —
and ``repro.serve`` publishes the image in shared memory for a
multi-process worker pool (CLI: ``python -m repro serve``).  Both are
shown below.

The image is also *maintainable*: after graph mutations, a journaled
live index reports the dirty vertices, ``incremental_refreeze``
rebuilds only their flat sections, and the resulting byte-range patch
rewrites the ``.wcxb`` in place — ending byte-identical to a
from-scratch save (CLI: ``python -m repro update``).  Shown at the end.

Run with::

    python examples/index_persistence.py
"""

import tempfile
import time
from pathlib import Path

from repro.core import (
    DirectedWCIndex,
    bottleneck_quality,
    build_wc_index_plus,
    collect_statistics,
    distance_profile,
    load_frozen,
    save_frozen,
    widest_path_quality,
)
from repro.graph.generators import oriented_copy, scale_free_network
from repro.workloads.queries import random_queries


def main() -> None:
    graph = scale_free_network(500, 3, num_qualities=5, seed=23)
    print(f"network: {graph}")

    started = time.perf_counter()
    index = build_wc_index_plus(graph)
    print(f"built {index.entry_count()} entries in {time.perf_counter() - started:.2f}s")

    stats = collect_statistics(index)
    print(
        f"labels: avg {stats.avg_label_size:.1f}, max {stats.max_label_size}, "
        f"top-1% hubs carry {stats.hub_concentration(0.01):.0%} of the index"
    )

    with tempfile.TemporaryDirectory() as tmp:
        # The index file: a binary image of the frozen engine.
        # ``load_frozen`` / ``attach_frozen`` / ``freeze`` all take a
        # ``backend=`` kernel selection — the default ("auto") answers
        # batches through the vectorized numpy backend when numpy is
        # installed and the pure-Python stdlib backend otherwise,
        # bit-identically; pass "stdlib"/"numpy" to pin one.
        binary_path = Path(tmp) / "network.wcxb"
        save_frozen(index, binary_path)
        print(
            f"serialized to {binary_path.name}: "
            f"{binary_path.stat().st_size} bytes"
        )

        frozen = load_frozen(binary_path)
        workload = random_queries(graph, 1000, seed=1)
        started = time.perf_counter()
        answers = frozen.distance_many(workload)
        elapsed = time.perf_counter() - started
        assert answers == index.distance_many(workload)
        reachable = sum(1 for a in answers if a != float("inf"))
        print(
            f"frozen engine ({frozen.kernel_backend} kernel) answered "
            f"{len(answers)} queries in {elapsed * 1000:.1f} ms "
            f"({reachable} reachable)"
        )

        # The mmap-attach round-trip: the same image, but the engine is
        # built from zero-copy views over a map of the file — compare
        # the full read-load against the attach.
        started = time.perf_counter()
        load_frozen(binary_path)  # read-load: copies + integrity scan
        read_ms = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        attached = load_frozen(binary_path, mode="mmap", validate=False)
        attach_ms = (time.perf_counter() - started) * 1000
        assert attached.distance_many(workload) == answers
        print(
            f"mmap attach: {attach_ms:.2f} ms vs {read_ms:.1f} ms "
            f"read-load ({read_ms / attach_ms:.0f}x), same answers"
        )
        attached.release()  # detach so the mapping can close

        # Shared-memory serving: two worker processes answer the same
        # batch over one published copy of the image.
        from repro.serve import QueryServer

        with QueryServer(binary_path, workers=2) as server:
            assert server.query_batch(workload) == answers
            print(
                f"shared-memory pool ({server.num_workers} workers, "
                f"{server.image_bytes} bytes shared): same answers"
            )

        # The same binary format serves the extensions: freeze a
        # directed index, save it, and the loader dispatches on the
        # header's variant tag — no separate format, no thaw.
        digraph = oriented_copy(graph, one_way_prob=0.4, seed=23)
        directed = DirectedWCIndex(digraph)
        directed_path = Path(tmp) / "network-directed.wcxb"
        save_frozen(directed, directed_path)
        frozen_directed = load_frozen(directed_path)
        directed_answers = frozen_directed.distance_many(workload)
        assert directed_answers == directed.distance_many(workload)
        one_way = sum(
            1
            for (s, t, w), d in zip(workload, directed_answers)
            if d == float("inf")
            and frozen_directed.distance(t, s, w) != float("inf")
        )
        print(
            f"directed variant ({type(frozen_directed).__name__} from "
            f"{directed_path.name}): {len(directed_answers)} queries, "
            f"{one_way} pairs reachable only in the other direction"
        )

        # Live updates: mutate the graph through a journaled wrapper,
        # refreeze only the dirty vertices, and patch the image file in
        # place — byte-identical to rewriting it from scratch.
        from repro.live import LiveWCIndex, incremental_refreeze, make_patch

        live = LiveWCIndex(graph, index=load_frozen(binary_path).thaw())
        old_frozen = live.freeze()
        live.insert_edge(7, 444, 9.0)   # a brand-new top-quality link
        dirty = live.journal.dirty_vertices()
        started = time.perf_counter()
        patched_engine = incremental_refreeze(old_frozen, live.index, dirty)
        patch = make_patch(binary_path, patched_engine)
        patch.apply(binary_path)
        patch_ms = (time.perf_counter() - started) * 1000
        reloaded = load_frozen(binary_path)
        assert reloaded.distance(7, 444, 9.0) == 1.0
        import io

        buffer = io.BytesIO()
        save_frozen(live.freeze(), buffer)
        assert binary_path.read_bytes() == buffer.getvalue()
        print(
            f"live update: {len(live.journal)} op dirtied {len(dirty)} "
            f"vertices, in-place patch ({patch.bytes_written} bytes) in "
            f"{patch_ms:.1f} ms — image identical to a full rewrite"
        )

        # Full quality/distance trade-off for one pair — through the
        # patched engine, so the new top-quality link shows up:
        s, t = 7, 444
        print(f"\nprofile of ({s}, {t}) after the update:")
        for quality, dist in distance_profile(reloaded, s, t):
            print(f"  constraints up to {quality:g}: {dist:g} hops")
        print(
            f"widest-path quality: {widest_path_quality(reloaded, s, t):g}"
        )
        print(
            "best quality within 4 hops:",
            f"{bottleneck_quality(reloaded, s, t, 4.0):g}",
        )


if __name__ == "__main__":
    main()
