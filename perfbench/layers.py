"""Timing shims for the traced run, and the per-layer metric table.

The traced run wraps public entry points of each layer with a shim that
times the call and notes what it returned; the program itself carries
no tracing code for this.  Shims are installed only for the traced half
of a traced run and removed afterwards, so end-to-end figures never come
from shimmed code.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

FAMILIES = ("undirected", "directed", "weighted")

#: Engine and index class names -> family, for shims that see only an
#: engine (``save_frozen``, ``load_frozen``) or a list index (``freeze``).
FAMILY_OF = {
    "WCIndex": "undirected",
    "FrozenWCIndex": "undirected",
    "DirectedWCIndex": "directed",
    "FrozenDirectedWCIndex": "directed",
    "WeightedWCIndex": "weighted",
    "FrozenWeightedWCIndex": "weighted",
}

#: Every per-layer metric: name -> unit.  A traced run reports all of
#: them; a layer the workload does not run reads 0 (see README.md for
#: which workload moves which).
PER_LAYER = {}
for _family in FAMILIES:
    PER_LAYER[f"construction.build_s.{_family}"] = "s"
    PER_LAYER[f"construction.label_entries.{_family}"] = "count"
    PER_LAYER[f"frozen.freeze_s.{_family}"] = "s"
    PER_LAYER[f"serialize.save_s.{_family}"] = "s"
    PER_LAYER[f"serialize.attach_mmap_s.{_family}"] = "s"
    PER_LAYER[f"serialize.image_bytes.{_family}"] = "bytes"
PER_LAYER.update({
    "kernels.call_us.b2048": "us",
    "kernels.call_us.b32": "us",
    "protocol.encode_query_us": "us",
    "protocol.decode_answer_us": "us",
    "net.server_p50_ms": "ms",
    "net.server_p99_ms": "ms",
    "net.batch_size_mean": "queries",
    "net.client_gap_p50_ms": "ms",
    "pool.dispatch_ms_p50": "ms",
    "pool.chunks_per_batch": "count",
    "pool.swap_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.invalidated_per_publish": "count",
    "cache.flushes": "count",
    "live.apply_ms.repair": "ms",
    "live.apply_ms.rebuild": "ms",
    "live.dirty_vertices_per_batch": "count",
    "refreeze.ms": "ms",
    "refreeze.incremental_share": "ratio",
    "refreeze.patch_bytes": "bytes",
    "obs.trace_overhead_pct": "%",
})


class Shims:
    """Installs timing wrappers and collects what they record.

    ``times[name]`` holds call durations in seconds, ``values[name]``
    any numbers a ``note`` hook extracts from a call.  ``context`` lets
    the benchmark label the calls it is about to make (e.g. the kind of
    a mutation batch).
    """

    def __init__(self) -> None:
        self.times: Dict[str, List[float]] = defaultdict(list)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.context: Dict[str, str] = {}
        self._saved: list = []

    def wrap(self, owner, attr: str, name, note: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a timing shim.  ``name`` is a metric
        key or a callable ``(args, result) -> key``; ``note(shims, args,
        result)`` may record further values."""
        original = getattr(owner, attr)
        times = self.times

        @functools.wraps(original)
        def shim(*args, **kwargs):
            started = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - started
            key = name(args, result) if callable(name) else name
            times[key].append(elapsed)
            if note is not None:
                note(self, args, result)
            return result

        setattr(owner, attr, shim)
        self._saved.append((owner, attr, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def median_time(self, name: str, scale: float = 1.0) -> float:
        samples = self.times.get(name)
        return statistics.median(samples) * scale if samples else 0.0


def family_of_first(args, result) -> str:
    return FAMILY_OF.get(type(args[0]).__name__, "undirected")


def family_of_result(args, result) -> str:
    return FAMILY_OF.get(type(result).__name__, "undirected")


def install_image_shims(shims: Shims) -> None:
    """freeze -> save -> mmap attach, per family."""
    from repro import api
    from repro.core import serialize
    from repro.core.directed import DirectedWCIndex
    from repro.core.labels import WCIndex
    from repro.core.weighted import WeightedWCIndex

    for cls in (WCIndex, DirectedWCIndex, WeightedWCIndex):
        shims.wrap(cls, "freeze", lambda args, result: "freeze." + family_of_first(args, result))
    shims.wrap(serialize, "save_frozen", lambda args, result: "save." + family_of_first(args, result))
    shims.wrap(api, "load_frozen", lambda args, result: "attach." + family_of_result(args, result))


def image_layers(shims: Shims, scale: float) -> Dict[str, float]:
    out = {}
    for family in FAMILIES:
        out[f"frozen.freeze_s.{family}"] = shims.median_time("freeze." + family, scale)
        out[f"serialize.save_s.{family}"] = shims.median_time("save." + family, scale)
        out[f"serialize.attach_mmap_s.{family}"] = shims.median_time("attach." + family, scale)
    return out


def install_pool_shims(shims: Shims) -> None:
    """Pool dispatch as a client sees it, and chunks per pool batch."""
    from repro.serve.client import PoolClient
    from repro.serve.server import QueryServer

    shims.wrap(PoolClient, "distance_many", "pool.dispatch")
    shims.wrap(PoolClient, "distance_many_traced", "pool.dispatch")
    original = QueryServer.query_batch

    @functools.wraps(original)
    def counted(self, *args, **kwargs):
        before = self.dispatch_snapshot()["chunks"]
        result = original(self, *args, **kwargs)
        shims.values["pool.chunks"].append(self.dispatch_snapshot()["chunks"] - before)
        return result

    QueryServer.query_batch = counted
    shims._saved.append((QueryServer, "query_batch", original))


def pool_layers(shims: Shims, scale: float) -> Dict[str, float]:
    chunks = shims.values.get("pool.chunks")
    return {
        "pool.dispatch_ms_p50": shims.median_time("pool.dispatch", 1000.0 * scale),
        "pool.chunks_per_batch": statistics.fmean(chunks) if chunks else 0.0,
    }
