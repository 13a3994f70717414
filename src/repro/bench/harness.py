"""Experiment harness primitives.

Shared machinery for the experiment modules: result tables, timing
helpers, and the standard method line-ups (indexing methods and query
engines) used across Exp 1-5.

The paper reports "INF" bars when a method cannot be constructed within
the machine's memory.  At reproduction scale we emulate that with an
explicit *entry budget* for the Naive index (see
``DEFAULT_NAIVE_ENTRY_BUDGET``): exceeding it raises, and the harness
records the method as infeasible — same semantics, diagnosable cause.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..baselines import (
    ConstrainedBFS,
    IndexTooLargeError,
    NaivePerQualityIndex,
    PartitionedBFS,
    PartitionedDijkstra,
)
from ..core import WCIndexBuilder
from ..graph.graph import Graph
from ..workloads.queries import QueryWorkload

INF = float("inf")

#: Naive-index entry budget emulating the paper's memory-constraint INF
#: bars: at default REPRO_SCALE the two largest road networks (WST, CTR)
#: exceed it, matching Figures 5-7 where Naive cannot be built for them.
DEFAULT_NAIVE_ENTRY_BUDGET = 300_000

#: Queries per dataset (the paper uses 10,000; pure-Python online baselines
#: are ~1000x slower than the authors' C++, so we sample and average).
DEFAULT_QUERY_COUNT = 200


@dataclass
class Cell:
    """One measured value in an experiment table."""

    value: Optional[float]
    status: str = "ok"  # "ok" | "INF"

    @property
    def feasible(self) -> bool:
        return self.status == "ok"

    def __str__(self) -> str:
        if not self.feasible or self.value is None:
            return "INF"
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return str(int(self.value))
        if self.value >= 100:
            return f"{self.value:.0f}"
        if self.value >= 1:
            return f"{self.value:.2f}"
        return f"{self.value:.4g}"


@dataclass
class ExperimentTable:
    """A labelled table of results: one row per dataset, one column per
    method (or statistic)."""

    exp_id: str
    title: str
    unit: str
    columns: List[str]
    rows: Dict[str, Dict[str, Cell]] = field(default_factory=dict)

    def set(self, row: str, column: str, cell: Cell) -> None:
        if column not in self.columns:
            raise KeyError(f"unknown column {column!r}")
        self.rows.setdefault(row, {})[column] = cell

    def get(self, row: str, column: str) -> Cell:
        return self.rows[row][column]

    def feasible_value(self, row: str, column: str) -> Optional[float]:
        cell = self.rows.get(row, {}).get(column)
        if cell is None or not cell.feasible:
            return None
        return cell.value


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------
def time_build(builder: Callable[[], object]) -> Tuple[float, object]:
    """Wall-clock one construction; returns ``(seconds, built_object)``."""
    start = time.perf_counter()
    result = builder()
    return time.perf_counter() - start, result


def time_queries(
    distance: Callable[[int, int, float], float],
    workload: QueryWorkload,
    *,
    min_duration: float = 0.2,
    max_batches: int = 10_000,
) -> float:
    """Average seconds per query.

    Fast engines (index lookups in the microsecond range) are looped over
    the workload until ``min_duration`` of total wall clock accumulates, so
    the per-query average has timer resolution to spare.
    """
    queries = workload.queries
    if not queries:
        return 0.0
    batches = 0
    total = 0.0
    start = time.perf_counter()
    while True:
        for s, t, w in queries:
            distance(s, t, w)
        batches += 1
        total = time.perf_counter() - start
        if total >= min_duration or batches >= max_batches:
            break
    return total / (batches * len(queries))


# ----------------------------------------------------------------------
# Standard method line-ups
# ----------------------------------------------------------------------
INDEXING_METHODS = ("Naive", "WC-INDEX", "WC-INDEX+")
QUERY_METHODS_ROAD = ("W-BFS", "Dijkstra", "C-BFS", "Naive", "WC-INDEX", "WC-INDEX+")
QUERY_METHODS_SOCIAL = ("W-BFS", "C-BFS", "Naive", "WC-INDEX", "WC-INDEX+")

#: Engines beyond the paper's line-up that the harness also wires in:
#: WC-FROZEN is the flat-array FrozenWCIndex snapshot of WC-INDEX+.
EXTRA_QUERY_METHODS = ("WC-FROZEN",)

#: The Section V extension engines: the directed and weighted list
#: indexes plus their flat-array frozen snapshots (same labels, frozen
#: storage engine — the extension counterpart of WC-INDEX+ vs WC-FROZEN).
EXTENSION_QUERY_METHODS = (
    "WC-DIR",
    "WC-FROZEN-DIR",
    "WC-W",
    "WC-FROZEN-W",
)


@dataclass
class BuiltIndexes:
    """The indexing methods built over one dataset.

    ``wc_frozen`` is the flat-array snapshot of ``wc_plus`` (shares its
    label sets by construction); ``freeze_seconds`` is the cost of the
    freeze alone, not an extra index build.
    """

    naive: Optional[NaivePerQualityIndex]
    naive_seconds: Optional[float]
    wc: object
    wc_seconds: float
    wc_plus: object
    wc_plus_seconds: float
    wc_frozen: Optional[object] = None
    freeze_seconds: Optional[float] = None


def build_all_indexes(
    graph: Graph,
    *,
    ordering: str = "hybrid",
    naive_entry_budget: Optional[int] = DEFAULT_NAIVE_ENTRY_BUDGET,
    freeze: bool = True,
) -> BuiltIndexes:
    """Build Naive, WC-INDEX and WC-INDEX+ over ``graph``.

    WC-INDEX and WC-INDEX+ share the vertex ordering (as in the paper's
    experiments), so their label sets — and sizes — coincide; only
    construction internals differ (Algorithm 4 vs Algorithm 5 cover tests,
    further pruning).  ``freeze=False`` skips the WC-FROZEN snapshot for
    build-only callers (it duplicates the WC-INDEX+ label storage).
    """
    naive = None
    naive_seconds: Optional[float] = None
    try:
        naive_seconds, naive = time_build(
            lambda: NaivePerQualityIndex(graph, max_total_entries=naive_entry_budget)
        )
    except IndexTooLargeError:
        naive, naive_seconds = None, None

    wc_seconds, wc = time_build(
        lambda: WCIndexBuilder(
            graph, ordering, query_kernel="naive", further_pruning=False
        ).build()
    )
    wc_plus_seconds, wc_plus = time_build(
        lambda: WCIndexBuilder(
            graph, ordering, query_kernel="linear", further_pruning=True
        ).build()
    )
    if freeze:
        freeze_seconds, wc_frozen = time_build(wc_plus.freeze)
    else:
        freeze_seconds, wc_frozen = None, None
    return BuiltIndexes(
        naive=naive,
        naive_seconds=naive_seconds,
        wc=wc,
        wc_seconds=wc_seconds,
        wc_plus=wc_plus,
        wc_plus_seconds=wc_plus_seconds,
        wc_frozen=wc_frozen,
        freeze_seconds=freeze_seconds,
    )


@dataclass
class BuiltExtensionIndexes:
    """The Section V extension indexes built over one dataset pair (a
    directed and a weighted derivative of the same network).

    As with :class:`BuiltIndexes`, the frozen engines are snapshots of
    the list engines — they share label sets by construction, and
    ``*_freeze_seconds`` is the cost of the freeze alone.
    """

    directed: object
    directed_seconds: float
    directed_frozen: object
    directed_freeze_seconds: float
    weighted: object
    weighted_seconds: float
    weighted_frozen: object
    weighted_freeze_seconds: float


def build_extension_indexes(digraph, wgraph) -> BuiltExtensionIndexes:
    """Build the directed and weighted WC-INDEX variants plus their
    frozen snapshots."""
    from ..core import DirectedWCIndex, WeightedWCIndex

    directed_seconds, directed = time_build(lambda: DirectedWCIndex(digraph))
    directed_freeze_seconds, directed_frozen = time_build(directed.freeze)
    weighted_seconds, weighted = time_build(lambda: WeightedWCIndex(wgraph))
    weighted_freeze_seconds, weighted_frozen = time_build(weighted.freeze)
    return BuiltExtensionIndexes(
        directed=directed,
        directed_seconds=directed_seconds,
        directed_frozen=directed_frozen,
        directed_freeze_seconds=directed_freeze_seconds,
        weighted=weighted,
        weighted_seconds=weighted_seconds,
        weighted_frozen=weighted_frozen,
        weighted_freeze_seconds=weighted_freeze_seconds,
    )


def extension_query_engines(
    built: BuiltExtensionIndexes,
) -> Dict[str, Callable[[int, int, float], float]]:
    """The extension line-up as ``name -> distance`` — the four
    :data:`EXTENSION_QUERY_METHODS` engines (list vs frozen storage for
    each family)."""
    return {
        "WC-DIR": built.directed.distance,
        "WC-FROZEN-DIR": built.directed_frozen.distance,
        "WC-W": built.weighted.distance,
        "WC-FROZEN-W": built.weighted_frozen.distance,
    }


def query_engines(
    graph: Graph,
    built: BuiltIndexes,
    *,
    include_dijkstra: bool,
) -> Dict[str, Callable[[int, int, float], float]]:
    """The query-time line-up of Exp 3 / Exp 5 as ``name -> distance``.

    WC-INDEX answers with the naive kernel (Algorithm 2), WC-INDEX+ with
    the linear Query+ kernel (Algorithm 5) — the query-side counterpart of
    their construction difference.  WC-FROZEN answers from the flat-array
    snapshot of WC-INDEX+ (same labels, frozen storage engine).
    """
    partition_bfs = PartitionedBFS(graph)
    engines: Dict[str, Callable[[int, int, float], float]] = {
        "W-BFS": partition_bfs.distance,
        "C-BFS": ConstrainedBFS(graph).distance,
    }
    if include_dijkstra:
        engines["Dijkstra"] = PartitionedDijkstra(
            graph, partition_bfs.partition
        ).distance
    if built.naive is not None:
        engines["Naive"] = built.naive.distance
    wc = built.wc
    engines["WC-INDEX"] = lambda s, t, w: wc.distance_with(s, t, w, "naive")
    engines["WC-INDEX+"] = built.wc_plus.distance
    if built.wc_frozen is not None:
        engines["WC-FROZEN"] = built.wc_frozen.distance
    return engines
