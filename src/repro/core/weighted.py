"""Weighted WC-INDEX (Section V): constrained Dijkstra construction.

When edge lengths are not 1, the quality/distance prioritized BFS becomes a
quality/distance prioritized *Dijkstra*: states pop in order of ascending
distance, ties broken by descending quality, so that per (root, vertex)
pair the inserted entries still form the clean Pareto staircase of
Theorem 3 (strictly ascending distance <=> strictly ascending quality) and
the same query kernels apply unchanged.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from ..graph.weighted import WeightedGraph
from .frozen import WEIGHTED
from .query import group_end, merge_linear

INF = float("inf")


def weighted_degree_order(graph: WeightedGraph) -> List[int]:
    return sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v))


class WeightedWCIndex:
    """2-hop labeling for quality constrained shortest *weighted* distances."""

    #: The index family (shared with the frozen engine).
    family = WEIGHTED

    def __init__(
        self,
        graph: WeightedGraph,
        order: Optional[Sequence[int]] = None,
        *,
        track_parents: bool = False,
    ) -> None:
        self._num_vertices = graph.num_vertices
        self._track_parents = track_parents
        self._order = (
            list(order) if order is not None else weighted_degree_order(graph)
        )
        if sorted(self._order) != list(range(graph.num_vertices)):
            raise ValueError("order must be a permutation of the vertex ids")
        self._rank = [0] * graph.num_vertices
        for r, v in enumerate(self._order):
            self._rank[v] = r
        n = graph.num_vertices
        self._hubs: List[List[int]] = [[] for _ in range(n)]
        self._dists: List[List[float]] = [[] for _ in range(n)]
        self._quals: List[List[float]] = [[] for _ in range(n)]
        # Parent pointers as (vertex, entry_index) pairs: index-exact so
        # the reconstruction walk never re-does float arithmetic.
        self._parents: Optional[List[List[Tuple[int, int]]]] = (
            [[] for _ in range(n)] if track_parents else None
        )
        self._build(graph)

    @classmethod
    def from_label_lists(
        cls,
        order: Sequence[int],
        hubs: List[List[int]],
        dists: List[List[float]],
        quals: List[List[float]],
        parents: Optional[List[List[Tuple[int, int]]]] = None,
    ) -> "WeightedWCIndex":
        """Adopt builder-owned per-vertex label lists wholesale.

        The supported way for ``FrozenWeightedWCIndex.thaw`` to hand over
        finished label storage without re-running the constrained
        Dijkstra — the lists are taken over, not copied.
        """
        index = cls.__new__(cls)
        n = len(order)
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the vertex ids")
        if not (len(hubs) == len(dists) == len(quals) == n):
            raise ValueError(f"label lists must have {n} rows")
        if parents is not None and len(parents) != n:
            raise ValueError(f"parent lists must have {n} rows")
        index._num_vertices = n
        index._track_parents = parents is not None
        index._order = list(order)
        index._rank = [0] * n
        for r, v in enumerate(index._order):
            index._rank[v] = r
        index._hubs = hubs
        index._dists = dists
        index._quals = quals
        index._parents = parents
        return index

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, graph: WeightedGraph) -> None:
        n = graph.num_vertices
        rank = self._rank
        adj: List[List[Tuple[int, float, float]]] = [
            list(graph.neighbors(v)) for v in range(n)
        ]
        t_dists: List[Optional[List[float]]] = [None] * n
        t_quals: List[Optional[List[float]]] = [None] * n
        best_quality = [0.0] * n  # max quality among accepted pops (R array)

        for k, root in enumerate(self._order):
            hubs_r, dists_r, quals_r = (
                self._hubs[root],
                self._dists[root],
                self._quals[root],
            )
            touched_hubs: List[int] = []
            i = 0
            while i < len(hubs_r):
                h = hubs_r[i]
                j = group_end(hubs_r, i)
                t_dists[h] = dists_r[i:j]
                t_quals[h] = quals_r[i:j]
                touched_hubs.append(h)
                i = j
            t_dists[k] = [0.0]
            t_quals[k] = [INF]
            touched_hubs.append(k)

            self._hubs[root].append(k)
            self._dists[root].append(0.0)
            self._quals[root].append(INF)
            if self._parents is not None:
                self._parents[root].append((-1, -1))
            root_entry_idx = len(self._hubs[root]) - 1

            touched_vertices: List[int] = []
            # Heap orders by (distance asc, quality desc): at equal
            # distance the higher-quality state pops first and R-prunes
            # its dominated siblings.  Each element carries the parent
            # vertex and the parent's entry index for path walks.
            heap: List[Tuple[float, float, int, int, int]] = []
            for v, length, q in adj[root]:
                if rank[v] > k:
                    heapq.heappush(heap, (length, -q, v, root, root_entry_idx))
            while heap:
                d, neg_w, u, parent_vertex, parent_idx = heapq.heappop(heap)
                w = -neg_w
                if w <= best_quality[u]:
                    continue  # dominated by an accepted earlier pop
                # Cover test: Query(root, u, w) <= d over the current index.
                hubs_u, dists_u, quals_u = (
                    self._hubs[u],
                    self._dists[u],
                    self._quals[u],
                )
                covered = False
                a = 0
                total_u = len(hubs_u)
                while a < total_u:
                    h = hubs_u[a]
                    b = group_end(hubs_u, a)
                    td = t_dists[h]
                    if td is not None:
                        x = a
                        while x < b and quals_u[x] < w:
                            x += 1
                        if x < b:
                            tq = t_quals[h]
                            y = 0
                            len_t = len(tq)
                            while y < len_t and tq[y] < w:
                                y += 1
                            if y < len_t and td[y] + dists_u[x] <= d:
                                covered = True
                                break
                    a = b
                if best_quality[u] == 0.0:
                    touched_vertices.append(u)
                best_quality[u] = w
                if covered:
                    continue
                hubs_u.append(k)
                dists_u.append(d)
                quals_u.append(w)
                if self._parents is not None:
                    self._parents[u].append((parent_vertex, parent_idx))
                entry_idx = len(hubs_u) - 1
                for v, length, q in adj[u]:
                    if rank[v] <= k:
                        continue
                    w2 = q if q < w else w
                    if w2 <= best_quality[v]:
                        continue
                    heapq.heappush(heap, (d + length, -w2, v, u, entry_idx))

            for h in touched_hubs:
                t_dists[h] = None
                t_quals[h] = None
            for v in touched_vertices:
                best_quality[v] = 0.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, s: int, t: int, w: float) -> float:
        """w-constrained weighted distance between ``s`` and ``t``."""
        if not 0 <= s < self._num_vertices or not 0 <= t < self._num_vertices:
            raise ValueError("query vertex out of range")
        return merge_linear(
            self._hubs[s],
            self._dists[s],
            self._quals[s],
            self._hubs[t],
            self._dists[t],
            self._quals[t],
            w,
        )

    def distance_many(self, queries) -> List[float]:
        """Answer a batch of weighted ``(s, t, w)`` queries with the
        Query+ kernel (list storage; the batch counterpart of
        :meth:`distance`)."""
        hub_lists, dist_lists, qual_lists = (
            self._hubs,
            self._dists,
            self._quals,
        )
        n = self._num_vertices
        results: List[float] = []
        append = results.append
        for s, t, w in queries:
            if not 0 <= s < n or not 0 <= t < n:
                raise ValueError(f"query vertex out of range in ({s}, {t})")
            append(
                merge_linear(
                    hub_lists[s],
                    dist_lists[s],
                    qual_lists[s],
                    hub_lists[t],
                    dist_lists[t],
                    qual_lists[t],
                    w,
                )
            )
        return results

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------
    def freeze(self, backend=None):
        """Snapshot into a
        :class:`~repro.core.frozen.FrozenWeightedWCIndex` — the
        flat-array query engine for weighted indexes.  The frozen copy is
        independent, and ``freeze().thaw()`` reproduces the index
        exactly."""
        from .frozen import FrozenWeightedWCIndex

        return FrozenWeightedWCIndex.freeze(self, backend=backend)

    # ------------------------------------------------------------------
    # Path reconstruction (requires track_parents=True)
    # ------------------------------------------------------------------
    def path(self, s: int, t: int, w: float) -> Optional[List[int]]:
        """A shortest weighted w-path as a vertex list, or ``None``.

        Needs an index built with ``track_parents=True``.  The walk
        follows stored ``(parent_vertex, parent_entry_index)`` pairs, so
        no floating-point distance arithmetic is repeated.
        """
        if self._parents is None:
            raise ValueError(
                "path queries need an index built with track_parents=True"
            )
        if not 0 <= s < self._num_vertices or not 0 <= t < self._num_vertices:
            raise ValueError("query vertex out of range")
        if s == t:
            return [s]
        from .query import merge_linear_with_witness

        dist, idx_s, idx_t = merge_linear_with_witness(
            self._hubs[s],
            self._dists[s],
            self._quals[s],
            self._hubs[t],
            self._dists[t],
            self._quals[t],
            w,
        )
        if dist == INF:
            return None
        left = self._walk(s, idx_s)  # [s, ..., hub]
        right = self._walk(t, idx_t)  # [t, ..., hub]
        right.reverse()
        return left + right[1:]

    def _walk(self, v: int, entry_idx: int) -> List[int]:
        sequence = [v]
        current, idx = v, entry_idx
        while True:
            parent_vertex, parent_idx = self._parents[current][idx]
            if parent_vertex < 0:
                return sequence  # reached the hub's self entry
            sequence.append(parent_vertex)
            current, idx = parent_vertex, parent_idx

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def order(self) -> List[int]:
        return list(self._order)

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def tracks_parents(self) -> bool:
        return self._track_parents

    def label_lists(self, v: int) -> Tuple[List[int], List[float], List[float]]:
        """Raw per-vertex parallel lists ``(hub_ranks, dists, quals)``."""
        self._check_vertex(v)
        return self._hubs[v], self._dists[v], self._quals[v]

    def parent_pairs(self, v: int) -> List[Tuple[int, int]]:
        """``(parent_vertex, parent_entry_index)`` pairs of vertex ``v``."""
        if self._parents is None:
            raise ValueError("index was built without parent tracking")
        self._check_vertex(v)
        return self._parents[v]

    def entry_count(self) -> int:
        return sum(len(h) for h in self._hubs)

    def size_bytes(self) -> int:
        """Modelled footprint at the family-wide per-entry rate
        (:data:`~repro.core.labels.BYTES_PER_ENTRY`)."""
        from .labels import BYTES_PER_ENTRY

        return BYTES_PER_ENTRY * self.entry_count()

    def entries_of(self, v: int) -> List[Tuple[int, float, float]]:
        return [
            (self._order[h], d, q)
            for h, d, q in zip(self._hubs[v], self._dists[v], self._quals[v])
        ]

    def __repr__(self) -> str:
        return f"WeightedWCIndex(n={self._num_vertices}, entries={self.entry_count()})"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._num_vertices:
            raise ValueError(
                f"vertex {v} out of range [0, {self._num_vertices})"
            )


def constrained_dijkstra(
    graph: WeightedGraph, s: int, t: int, w: float
) -> float:
    """Online constrained Dijkstra — the weighted oracle used in tests."""
    if not 0 <= s < graph.num_vertices or not 0 <= t < graph.num_vertices:
        raise ValueError("query vertex out of range")
    if s == t:
        return 0.0
    dist = {s: 0.0}
    heap = [(0.0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == t:
            return d
        if d > dist.get(u, INF):
            continue
        for v, length, quality in graph.neighbors(u):
            if quality < w:
                continue
            candidate = d + length
            if candidate < dist.get(v, INF):
                dist[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return INF
