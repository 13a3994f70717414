"""Directed WC-INDEX (Section V, "Directed and Weighted Graphs").

Per the paper: "conduct a constrained BFS from two directions for each
vertex.  In addition, L_in and L_out are required to hold the index data
for in-coming edges and out-coming edges".

Semantics: an entry ``(h, d, w)`` in ``L_in(u)`` certifies a minimal
w-path ``h -> u``; in ``L_out(u)`` it certifies ``u -> h``.  A query
``(s, t, w)`` merges ``L_out(s)`` with ``L_in(t)``: a common hub ``h``
with feasible entries on both sides witnesses ``s -> h -> t``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.digraph import DiGraph
from .frozen import DIRECTED
from .query import group_end, merge_linear

INF = float("inf")


def degree_order_directed(graph: DiGraph) -> List[int]:
    """Total-degree descending order, the directed analogue of the
    canonical PLL ordering."""
    totals = graph.total_degrees()
    return sorted(graph.vertices(), key=lambda v: (-totals[v], v))


class DirectedWCIndex:
    """2-hop labeling for quality constrained distances on digraphs."""

    #: The index family (shared with the frozen engine).
    family = DIRECTED

    def __init__(
        self,
        graph: DiGraph,
        order: Optional[Sequence[int]] = None,
        *,
        track_parents: bool = False,
    ) -> None:
        self._num_vertices = graph.num_vertices
        self._track_parents = track_parents
        self._order = (
            list(order) if order is not None else degree_order_directed(graph)
        )
        if sorted(self._order) != list(range(graph.num_vertices)):
            raise ValueError("order must be a permutation of the vertex ids")
        self._rank = [0] * graph.num_vertices
        for r, v in enumerate(self._order):
            self._rank[v] = r
        n = graph.num_vertices
        # L_in / L_out, each as parallel lists per vertex.
        self._in_hubs: List[List[int]] = [[] for _ in range(n)]
        self._in_dists: List[List[float]] = [[] for _ in range(n)]
        self._in_quals: List[List[float]] = [[] for _ in range(n)]
        self._out_hubs: List[List[int]] = [[] for _ in range(n)]
        self._out_dists: List[List[float]] = [[] for _ in range(n)]
        self._out_quals: List[List[float]] = [[] for _ in range(n)]
        self._in_parents: Optional[List[List[int]]] = (
            [[] for _ in range(n)] if track_parents else None
        )
        self._out_parents: Optional[List[List[int]]] = (
            [[] for _ in range(n)] if track_parents else None
        )
        self._build(graph)

    @classmethod
    def from_label_lists(
        cls,
        order: Sequence[int],
        in_hubs: List[List[int]],
        in_dists: List[List[float]],
        in_quals: List[List[float]],
        out_hubs: List[List[int]],
        out_dists: List[List[float]],
        out_quals: List[List[float]],
        in_parents: Optional[List[List[int]]] = None,
        out_parents: Optional[List[List[int]]] = None,
    ) -> "DirectedWCIndex":
        """Adopt builder-owned per-vertex label lists wholesale.

        The supported way for ``FrozenDirectedWCIndex.thaw`` to hand over
        finished label storage without rebuilding from a graph — the
        lists are taken over, not copied.
        """
        if (in_parents is None) != (out_parents is None):
            raise ValueError("parent tracking must match on both sides")
        index = cls.__new__(cls)
        n = len(order)
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the vertex ids")
        rows = (in_hubs, in_dists, in_quals, out_hubs, out_dists, out_quals)
        if any(len(lists) != n for lists in rows):
            raise ValueError(f"label lists must have {n} rows")
        if in_parents is not None and (
            len(in_parents) != n or len(out_parents) != n
        ):
            raise ValueError(f"parent lists must have {n} rows")
        index._num_vertices = n
        index._track_parents = in_parents is not None
        index._order = list(order)
        index._rank = [0] * n
        for r, v in enumerate(index._order):
            index._rank[v] = r
        index._in_hubs = in_hubs
        index._in_dists = in_dists
        index._in_quals = in_quals
        index._out_hubs = out_hubs
        index._out_dists = out_dists
        index._out_quals = out_quals
        index._in_parents = in_parents
        index._out_parents = out_parents
        return index

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, graph: DiGraph) -> None:
        n = graph.num_vertices
        succ = [list(graph.successors(v)) for v in range(n)]
        pred = [list(graph.predecessors(v)) for v in range(n)]
        t_dists: List[Optional[List[float]]] = [None] * n
        t_quals: List[Optional[List[float]]] = [None] * n
        best_quality = [0.0] * n

        for k, root in enumerate(self._order):
            # Forward BFS (root -> u): prune against L_out(root) x L_in(u),
            # insert into L_in(u).
            self._in_hubs[root].append(k)
            self._in_dists[root].append(0.0)
            self._in_quals[root].append(INF)
            if self._in_parents is not None:
                self._in_parents[root].append(-1)
            self._pruned_bfs(
                root,
                k,
                succ,
                source_hubs=self._out_hubs,
                source_dists=self._out_dists,
                source_quals=self._out_quals,
                target_hubs=self._in_hubs,
                target_dists=self._in_dists,
                target_quals=self._in_quals,
                target_parents=self._in_parents,
                t_dists=t_dists,
                t_quals=t_quals,
                best_quality=best_quality,
            )
            # Backward BFS (u -> root): prune against L_out(u) x L_in(root),
            # insert into L_out(u).
            self._out_hubs[root].append(k)
            self._out_dists[root].append(0.0)
            self._out_quals[root].append(INF)
            if self._out_parents is not None:
                self._out_parents[root].append(-1)
            self._pruned_bfs(
                root,
                k,
                pred,
                source_hubs=self._in_hubs,
                source_dists=self._in_dists,
                source_quals=self._in_quals,
                target_hubs=self._out_hubs,
                target_dists=self._out_dists,
                target_quals=self._out_quals,
                target_parents=self._out_parents,
                t_dists=t_dists,
                t_quals=t_quals,
                best_quality=best_quality,
            )

    def _pruned_bfs(
        self,
        root: int,
        k: int,
        adjacency: List[List[Tuple[int, float]]],
        *,
        source_hubs: List[List[int]],
        source_dists: List[List[float]],
        source_quals: List[List[float]],
        target_hubs: List[List[int]],
        target_dists: List[List[float]],
        target_quals: List[List[float]],
        target_parents: Optional[List[List[int]]],
        t_dists: List[Optional[List[float]]],
        t_quals: List[Optional[List[float]]],
        best_quality: List[float],
    ) -> None:
        """One quality/distance prioritized pruned BFS from ``root``.

        ``adjacency`` decides the direction.  The cover test asks whether
        ``root``'s *source-side* labels and the candidate's *target-side*
        labels already certify the pair; survivors are appended to the
        candidate's target-side labels with hub ``root``.

        Note the sides: for the forward pass the pair root -> u is covered
        when some hub h satisfies root -> h (``L_out(root)``) and h -> u
        (``L_in(u)``); the entry lands in ``L_in(u)``.
        """
        rank = self._rank
        hubs_r = source_hubs[root]
        dists_r = source_dists[root]
        quals_r = source_quals[root]
        touched_hubs: List[int] = []
        i = 0
        while i < len(hubs_r):
            h = hubs_r[i]
            j = group_end(hubs_r, i)
            t_dists[h] = dists_r[i:j]
            t_quals[h] = quals_r[i:j]
            touched_hubs.append(h)
            i = j
        if t_dists[k] is None:
            t_dists[k] = [0.0]
            t_quals[k] = [INF]
            touched_hubs.append(k)

        touched_vertices: List[int] = []
        frontier: List[Tuple[int, float]] = [(root, INF)]
        depth = 0.0
        while frontier:
            depth += 1.0
            cand: Dict[int, int] = {}
            for u, wu in frontier:
                for v, q in adjacency[u]:
                    if rank[v] <= k:
                        continue
                    w2 = q if q < wu else wu
                    if w2 <= best_quality[v]:
                        continue
                    if best_quality[v] == 0.0:
                        touched_vertices.append(v)
                    best_quality[v] = w2
                    cand[v] = u
            next_frontier: List[Tuple[int, float]] = []
            for v, parent in cand.items():
                w2 = best_quality[v]
                hubs_v = target_hubs[v]
                dists_v = target_dists[v]
                quals_v = target_quals[v]
                covered = False
                a = 0
                total_v = len(hubs_v)
                while a < total_v:
                    h = hubs_v[a]
                    b = group_end(hubs_v, a)
                    td = t_dists[h]
                    if td is not None:
                        x = a
                        while x < b and quals_v[x] < w2:
                            x += 1
                        if x < b:
                            tq = t_quals[h]
                            y = 0
                            len_t = len(tq)
                            while y < len_t and tq[y] < w2:
                                y += 1
                            if y < len_t and td[y] + dists_v[x] <= depth:
                                covered = True
                                break
                    a = b
                if covered:
                    continue
                hubs_v.append(k)
                dists_v.append(depth)
                quals_v.append(w2)
                if target_parents is not None:
                    target_parents[v].append(parent)
                next_frontier.append((v, w2))
            frontier = next_frontier

        for h in touched_hubs:
            t_dists[h] = None
            t_quals[h] = None
        for v in touched_vertices:
            best_quality[v] = 0.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, s: int, t: int, w: float) -> float:
        """w-constrained directed distance ``s -> t``."""
        if not 0 <= s < self._num_vertices or not 0 <= t < self._num_vertices:
            raise ValueError("query vertex out of range")
        return merge_linear(
            self._out_hubs[s],
            self._out_dists[s],
            self._out_quals[s],
            self._in_hubs[t],
            self._in_dists[t],
            self._in_quals[t],
            w,
        )

    def distance_many(self, queries) -> List[float]:
        """Answer a batch of directed ``(s, t, w)`` queries with the
        Query+ kernel (list storage; the batch counterpart of
        :meth:`distance`)."""
        out_hubs, out_dists, out_quals = (
            self._out_hubs,
            self._out_dists,
            self._out_quals,
        )
        in_hubs, in_dists, in_quals = (
            self._in_hubs,
            self._in_dists,
            self._in_quals,
        )
        n = self._num_vertices
        results: List[float] = []
        append = results.append
        for s, t, w in queries:
            if not 0 <= s < n or not 0 <= t < n:
                raise ValueError(f"query vertex out of range in ({s}, {t})")
            append(
                merge_linear(
                    out_hubs[s],
                    out_dists[s],
                    out_quals[s],
                    in_hubs[t],
                    in_dists[t],
                    in_quals[t],
                    w,
                )
            )
        return results

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------
    def freeze(self, backend=None):
        """Snapshot into a
        :class:`~repro.core.frozen.FrozenDirectedWCIndex` — the
        flat-array query engine for directed indexes.  The frozen copy is
        independent, and ``freeze().thaw()`` reproduces the index
        exactly."""
        from .frozen import FrozenDirectedWCIndex

        return FrozenDirectedWCIndex.freeze(self, backend=backend)

    def distance_profile(self, s: int, t: int) -> List[Tuple[float, float]]:
        """The quality/distance Pareto staircase for the directed pair
        ``s -> t`` (see :func:`repro.core.profile.distance_profile`)."""
        from .profile import profile_from_label_lists

        if not 0 <= s < self._num_vertices or not 0 <= t < self._num_vertices:
            raise ValueError("query vertex out of range")
        if s == t:
            return [(INF, 0.0)]
        return profile_from_label_lists(
            self._out_hubs[s],
            self._out_dists[s],
            self._out_quals[s],
            self._in_hubs[t],
            self._in_dists[t],
            self._in_quals[t],
        )

    # ------------------------------------------------------------------
    # Path reconstruction (requires track_parents=True)
    # ------------------------------------------------------------------
    def path(self, s: int, t: int, w: float) -> Optional[List[int]]:
        """A shortest directed w-path ``s -> t`` as a vertex list, or
        ``None``.  Needs an index built with ``track_parents=True``."""
        if self._in_parents is None or self._out_parents is None:
            raise ValueError(
                "path queries need an index built with track_parents=True"
            )
        if not 0 <= s < self._num_vertices or not 0 <= t < self._num_vertices:
            raise ValueError("query vertex out of range")
        if s == t:
            return [s]
        from .query import merge_linear_with_witness

        dist, idx_s, idx_t = merge_linear_with_witness(
            self._out_hubs[s],
            self._out_dists[s],
            self._out_quals[s],
            self._in_hubs[t],
            self._in_dists[t],
            self._in_quals[t],
            w,
        )
        if dist == INF:
            return None
        hub_rank = self._out_hubs[s][idx_s]
        hub_vertex = self._order[hub_rank]
        # L_out parents step forward along s -> hub; L_in parents step
        # backward along hub -> t.
        left = self._walk(
            self._out_hubs, self._out_dists, self._out_quals,
            self._out_parents, s, hub_vertex, idx_s,
        )
        right = self._walk(
            self._in_hubs, self._in_dists, self._in_quals,
            self._in_parents, t, hub_vertex, idx_t,
        )
        right.reverse()
        return left + right[1:]

    def _walk(
        self,
        hubs: List[List[int]],
        dists: List[List[float]],
        quals: List[List[float]],
        parents: List[List[int]],
        v: int,
        hub_vertex: int,
        entry_idx: int,
    ) -> List[int]:
        """Follow parent pointers from ``v``'s entry back to the hub;
        returns ``[v, ..., hub_vertex]``.  Same completeness argument as
        the undirected walk: expansion only happened from inserted
        entries, so every parent owns a one-hop-closer entry of at least
        the same quality."""
        sequence = [v]
        current, idx = v, entry_idx
        while current != hub_vertex:
            hub_rank = hubs[current][idx]
            d = dists[current][idx]
            q = quals[current][idx]
            parent = parents[current][idx]
            if parent < 0:
                raise RuntimeError("broken parent chain in directed index")
            sequence.append(parent)
            idx = self._locate(
                hubs[parent], dists[parent], quals[parent], hub_rank, d - 1, q
            )
            current = parent
        return sequence

    @staticmethod
    def _locate(
        hubs: List[int],
        dists: List[float],
        quals: List[float],
        hub_rank: int,
        dist: float,
        min_quality: float,
    ) -> int:
        for i in range(len(hubs)):
            if hubs[i] == hub_rank and dists[i] == dist and quals[i] >= min_quality:
                return i
        raise RuntimeError(
            f"missing parent entry (hub rank {hub_rank}, dist {dist})"
        )

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

    def in_label_lists(
        self, v: int
    ) -> Tuple[List[int], List[float], List[float]]:
        """Raw per-vertex ``L_in`` parallel lists ``(hubs, dists, quals)``."""
        self._check_vertex(v)
        return self._in_hubs[v], self._in_dists[v], self._in_quals[v]

    def out_label_lists(
        self, v: int
    ) -> Tuple[List[int], List[float], List[float]]:
        """Raw per-vertex ``L_out`` parallel lists ``(hubs, dists, quals)``."""
        self._check_vertex(v)
        return self._out_hubs[v], self._out_dists[v], self._out_quals[v]

    def in_parent_list(self, v: int) -> List[int]:
        if self._in_parents is None:
            raise ValueError("index was built without parent tracking")
        self._check_vertex(v)
        return self._in_parents[v]

    def out_parent_list(self, v: int) -> List[int]:
        if self._out_parents is None:
            raise ValueError("index was built without parent tracking")
        self._check_vertex(v)
        return self._out_parents[v]

    def entry_count(self) -> int:
        return sum(len(h) for h in self._in_hubs) + sum(
            len(h) for h in self._out_hubs
        )

    def size_bytes(self) -> int:
        """Modelled footprint at the family-wide per-entry rate
        (:data:`~repro.core.labels.BYTES_PER_ENTRY`)."""
        from .labels import BYTES_PER_ENTRY

        return BYTES_PER_ENTRY * self.entry_count()

    def in_entries_of(self, v: int) -> List[Tuple[int, float, float]]:
        return [
            (self._order[h], d, q)
            for h, d, q in zip(self._in_hubs[v], self._in_dists[v], self._in_quals[v])
        ]

    def out_entries_of(self, v: int) -> List[Tuple[int, float, float]]:
        return [
            (self._order[h], d, q)
            for h, d, q in zip(
                self._out_hubs[v], self._out_dists[v], self._out_quals[v]
            )
        ]

    def __repr__(self) -> str:
        return (
            f"DirectedWCIndex(n={self._num_vertices}, "
            f"entries={self.entry_count()})"
        )

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._num_vertices:
            raise ValueError(
                f"vertex {v} out of range [0, {self._num_vertices})"
            )
