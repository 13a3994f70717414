"""WC-INDEX label storage (Definition 6).

A :class:`WCIndex` assigns each vertex ``u`` a label set ``L(u)`` of entries
``(hub, dist, quality)``: there is a minimal (Pareto-optimal) quality-``w``
path of length ``dist`` between ``u`` and ``hub``.  Entries are stored as
three parallel lists per vertex, sorted by hub *rank*; within a hub group
they obey the Theorem 3 invariant (ascending distance <=> ascending
quality), which is what makes the ``Query+`` kernel linear.

The class is a passive container: construction lives in
:mod:`repro.core.construction`, invariant checkers in
:mod:`repro.core.validation`.  For query-heavy serving, :meth:`WCIndex.freeze`
snapshots the lists into the flat-array
:class:`~repro.core.frozen.FrozenWCIndex` engine (same answers, contiguous
storage, precomputed group directory).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .frozen import UNDIRECTED
from .query import MERGE_KERNELS, merge_linear, merge_linear_with_witness

INF = float("inf")

#: Storage cost per entry in the frozen flat layout
#: (:class:`~repro.core.frozen.FrozenWCIndex`): a 4-byte hub rank
#: (``array("i")``) plus 8-byte distance and quality (``array("d")``).
#: ``WCIndex.size_bytes`` models this rate so the list engine reports the
#: same per-entry footprint its frozen snapshot actually occupies (the
#: frozen ``nbytes`` adds only the offset table and group directory).
BYTES_PER_ENTRY = 4 + 8 + 8


class WCIndex:
    """The WC-INDEX: one 2-hop label set per vertex.

    Attributes
    ----------
    order:
        ``order[rank] = vertex`` — the vertex order used at construction.
    rank:
        Inverse permutation, ``rank[vertex] = rank``.
    """

    #: The index family (shared with the frozen engine).
    family = UNDIRECTED

    __slots__ = (
        "order",
        "rank",
        "_hub_ranks",
        "_dists",
        "_quals",
        "_parents",
    )

    def __init__(self, order: Sequence[int], track_parents: bool = False) -> None:
        self.order: List[int] = list(order)
        n = len(self.order)
        self.rank: List[int] = [0] * n
        for r, v in enumerate(self.order):
            self.rank[v] = r
        self._hub_ranks: List[List[int]] = [[] for _ in range(n)]
        self._dists: List[List[float]] = [[] for _ in range(n)]
        self._quals: List[List[float]] = [[] for _ in range(n)]
        self._parents: Optional[List[List[int]]] = (
            [[] for _ in range(n)] if track_parents else None
        )

    # ------------------------------------------------------------------
    # Population (used by the builders)
    # ------------------------------------------------------------------
    @classmethod
    def from_label_lists(
        cls,
        order: Sequence[int],
        hub_ranks: List[List[int]],
        dists: List[List[float]],
        quals: List[List[float]],
        parents: Optional[List[List[int]]] = None,
    ) -> "WCIndex":
        """Adopt builder-owned per-vertex label lists wholesale.

        The supported way for builders (and :meth:`FrozenWCIndex.thaw
        <repro.core.frozen.FrozenWCIndex.thaw>`) to hand over finished
        label storage without appending entry by entry — the lists are
        taken over, not copied, so callers must not keep mutating them.
        """
        index = cls(order, track_parents=parents is not None)
        n = index.num_vertices
        if not (len(hub_ranks) == len(dists) == len(quals) == n):
            raise ValueError(f"label lists must have {n} rows")
        if parents is not None and len(parents) != n:
            raise ValueError(f"parent lists must have {n} rows")
        index._hub_ranks = hub_ranks
        index._dists = dists
        index._quals = quals
        index._parents = parents
        return index

    def append_entry(
        self, v: int, hub_rank: int, dist: float, quality: float, parent: int = -1
    ) -> None:
        """Append an entry; the builder guarantees sorted order."""
        self._hub_ranks[v].append(hub_rank)
        self._dists[v].append(dist)
        self._quals[v].append(quality)
        if self._parents is not None:
            self._parents[v].append(parent)

    def insert_entry_sorted(
        self, v: int, hub_rank: int, dist: float, quality: float, parent: int = -1
    ) -> bool:
        """Insert an entry keeping hub/(dist, quality) order — the dynamic
        index uses this since repairs arrive out of construction order.

        Entries dominated by the new one are dropped; if the new entry is
        itself dominated, nothing changes and ``False`` is returned.
        """
        hubs, dists, quals = self._hub_ranks[v], self._dists[v], self._quals[v]
        parents = self._parents[v] if self._parents is not None else None
        # Locate the hub group.
        lo, hi = 0, len(hubs)
        while lo < hi:
            mid = (lo + hi) // 2
            if hubs[mid] < hub_rank:
                lo = mid + 1
            else:
                hi = mid
        start = lo
        end = start
        while end < len(hubs) and hubs[end] == hub_rank:
            end += 1
        # Dominance against existing group entries.
        for i in range(start, end):
            if dists[i] <= dist and quals[i] >= quality:
                return False
        keep = [
            i
            for i in range(start, end)
            if not (dist <= dists[i] and quality >= quals[i])
        ]
        new_group = sorted(
            [(dists[i], quals[i], parents[i] if parents else -1) for i in keep]
            + [(dist, quality, parent)]
        )
        hubs[start:end] = [hub_rank] * len(new_group)
        dists[start:end] = [g[0] for g in new_group]
        quals[start:end] = [g[1] for g in new_group]
        if parents is not None:
            parents[start:end] = [g[2] for g in new_group]
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, s: int, t: int, w: float) -> float:
        """w-constrained distance via the Query+ linear merge (Alg. 5)."""
        self._check_vertex(s)
        self._check_vertex(t)
        return merge_linear(
            self._hub_ranks[s],
            self._dists[s],
            self._quals[s],
            self._hub_ranks[t],
            self._dists[t],
            self._quals[t],
            w,
        )

    def distance_with(self, s: int, t: int, w: float, kernel: str) -> float:
        """w-constrained distance using a named kernel
        (``"naive"`` / ``"binary"`` / ``"linear"``)."""
        self._check_vertex(s)
        self._check_vertex(t)
        try:
            merge = MERGE_KERNELS[kernel]
        except KeyError:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {sorted(MERGE_KERNELS)}"
            ) from None
        return merge(
            self._hub_ranks[s],
            self._dists[s],
            self._quals[s],
            self._hub_ranks[t],
            self._dists[t],
            self._quals[t],
            w,
        )

    def distance_with_witness(
        self, s: int, t: int, w: float
    ) -> Tuple[float, int, int]:
        """Distance plus the winning entry indexes in ``L(s)`` / ``L(t)``
        (used by path reconstruction)."""
        self._check_vertex(s)
        self._check_vertex(t)
        return merge_linear_with_witness(
            self._hub_ranks[s],
            self._dists[s],
            self._quals[s],
            self._hub_ranks[t],
            self._dists[t],
            self._quals[t],
            w,
        )

    def reachable(self, s: int, t: int, w: float) -> bool:
        """Whether any w-path connects ``s`` and ``t``."""
        return self.distance(s, t, w) != INF

    def distance_many(self, queries) -> List[float]:
        """Answer a batch of ``(s, t, w)`` queries with the Query+ kernel.

        Accepts any iterable (including a
        :class:`~repro.workloads.queries.QueryWorkload`); hoists attribute
        lookups out of the loop, which matters in tight evaluation loops.
        """
        hub_lists = self._hub_ranks
        dist_lists = self._dists
        qual_lists = self._quals
        n = len(self.order)
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
        """Snapshot into a :class:`~repro.core.frozen.FrozenWCIndex` —
        the flat-array query engine.  The frozen copy is independent:
        further mutation of this index does not affect it, and
        ``freeze().thaw()`` reproduces the index exactly."""
        from .frozen import FrozenWCIndex

        return FrozenWCIndex.freeze(self, backend=backend)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.order)

    @property
    def tracks_parents(self) -> bool:
        return self._parents is not None

    def label_lists(self, v: int) -> Tuple[List[int], List[float], List[float]]:
        """Raw per-vertex parallel lists ``(hub_ranks, dists, quals)``."""
        self._check_vertex(v)
        return self._hub_ranks[v], self._dists[v], self._quals[v]

    def parent_list(self, v: int) -> List[int]:
        if self._parents is None:
            raise ValueError("index was built without parent tracking")
        return self._parents[v]

    def entries_of(self, v: int) -> List[Tuple[int, float, float]]:
        """Label set of ``v`` as ``(hub_vertex, dist, quality)`` triples."""
        self._check_vertex(v)
        return [
            (self.order[h], d, q)
            for h, d, q in zip(self._hub_ranks[v], self._dists[v], self._quals[v])
        ]

    def iter_entries(self) -> Iterator[Tuple[int, int, float, float]]:
        """All entries as ``(vertex, hub_vertex, dist, quality)``."""
        for v in range(self.num_vertices):
            for h, d, q in zip(self._hub_ranks[v], self._dists[v], self._quals[v]):
                yield (v, self.order[h], d, q)

    def label_size(self, v: int) -> int:
        return len(self._hub_ranks[v])

    def entry_count(self) -> int:
        return sum(len(hubs) for hubs in self._hub_ranks)

    def max_label_size(self) -> int:
        return max((len(hubs) for hubs in self._hub_ranks), default=0)

    def size_bytes(self) -> int:
        """Modelled storage footprint (see :data:`BYTES_PER_ENTRY`)."""
        return BYTES_PER_ENTRY * self.entry_count()

    def __repr__(self) -> str:
        return (
            f"WCIndex(n={self.num_vertices}, entries={self.entry_count()}, "
            f"max_label={self.max_label_size()})"
        )

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self.order):
            raise ValueError(f"vertex {v} out of range [0, {len(self.order)})")
