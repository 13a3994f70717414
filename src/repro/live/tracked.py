"""Journaled live indexes: one wrapper per index family.

Each wrapper pairs a mutable graph with its list engine — the source of
truth for the family — applies edge mutations to both, and records every
op (with the set of vertices it dirtied) in an
:class:`~repro.live.journal.UpdateJournal`:

* :class:`LiveWCIndex` delegates to
  :class:`~repro.core.dynamic.DynamicWCIndex`: insertions repair the
  labeling incrementally (and report dirt exactly), deletions take the
  rebuild-on-delete path whose dirt is the before/after label diff.
* :class:`LiveDirectedWCIndex` / :class:`LiveWeightedWCIndex` have no
  incremental repair yet, so effective mutations rebuild the list
  engine *reusing the existing vertex order* and diff labels per vertex
  to report dirt.  Reusing the order is what keeps the diff meaningful:
  hub ranks are order-relative, so a changed order would dirty
  everything.  A batch through :meth:`~_LiveIndexBase.apply` stages all
  of its graph mutations first and pays **one** rebuild + diff for the
  whole batch (the batch's dirty set is journaled on its final op);
  the single-op mutators rebuild per call.

Mutations that provably cannot change the index (inserting a dominated
parallel edge, a no-op quality change) are journaled with an empty dirty
set and skip the rebuild entirely.

All three expose the same surface — ``insert_edge`` / ``delete_edge`` /
``change_quality``, the uniform :meth:`~_LiveIndexBase.apply_mutation`,
batch :meth:`~_LiveIndexBase.apply` — plus ``freeze()`` /
``distance_many()`` passthroughs, so the refreeze pipeline and the CLI
treat every family identically.  :func:`live_index` wraps a
``(graph, index)`` pair in the matching class.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..core.directed import DirectedWCIndex
from ..core.dynamic import DynamicWCIndex, require_positive_quality
from ..core.frozen import DIRECTED, UNDIRECTED, WEIGHTED, Family
from ..core.weighted import WeightedWCIndex
from ..graph.digraph import DiGraph
from ..graph.graph import Graph
from ..graph.weighted import WeightedGraph
from .journal import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_QUALITY,
    UpdateJournal,
    UpdateOp,
)


class _LiveIndexBase:
    """Shared journal plumbing and engine passthroughs."""

    family: Family

    def __init__(self, journal: Optional[UpdateJournal]) -> None:
        self.journal = journal if journal is not None else UpdateJournal()

    # -- family-specific hooks -----------------------------------------
    def _insert(self, u, v, quality, length) -> Set[int]:
        raise NotImplementedError

    def _delete(self, u, v) -> Set[int]:
        raise NotImplementedError

    def _change_quality(self, u, v, quality) -> Set[int]:
        raise NotImplementedError

    # -- uniform mutation surface --------------------------------------
    def insert_edge(self, u, v, quality, length=None) -> UpdateOp:
        """Insert (or upgrade) an edge; journals and returns the op."""
        dirty = self._insert(u, v, quality, length)
        return self.journal.record(
            KIND_INSERT, u, v, quality=quality, length=length, dirty=dirty
        )

    def delete_edge(self, u, v) -> UpdateOp:
        """Delete an edge; journals and returns the op."""
        dirty = self._delete(u, v)
        return self.journal.record(KIND_DELETE, u, v, dirty=dirty)

    def change_quality(self, u, v, quality) -> UpdateOp:
        """Change an existing edge's quality; journals and returns the op."""
        dirty = self._change_quality(u, v, quality)
        return self.journal.record(
            KIND_QUALITY, u, v, quality=quality, dirty=dirty
        )

    def apply_mutation(self, kind, u, v, quality=None, length=None) -> UpdateOp:
        """Apply one parsed mutation tuple (the journal/file grammar)."""
        if kind == KIND_INSERT:
            return self.insert_edge(u, v, quality, length)
        if kind == KIND_DELETE:
            return self.delete_edge(u, v)
        if kind == KIND_QUALITY:
            return self.change_quality(u, v, quality)
        raise ValueError(f"unknown mutation kind {kind!r}")

    def apply(self, mutations) -> Set[int]:
        """Apply a batch of parsed mutations in order; returns the union
        of the batch's dirty sets.  A missing edge fails with the
        offending mutation named."""
        dirty: Set[int] = set()
        for mutation in mutations:
            try:
                dirty |= self.apply_mutation(*mutation).dirty
            except KeyError:
                raise KeyError(_no_such_edge(mutation)) from None
        return dirty

    # -- engine passthroughs -------------------------------------------
    @property
    def index(self):
        raise NotImplementedError

    @property
    def graph(self):
        raise NotImplementedError

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def distance(self, s: int, t: int, w: float) -> float:
        return self.index.distance(s, t, w)

    def distance_many(self, queries) -> List[float]:
        return self.index.distance_many(queries)

    def freeze(self, backend=None):
        """Snapshot the current list engine into its frozen counterpart."""
        return self.index.freeze(backend=backend)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.num_vertices}, "
            f"{len(self.journal)} journaled ops)"
        )


class LiveWCIndex(_LiveIndexBase):
    """Journaled undirected index over a
    :class:`~repro.core.dynamic.DynamicWCIndex` (incremental inserts,
    rebuild-on-delete).

    Batches through :meth:`apply` coalesce **consecutive delete ops**
    into one ``delete_edges`` call — one rebuild per run instead of one
    per edge (the run's dirty set is journaled on its final op); other
    ops keep their exact per-op repair and dirt.
    """

    family = UNDIRECTED

    def __init__(
        self,
        graph: Graph,
        ordering="hybrid",
        *,
        index=None,
        journal: Optional[UpdateJournal] = None,
    ) -> None:
        super().__init__(journal)
        self._dyn = DynamicWCIndex(graph, ordering, index=index)

    @property
    def dynamic(self) -> DynamicWCIndex:
        return self._dyn

    @property
    def index(self):
        return self._dyn.index

    @property
    def graph(self) -> Graph:
        return self._dyn.graph

    def _insert(self, u, v, quality, length) -> Set[int]:
        _reject_length(self, length)
        return self._dyn.insert_edge(u, v, quality)

    def _delete(self, u, v) -> Set[int]:
        return self._dyn.delete_edge(u, v)

    def _change_quality(self, u, v, quality) -> Set[int]:
        return self._dyn.change_quality(u, v, quality)

    def apply(self, mutations) -> Set[int]:
        """Apply a batch, coalescing consecutive deletes into a single
        rebuild; returns the union of the batch's dirty sets."""
        dirty: Set[int] = set()
        run: List[tuple] = []  # pending consecutive delete ops

        def flush() -> None:
            nonlocal dirty
            if not run:
                return
            # delete_edges validates the whole run before mutating, so
            # a missing (or repeated) edge cannot leave the graph
            # half-deleted without a rebuild.
            try:
                batch_dirty = self._dyn.delete_edges(
                    [(u, v) for _, u, v, _, _ in run]
                )
            except KeyError as exc:
                u, v = exc.args[0]
                raise KeyError(
                    _no_such_edge((KIND_DELETE, u, v, None, None))
                ) from None
            for at, (kind, u, v, _, _) in enumerate(run):
                self.journal.record(
                    kind, u, v,
                    dirty=batch_dirty if at == len(run) - 1 else (),
                )
            dirty |= batch_dirty
            run.clear()

        for mutation in mutations:
            expanded = _expand(mutation)
            if expanded[0] == KIND_DELETE:
                run.append(expanded)
                continue
            flush()
            try:
                dirty |= self.apply_mutation(*expanded).dirty
            except KeyError:
                raise KeyError(_no_such_edge(mutation)) from None
        flush()
        return dirty


class _RebuildingLiveIndex(_LiveIndexBase):
    """Shared rebuild-and-diff machinery for the extension families.

    Mutations split into a *stage* step (graph surgery only, returning
    whether the graph changed) and the rebuild + diff that refreshes the
    list engine; the single-op mutators run both, the batch
    :meth:`apply` stages everything and rebuilds once.
    """

    def __init__(self, graph, index, journal) -> None:
        super().__init__(journal)
        self._graph = graph
        self._index = index
        self._order = list(index.order)

    @property
    def index(self):
        return self._index

    @property
    def graph(self):
        return self._graph

    def _rebuild_index(self):
        raise NotImplementedError

    def _diff(self, old, new) -> Set[int]:
        raise NotImplementedError

    def _rebuild_diff(self) -> Set[int]:
        old = self._index
        self._index = self._rebuild_index()
        return self._diff(old, self._index)

    # -- staging ------------------------------------------------------
    def _stage_insert(self, u, v, quality, length) -> bool:
        raise NotImplementedError

    def _stage_delete(self, u, v) -> bool:
        self._graph.remove_edge(u, v)
        return True

    def _stage_quality(self, u, v, quality) -> bool:
        raise NotImplementedError

    def _stage(self, kind, u, v, quality, length) -> bool:
        if kind == KIND_INSERT:
            return self._stage_insert(u, v, quality, length)
        if kind == KIND_DELETE:
            return self._stage_delete(u, v)
        if kind == KIND_QUALITY:
            return self._stage_quality(u, v, quality)
        raise ValueError(f"unknown mutation kind {kind!r}")

    def _insert(self, u, v, quality, length) -> Set[int]:
        if not self._stage_insert(u, v, quality, length):
            return set()
        return self._rebuild_diff()

    def _delete(self, u, v) -> Set[int]:
        self._stage_delete(u, v)
        return self._rebuild_diff()

    def _change_quality(self, u, v, quality) -> Set[int]:
        if not self._stage_quality(u, v, quality):
            return set()
        return self._rebuild_diff()

    def apply(self, mutations) -> Set[int]:
        """Apply a batch with a *single* rebuild + diff.

        Graph mutations are staged op by op, then one rebuild refreshes
        the list engine — a k-op batch costs one construction instead of
        k.  Every staged op is journaled; since the diff is computed at
        batch granularity, the batch's dirty set rides on its final op.
        If an op fails mid-batch, the ops staged before it are rebuilt
        in and journaled before the error propagates, so the engine
        never drifts from the graph.
        """
        staged: List[tuple] = []
        changed = False
        try:
            for mutation in mutations:
                kind, u, v, quality, length = _expand(mutation)
                try:
                    changed |= self._stage(kind, u, v, quality, length)
                except KeyError:
                    raise KeyError(_no_such_edge(mutation)) from None
                staged.append((kind, u, v, quality, length))
        finally:
            dirty = self._rebuild_diff() if changed else set()
            for at, (kind, u, v, quality, length) in enumerate(staged):
                self.journal.record(
                    kind,
                    u,
                    v,
                    quality=quality,
                    length=length,
                    dirty=dirty if at == len(staged) - 1 else (),
                )
        return set(dirty)


class LiveDirectedWCIndex(_RebuildingLiveIndex):
    """Journaled directed index (rebuild with reused order on update)."""

    family = DIRECTED

    def __init__(
        self,
        graph: DiGraph,
        *,
        index: Optional[DirectedWCIndex] = None,
        journal: Optional[UpdateJournal] = None,
    ) -> None:
        if index is None:
            index = DirectedWCIndex(graph)
        if index.num_vertices != graph.num_vertices:
            raise ValueError(
                f"index has {index.num_vertices} vertices, "
                f"graph has {graph.num_vertices}"
            )
        super().__init__(graph, index, journal)

    def _rebuild_index(self) -> DirectedWCIndex:
        return DirectedWCIndex(
            self._graph,
            self._order,
            track_parents=self._index.tracks_parents,
        )

    def _diff(self, old, new) -> Set[int]:
        dirty: Set[int] = set()
        parents = old.tracks_parents and new.tracks_parents
        for v in range(new.num_vertices):
            if old.in_label_lists(v) != new.in_label_lists(v):
                dirty.add(v)
            elif old.out_label_lists(v) != new.out_label_lists(v):
                dirty.add(v)
            elif parents and (
                old.in_parent_list(v) != new.in_parent_list(v)
                or old.out_parent_list(v) != new.out_parent_list(v)
            ):
                dirty.add(v)
        return dirty

    def _stage_insert(self, u, v, quality, length) -> bool:
        _reject_length(self, length)
        if self._graph.has_edge(u, v) and self._graph.quality(u, v) >= quality:
            return False  # dominated parallel arc: graph unchanged
        self._graph.add_edge(u, v, quality)
        return True

    def _stage_quality(self, u, v, quality) -> bool:
        old = self._graph.quality(u, v)  # KeyError if absent
        require_positive_quality(quality)  # before the remove below
        if quality == old:
            return False
        self._graph.remove_edge(u, v)
        self._graph.add_edge(u, v, quality)
        return True


class LiveWeightedWCIndex(_RebuildingLiveIndex):
    """Journaled weighted index (rebuild with reused order on update).

    Weighted inserts carry a length (default 1.0 when the mutation omits
    it); ``change_quality`` keeps the edge's length.
    """

    family = WEIGHTED

    def __init__(
        self,
        graph: WeightedGraph,
        *,
        index: Optional[WeightedWCIndex] = None,
        journal: Optional[UpdateJournal] = None,
    ) -> None:
        if index is None:
            index = WeightedWCIndex(graph)
        if index.num_vertices != graph.num_vertices:
            raise ValueError(
                f"index has {index.num_vertices} vertices, "
                f"graph has {graph.num_vertices}"
            )
        super().__init__(graph, index, journal)

    def _rebuild_index(self) -> WeightedWCIndex:
        return WeightedWCIndex(
            self._graph,
            self._order,
            track_parents=self._index.tracks_parents,
        )

    def _diff(self, old, new) -> Set[int]:
        dirty: Set[int] = set()
        parents = old.tracks_parents and new.tracks_parents
        for v in range(new.num_vertices):
            if old.label_lists(v) != new.label_lists(v):
                dirty.add(v)
            elif parents and old.parent_pairs(v) != new.parent_pairs(v):
                dirty.add(v)
        return dirty

    def _stage_insert(self, u, v, quality, length) -> bool:
        length = 1.0 if length is None else length
        before = self._graph.edge(u, v) if self._graph.has_edge(u, v) else None
        self._graph.add_edge(u, v, length, quality)
        return self._graph.edge(u, v) != before  # False: dominated edge

    def _stage_quality(self, u, v, quality) -> bool:
        length, old = self._graph.edge(u, v)  # KeyError if absent
        require_positive_quality(quality)  # before the remove below
        if quality == old:
            return False
        self._graph.remove_edge(u, v)
        self._graph.add_edge(u, v, length, quality)
        return True


def _expand(mutation) -> tuple:
    """Pad a parsed mutation (3 to 5 fields) to the full 5-tuple."""
    if not 3 <= len(mutation) <= 5:
        raise ValueError(f"mutation must have 3-5 fields, got {mutation!r}")
    return tuple(mutation) + (None,) * (5 - len(mutation))


def _no_such_edge(mutation) -> str:
    from .journal import format_mutation

    return (
        f"no such edge for mutation {format_mutation(*_expand(mutation))!r}"
    )


def _reject_length(live: _LiveIndexBase, length) -> None:
    if length is not None:
        raise ValueError(
            f"edge lengths only apply to the weighted family, "
            f"not {live.family.name}"
        )


def live_index(graph, *, index=None, journal=None) -> _LiveIndexBase:
    """Wrap a ``(graph, index)`` pair in the matching live wrapper.

    Dispatches on the graph type; ``index`` (optional) is an
    already-built list engine of the same family — e.g. a thawed
    ``.wcxb`` image — adopted instead of building from scratch.
    """
    if isinstance(graph, Graph):
        return LiveWCIndex(graph, index=index, journal=journal)
    if isinstance(graph, DiGraph):
        return LiveDirectedWCIndex(graph, index=index, journal=journal)
    if isinstance(graph, WeightedGraph):
        return LiveWeightedWCIndex(graph, index=index, journal=journal)
    raise TypeError(
        f"no live index wrapper for graph type {type(graph).__name__}"
    )
