"""Frozen flat-array WC-INDEX storage — the zero-copy query engine.

A built :class:`~repro.core.labels.WCIndex` stores labels as per-vertex
Python lists, which is what a builder wants (cheap appends, in-place
repairs) but not what a query engine wants: every merge re-discovers hub
group boundaries with ``group_end`` scans and chases one list object per
vertex per side.  :class:`FrozenIndex` is the immutable counterpart, the
same idea that makes pruned-landmark-labeling implementations fast —
all labels in flat, contiguous stdlib-``array`` storage.  One label
side (:class:`_FlatSide`) holds:

* ``hubs`` (``"i"``), ``dists`` (``"d"``), ``quals`` (``"d"``) — one global
  parallel array triple holding every entry of every vertex,
* ``offsets`` (``"q"``, length ``n + 1``) — ``offsets[v] .. offsets[v+1]``
  is the slice of vertex ``v``,
* ``parents`` — a tuple of 0, 1 or 2 entry-parallel ``"i"`` columns (BFS
  parents, or the weighted family's ``(parent_vertex, parent_entry)``
  pairs) when the source index tracked them,
* the **hub groups** of each vertex, built the first time a query
  touches that vertex — an ordered ``hub_rank -> (start, end)`` map
  (global positions), so the ``*_flat`` merge kernels step one group at
  a time and never scan for a boundary, and the stdlib batch path
  intersects the *smaller* side's groups against the larger side in
  ``O(min)`` hash lookups.

The engine is **two-sided**: a query ``(s, t, w)`` merges the out side
of ``s`` against the in side of ``t``.  The directed family keeps
separate ``L_out`` / ``L_in`` sides; the undirected and weighted
families are the symmetric case where one side answers both ``s`` and
``t`` (the weighted side carries real-valued distances in the same
64-bit ``"d"`` store, so the kernels apply unchanged).  What tells the
families apart is a small :class:`Family` descriptor — variant tag,
symmetry, parent-column names, thaw target, parent validator — and the
three public classes :class:`FrozenWCIndex`,
:class:`FrozenDirectedWCIndex` and :class:`FrozenWeightedWCIndex` are
thin subclasses that set it and add their family's label accessors.

Every flat store is **buffer-backed**: a side holds typed ``memoryview``
objects (obtained via ``memoryview.cast``) over whatever buffer supplied
the data — owned ``array`` objects materialized by ``freeze()``, an
``mmap`` of a ``.wcxb`` file, or a ``multiprocessing.shared_memory``
segment.  The engine never copies the label data; queries read straight
through the views.  An engine attached to a borrowed buffer is detached
with :meth:`~FrozenIndex.release` (releases every view so the mmap /
shared-memory segment can be closed); released engines must not be
queried again.

The per-entry cost is :data:`~repro.core.labels.BYTES_PER_ENTRY` bytes
(4 + 8 + 8); :meth:`~FrozenIndex.nbytes` reports the real total footprint
including the offset tables and directories (a symmetric side counted
once).  Freezing is lossless and reversible: ``index.freeze()`` →
frozen engine → :meth:`~FrozenIndex.thaw` → list engine round-trips every
entry, so a frozen index can be thawed for dynamic updates and
re-frozen.  The compact binary serialization (``.wcxb``) lives in
:mod:`repro.core.serialize`.

Batch queries (``distance_many``) run through a pluggable **kernel
backend** (:mod:`repro.core.kernels`): the pure-Python ``stdlib``
hash-intersection merge, or the vectorized ``numpy`` kernels over
``numpy.frombuffer`` views of the same buffers.  Every engine accepts
``backend=`` (``"auto"`` — the default — picks numpy when installed)
and exposes ``kernel_backend`` / ``select_backend()``.
"""

from __future__ import annotations

import importlib
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import compress
from operator import ne
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .kernels import resolve_backend
from .query import MERGE_KERNELS_FLAT, merge_linear_flat_with_witness

INF = float("inf")

#: Explicit typecodes of the flat arrays.  ``"i"`` (C int, 4 bytes) holds
#: hub ranks / vertex ids / parents, ``"d"`` (8 bytes) distances and
#: qualities, ``"q"`` (8 bytes) offsets — chosen over the
#: platform-dependent ``"l"`` so footprints are deterministic everywhere.
HUB_TYPECODE = "i"
VALUE_TYPECODE = "d"
OFFSET_TYPECODE = "q"

#: Modelled bytes per group-directory record: hub rank (4) plus the two
#: 8-byte positions — what a flat ``(i, q, q)`` triple costs.
BYTES_PER_GROUP = 4 + 8 + 8


def _as_view(values, typecode: str) -> memoryview:
    """Normalize ``values`` (``array``, ``memoryview``, ``bytes``-like) to
    a typed ``memoryview`` without copying.

    An untyped (``"B"``-format) buffer is cast to ``typecode``; a typed
    view or array is wrapped as-is, so owned ``array`` storage and
    borrowed mmap / shared-memory bytes flow through the same code path.
    """
    view = memoryview(values)
    if view.format != typecode:
        view = view.cast(typecode)
    return view


def _check_parent_ids(n: int, offsets, columns) -> None:
    """BFS parents: every id in ``[-1, n)``."""
    for parent in columns[0]:
        if not -1 <= parent < n:
            raise ValueError(f"parent id {parent} out of range [-1, {n})")


def _check_parent_pairs(n: int, offsets, columns) -> None:
    """Weighted parents are ``(vertex, entry_index)`` pairs: the vertex in
    range, and the entry index addressing an existing entry of that
    parent's label (or ``(-1, -1)`` for a hub's self entry)."""
    parent_vertices, parent_entries = columns
    for i in range(len(parent_vertices)):
        parent = parent_vertices[i]
        entry = parent_entries[i]
        if not -1 <= parent < n:
            raise ValueError(f"parent vertex {parent} out of range [-1, {n})")
        if parent < 0:
            continue
        if not 0 <= entry < offsets[parent + 1] - offsets[parent]:
            raise ValueError(
                f"parent entry index {entry} out of range for vertex {parent}"
            )


@dataclass(frozen=True)
class Family:
    """What distinguishes one index family's frozen engine.

    ``variant`` is the ``.wcxb`` header tag; a ``symmetric`` family has
    one label side answering both endpoints, the directed family an
    ``in_`` and an ``out_`` side (in that file order).
    ``parent_columns`` names a side's entry-parallel parent columns;
    the list engine exposes them per vertex through ``parent_accessor``
    (one value per entry for one column, a tuple for more).
    ``thaw_target`` is the list engine (``"module.Class"`` under
    :mod:`repro.core`) and ``validate_parents(n, offsets, columns)``
    raises ``ValueError`` on parent columns the family cannot hold.
    """

    variant: int
    name: str
    symmetric: bool
    parent_columns: Tuple[str, ...]
    parent_accessor: str
    thaw_target: str
    validate_parents: Callable

    @property
    def side_prefixes(self) -> Tuple[str, ...]:
        """Per-side accessor / section-name prefixes, in file order."""
        return ("",) if self.symmetric else ("in_", "out_")

    def side_sources(self, index):
        """Per side of the list engine ``index``, in file order:
        ``(label_lists, parents)`` callables of a vertex — ``parents``
        yields one sequence per parent column (``None`` without parent
        tracking)."""
        width = len(self.parent_columns)
        sources = []
        for prefix in self.side_prefixes:
            parents = None
            if index.tracks_parents:
                accessor = getattr(index, prefix + self.parent_accessor)
                parents = partial(_parent_columns, accessor, width)
            sources.append((getattr(index, prefix + "label_lists"), parents))
        return sources


UNDIRECTED = Family(
    variant=0,
    name="undirected",
    symmetric=True,
    parent_columns=("parents",),
    parent_accessor="parent_list",
    thaw_target="labels.WCIndex",
    validate_parents=_check_parent_ids,
)
DIRECTED = Family(
    variant=1,
    name="directed",
    symmetric=False,
    parent_columns=("parents",),
    parent_accessor="parent_list",
    thaw_target="directed.DirectedWCIndex",
    validate_parents=_check_parent_ids,
)
WEIGHTED = Family(
    variant=2,
    name="weighted",
    symmetric=True,
    parent_columns=("parent_vertices", "parent_entries"),
    parent_accessor="parent_pairs",
    thaw_target="weighted.WeightedWCIndex",
    validate_parents=_check_parent_pairs,
)
#: Every family by ``.wcxb`` variant tag.
FAMILIES = {family.variant: family for family in (UNDIRECTED, DIRECTED, WEIGHTED)}


def _parent_columns(accessor, width: int, v: int):
    """Vertex ``v``'s parent entries, as the list engine's ``accessor``
    returns them, split into ``width`` column sequences."""
    raw = accessor(v)
    if width == 1:
        return (raw,)
    return tuple(zip(*raw)) or ((),) * width


def _join_parents(columns, start: int, stop: int) -> list:
    """The inverse of :func:`_parent_columns` over one vertex's slice."""
    if len(columns) == 1:
        return list(columns[0][start:stop])
    return list(zip(*(column[start:stop] for column in columns)))


class FrozenIndex:
    """Immutable flat-array snapshot of a list-backed index.

    ``FrozenIndex(order, out_side, in_side=None)``: ``in_side=None``
    means symmetric — the one side answers both ``s`` and ``t``.  Use
    the family subclasses; construct via ``freeze`` (or the list
    engine's ``freeze()``), never directly from user code.
    """

    #: The index family; every concrete subclass sets it.
    family: Family

    __slots__ = ("order", "rank", "_out", "_in", "_backend")

    def __init__(
        self,
        order: Sequence[int],
        out_side: "_FlatSide",
        in_side: Optional["_FlatSide"] = None,
        backend=None,
    ) -> None:
        family = self.family
        if (in_side is None) != family.symmetric:
            raise ValueError(
                f"a {family.name} engine takes "
                f"{'one label side' if family.symmetric else 'two label sides'}"
            )
        self._out = out_side
        self._in = out_side if in_side is None else in_side
        n = len(order)
        for side in self.sides():
            if len(side.offsets) != n + 1:
                raise ValueError("label sides disagree with the vertex order")
            if len(side.parents) not in (0, len(family.parent_columns)):
                raise ValueError(
                    f"a {family.name} side carries "
                    f"{len(family.parent_columns)} parent column(s), "
                    f"got {len(side.parents)}"
                )
        if len(self._in.parents) != len(self._out.parents):
            raise ValueError("parent tracking must match on both sides")
        self._backend = resolve_backend(backend)
        self.order: List[int] = list(order)
        self.rank: List[int] = [0] * n
        for r, v in enumerate(self.order):
            self.rank[v] = r

    # ------------------------------------------------------------------
    # Freezing / thawing
    # ------------------------------------------------------------------
    @classmethod
    def from_sides(cls, order: Sequence[int], sides, backend=None):
        """Build from label sides in file order (``L_in`` before
        ``L_out`` for the directed family)."""
        *in_side, out_side = sides
        return cls(order, out_side, *in_side, backend=backend)

    @classmethod
    def freeze(cls, index, backend=None):
        """Snapshot a list-backed index of this family into flat storage."""
        n = index.num_vertices
        width = len(cls.family.parent_columns)
        sides = [
            _FlatSide.from_lists(n, labels, parents, width)
            for labels, parents in cls.family.side_sources(index)
        ]
        return cls.from_sides(index.order, sides, backend=backend)

    def thaw(self):
        """Expand back into the family's mutable list engine (for dynamic
        updates); ``freeze(thaw(f))`` reproduces ``f`` exactly."""
        module, name = self.family.thaw_target.rsplit(".", 1)
        target = getattr(importlib.import_module("." + module, __package__), name)
        lists = [side.to_lists() for side in self.sides()]
        labels = [column for side in lists for column in side[:3]]
        parents = [side[3] for side in lists]
        return target.from_label_lists(self.order, *labels, *parents)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, s: int, t: int, w: float) -> float:
        """w-constrained distance ``s -> t`` via the flat Query+ merge
        (Alg. 5) of the out side of ``s`` and the in side of ``t``."""
        return self.distance_with(s, t, w, "linear")

    def distance_with(self, s: int, t: int, w: float, kernel: str) -> float:
        """w-constrained distance using a named flat kernel
        (``"naive"`` / ``"binary"`` / ``"linear"``)."""
        self._check_vertex(s)
        self._check_vertex(t)
        try:
            merge = MERGE_KERNELS_FLAT[kernel]
        except KeyError:
            raise ValueError(
                f"unknown kernel {kernel!r}; "
                f"choose from {sorted(MERGE_KERNELS_FLAT)}"
            ) from None
        out, inn = self._out, self._in
        return merge(
            out.directory(s),
            out.dists,
            out.quals,
            inn.directory(t),
            inn.dists,
            inn.quals,
            w,
        )

    def distance_with_witness(
        self, s: int, t: int, w: float
    ) -> Tuple[float, int, int]:
        """Distance plus the winning entry indexes *within* the labels of
        ``s`` / ``t`` — same local-index contract as the list engine."""
        self._check_vertex(s)
        self._check_vertex(t)
        out, inn = self._out, self._in
        best, a, b = merge_linear_flat_with_witness(
            out.directory(s),
            out.dists,
            out.quals,
            inn.directory(t),
            inn.dists,
            inn.quals,
            w,
        )
        if a < 0:
            return best, -1, -1
        return best, a - out.offsets[s], b - inn.offsets[t]

    def reachable(self, s: int, t: int, w: float) -> bool:
        """Whether any w-path leads from ``s`` to ``t``."""
        return self.distance(s, t, w) != INF

    def distance_many(self, queries) -> List[float]:
        """Answer a batch of ``(s, t, w)`` queries over the frozen layout.

        The hot path of the engine: the batch runs through the selected
        kernel backend (see :mod:`repro.core.kernels`) — the stdlib
        hash-intersection merge or the vectorized numpy kernels — over
        the flat stores (out side for sources, in side for targets) and
        whatever per-side state the backend caches on them.  Answers
        are bit-identical across backends.
        """
        return self._backend.batch(queries, self._out, self._in, len(self.order))

    # ------------------------------------------------------------------
    # Kernel backend selection
    # ------------------------------------------------------------------
    @property
    def kernel_backend(self) -> str:
        """Name of the active kernel backend (``"stdlib"`` / ``"numpy"``)."""
        return self._backend.name

    def select_backend(self, backend) -> "FrozenIndex":
        """Switch the engine's kernel backend (``"auto"`` / ``"stdlib"``
        / ``"numpy"`` or a backend instance); returns ``self``.  Raises
        :class:`~repro.core.kernels.KernelUnavailableError` when an
        explicitly named backend cannot run here."""
        self._backend = resolve_backend(backend)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.order)

    @property
    def tracks_parents(self) -> bool:
        return bool(self._out.parents)

    def sides(self) -> Tuple["_FlatSide", ...]:
        """The distinct label sides in file order: one for a symmetric
        family, ``(L_in, L_out)`` for the directed one."""
        if self._in is self._out:
            return (self._out,)
        return (self._in, self._out)

    def raw_sides(self):
        """Per side (file order), the canonical flat views ``(offsets,
        hubs, dists, quals, *parent_columns)``.  Exposed for
        serialization and tests; callers must not mutate."""
        return tuple(side.raw_arrays() for side in self.sides())

    def release(self) -> None:
        """Detach from the backing buffer: release every view so an mmap
        or shared-memory segment can be closed.  The engine must not be
        queried afterwards."""
        for side in self.sides():
            side.release()

    def group_directory(self, v: int) -> List[Tuple[int, int, int]]:
        """The ``(hub_rank, start, end)`` group triples of ``v``'s out
        side (global positions into the flat arrays)."""
        self._check_vertex(v)
        return self._out.directory(v)

    def label_size(self, v: int) -> int:
        self._check_vertex(v)
        return sum(side.label_size(v) for side in self.sides())

    def entry_count(self) -> int:
        return sum(side.entry_count() for side in self.sides())

    def max_label_size(self) -> int:
        return max(side.max_label_size() for side in self.sides())

    def group_count(self) -> int:
        """Total number of hub groups across all vertices and sides."""
        return sum(side.group_count() for side in self.sides())

    def nbytes(self) -> int:
        """Actual frozen footprint: the flat arrays plus the group
        directories modelled at flat-array rates (:data:`BYTES_PER_GROUP`
        per group plus one offset per vertex), each side counted once."""
        return sum(side.nbytes() for side in self.sides())

    def size_bytes(self) -> int:
        """Alias for :meth:`nbytes` (list-engine API parity)."""
        return self.nbytes()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.num_vertices}, "
            f"entries={self.entry_count()}, {self.nbytes()} bytes)"
        )

    def _entries(self, side: "_FlatSide", v: int) -> List[Tuple[int, float, float]]:
        """``side``'s label of ``v`` as ``(hub_vertex, dist, quality)``."""
        self._check_vertex(v)
        hubs, dists, quals = side.label_slices(v)
        order = self.order
        return [(order[h], d, q) for h, d, q in zip(hubs, dists, quals)]

    def _parents(self, v: int):
        """The parent-column slices of ``v`` (out side)."""
        side = self._out
        if not side.parents:
            raise ValueError("index was built without parent tracking")
        self._check_vertex(v)
        start, stop = side.offsets[v], side.offsets[v + 1]
        return [column[start:stop] for column in side.parents]

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self.order):
            raise ValueError(f"vertex {v} out of range [0, {len(self.order)})")


class FrozenWCIndex(FrozenIndex):
    """Frozen engine of the undirected :class:`~repro.core.labels.WCIndex`."""

    family = UNDIRECTED
    __slots__ = ()

    def label_lists(self, v: int):
        """Zero-copy ``memoryview`` slices ``(hub_ranks, dists, quals)`` of
        vertex ``v``'s entries in the global arrays."""
        self._check_vertex(v)
        return self._out.label_slices(v)

    def entries_of(self, v: int) -> List[Tuple[int, float, float]]:
        """Label set of ``v`` as ``(hub_vertex, dist, quality)`` triples."""
        return self._entries(self._out, v)

    def parent_list(self, v: int):
        return self._parents(v)[0]

    def iter_entries(self) -> Iterator[Tuple[int, int, float, float]]:
        """All entries as ``(vertex, hub_vertex, dist, quality)``."""
        for v in range(self.num_vertices):
            for hub, dist, quality in self.entries_of(v):
                yield (v, hub, dist, quality)


class FrozenDirectedWCIndex(FrozenIndex):
    """Frozen engine of :class:`~repro.core.directed.DirectedWCIndex`: two
    sides, ``L_in`` and ``L_out``, over one vertex order."""

    family = DIRECTED
    __slots__ = ()

    def in_entries_of(self, v: int) -> List[Tuple[int, float, float]]:
        """``L_in(v)`` as ``(hub_vertex, dist, quality)`` triples."""
        return self._entries(self._in, v)

    def out_entries_of(self, v: int) -> List[Tuple[int, float, float]]:
        """``L_out(v)`` as ``(hub_vertex, dist, quality)`` triples."""
        return self._entries(self._out, v)


class FrozenWeightedWCIndex(FrozenIndex):
    """Frozen engine of :class:`~repro.core.weighted.WeightedWCIndex`:
    real-valued distances, ``(parent_vertex, parent_entry)`` parents."""

    family = WEIGHTED
    __slots__ = ()

    label_lists = FrozenWCIndex.label_lists
    entries_of = FrozenWCIndex.entries_of

    def parent_pairs(self, v: int) -> List[Tuple[int, int]]:
        """``(parent_vertex, parent_entry_index)`` pairs of vertex ``v``."""
        return list(zip(*self._parents(v)))


#: Frozen engine class of every family, by ``.wcxb`` variant tag.
ENGINES = {
    engine.family.variant: engine
    for engine in (FrozenWCIndex, FrozenDirectedWCIndex, FrozenWeightedWCIndex)
}


def spliced_offsets(old_offsets, new_sizes) -> array:
    """A new offset table where each vertex in ``new_sizes`` (a mapping
    ``vertex -> new label size``) takes its new size and every other
    vertex keeps its old one.

    The prefix before the first resized vertex is copied wholesale; the
    tail is the old table shifted by the running size delta.
    """
    out = array(OFFSET_TYPECODE)
    out.frombytes(bytes(old_offsets))
    if not new_sizes:
        return out
    n = len(out) - 1
    delta = 0
    get = new_sizes.get
    previous = out[min(new_sizes)]
    for v in range(min(new_sizes), n):
        size = get(v)
        old_next = out[v + 1]
        if size is not None:
            delta += size - (old_next - previous)
        previous = old_next
        out[v + 1] = old_next + delta
    return out


def splice_column(old_offsets, old_column, typecode: str, replacements) -> array:
    """Rebuild one entry-parallel column with the entries of the vertices
    in ``replacements`` (a mapping ``vertex -> sequence of new values``)
    swapped in and every clean vertex's entries copied as raw byte runs.

    This is the primitive behind the incremental refreeze and the delta
    resolution in :mod:`repro.core.serialize`: for a batch dirtying a few
    percent of the vertices, almost all bytes move in a handful of
    C-level copies instead of the per-entry Python loop a full
    ``freeze()`` pays.  Replacement sequences may be lists, arrays, or
    typed ``memoryview``\\s (the latter are copied bytewise).
    """
    view = _as_view(old_column, typecode)
    offsets = old_offsets
    if not isinstance(offsets, (list, array)):
        # Typed-memoryview indexing is measurably slower than array
        # indexing on the run-partitioning loop below.
        offsets = array(OFFSET_TYPECODE)
        offsets.frombytes(bytes(old_offsets))
    n = len(offsets) - 1
    out = bytearray()
    prev = 0
    for v in sorted(replacements):
        if not 0 <= v < n:
            raise ValueError(f"replacement vertex {v} out of range [0, {n})")
        if prev < v:
            out += view[offsets[prev]:offsets[v]]
        chunk = replacements[v]
        if isinstance(chunk, memoryview):
            out += chunk
        else:
            out += array(typecode, chunk).tobytes()
        prev = v + 1
    if prev < n:
        out += view[offsets[prev]:offsets[n]]
    values = array(typecode)
    values.frombytes(out)  # frombytes reads the bytearray directly
    return values


def splice_label_side(old_side: "_FlatSide", replacements) -> "_FlatSide":
    """A new :class:`_FlatSide` with the label sets of the vertices in
    ``replacements`` swapped in: ``vertex -> one sequence per
    entry-parallel column`` — ``hubs, dists, quals``, then each parent
    column of a parent-tracking side.

    The result owns its arrays and is bit-identical to freezing the
    equivalent list index from scratch.
    """
    n = len(old_side.offsets) - 1
    old_offsets, *old_columns = old_side.raw_arrays()
    if any(len(chunks) != len(old_columns) for chunks in replacements.values()):
        raise ValueError(
            f"replacements must carry one sequence per column of the side "
            f"({len(old_columns)})"
        )
    offsets = spliced_offsets(
        old_offsets, {v: len(chunks[0]) for v, chunks in replacements.items()}
    )
    columns = [
        splice_column(
            old_offsets,
            column,
            column.format,
            {v: chunks[i] for v, chunks in replacements.items()},
        )
        for i, column in enumerate(old_columns)
    ]
    return _FlatSide(n, offsets, *columns)


class _HubGroups(dict):
    """Vertex -> its label's hub groups, as an ordered ``hub_rank ->
    (start, end)`` map over global positions (ascending hub rank, the
    label's own order), built the first time a query looks the vertex
    up.

    One map serves both roles a query needs: iterated, it is the
    vertex's group list; probed, its hub map.  Building per vertex on
    first touch means attaching an image costs nothing up front and a
    query pays only for the labels it reads — a worker's first small
    batch after a swap scans two labels per query, not the whole image.
    Callers check the vertex range before the lookup.
    """

    __slots__ = ("offsets", "hubs")

    def __init__(self, offsets, hubs) -> None:
        super().__init__()
        self.offsets = offsets
        self.hubs = hubs

    def __missing__(self, v: int) -> dict:
        hubs = self.hubs
        stop = self.offsets[v + 1]
        i = self.offsets[v]
        groups = {}
        while i < stop:
            hub = hubs[i]
            j = i + 1
            while j < stop and hubs[j] == hub:
                j += 1
            groups[hub] = (i, j)
            i = j
        # Published only once complete: a thread racing on the same
        # vertex sees nothing (and builds an equal map) or all of it.
        self[v] = groups
        return groups


class _FlatSide:
    """One flat label store: the global parallel view triple, its offset
    table, the parent columns, and the per-vertex hub groups
    (:class:`_HubGroups`), built as queries touch vertices.

    The single source of truth for the flat layout: a symmetric engine
    owns one side, the directed engine two (``L_in`` / ``L_out``).
    Storage is typed ``memoryview``\\s over whatever buffer the caller
    supplies (owned arrays, an mmap, a shared-memory segment) — the side
    never copies label data.
    """

    __slots__ = (
        "offsets",
        "hubs",
        "dists",
        "quals",
        "parents",
        "groups",
        "_kernel_states",
    )

    def __init__(self, n: int, offsets, hubs, dists, quals, *parents) -> None:
        offsets = _as_view(offsets, OFFSET_TYPECODE)
        hubs = _as_view(hubs, HUB_TYPECODE)
        dists = _as_view(dists, VALUE_TYPECODE)
        quals = _as_view(quals, VALUE_TYPECODE)
        parents = tuple(_as_view(column, HUB_TYPECODE) for column in parents)
        if len(offsets) != n + 1:
            raise ValueError(
                f"offsets must have {n + 1} entries, got {len(offsets)}"
            )
        total = offsets[n] if n else 0
        if not (len(hubs) == len(dists) == len(quals) == total):
            raise ValueError("hub/dist/quality arrays disagree with offsets")
        if any(len(column) != total for column in parents):
            raise ValueError("parent columns disagree with offsets")
        self.offsets = offsets
        self.hubs = hubs
        self.dists = dists
        self.quals = quals
        self.parents = parents
        self.groups = _HubGroups(offsets, hubs)
        self._kernel_states: dict = {}

    def release(self) -> None:
        """Release every view so the backing buffer (mmap, shared memory)
        can be closed; the side must not be used afterwards."""
        # Kernel states may hold buffer exports on the views (the numpy
        # backend's frombuffer arrays do) — drop them first, or
        # memoryview.release() raises BufferError.
        self._kernel_states = {}
        self.groups.clear()
        for view in self.raw_arrays():
            view.release()

    @classmethod
    def from_lists(
        cls,
        n: int,
        label_lists,
        parent_lists=None,
        width: int = 1,
    ) -> "_FlatSide":
        """Flatten per-vertex parallel lists; ``label_lists(v)`` returns
        ``(hubs, dists, quals)``, ``parent_lists(v)`` one sequence per
        parent column (``width`` of them)."""
        offsets = array(OFFSET_TYPECODE, [0] * (n + 1))
        hubs = array(HUB_TYPECODE)
        dists = array(VALUE_TYPECODE)
        quals = array(VALUE_TYPECODE)
        parents = []
        if parent_lists is not None:
            parents = [array(HUB_TYPECODE) for _ in range(width)]
        for v in range(n):
            hubs_v, dists_v, quals_v = label_lists(v)
            offsets[v + 1] = offsets[v] + len(hubs_v)
            hubs.extend(hubs_v)
            dists.extend(dists_v)
            quals.extend(quals_v)
            if parents:
                for column, values in zip(parents, parent_lists(v)):
                    column.extend(values)
        return cls(n, offsets, hubs, dists, quals, *parents)

    def directory(self, v: int) -> List[Tuple[int, int, int]]:
        """Vertex ``v``'s ``(hub_rank, start, end)`` group triples — the
        shape the ``*_flat`` merge kernels step through."""
        return [(hub, start, end) for hub, (start, end) in self.groups[v].items()]

    def kernel_state(self, backend) -> object:
        """This side's prepared state for ``backend``, built on first use
        and cached per backend name (engines sharing a side — or one
        engine switching backends — reuse the same state)."""
        state = self._kernel_states.get(backend.name)
        if state is None:
            state = self._kernel_states[backend.name] = backend.prepare_side(self)
        return state

    def label_slices(self, v: int):
        """Zero-copy ``memoryview`` slices of vertex ``v``'s entries."""
        start, stop = self.offsets[v], self.offsets[v + 1]
        return (
            self.hubs[start:stop],
            self.dists[start:stop],
            self.quals[start:stop],
        )

    def to_lists(self):
        """Expand back into per-vertex Python lists (for thawing); parents
        in the list engine's shape (``None`` without tracking)."""
        offsets = self.offsets
        n = len(offsets) - 1
        hubs = [list(self.hubs[offsets[v]:offsets[v + 1]]) for v in range(n)]
        dists = [list(self.dists[offsets[v]:offsets[v + 1]]) for v in range(n)]
        quals = [list(self.quals[offsets[v]:offsets[v + 1]]) for v in range(n)]
        parents = None
        if self.parents:
            parents = [
                _join_parents(self.parents, offsets[v], offsets[v + 1])
                for v in range(n)
            ]
        return hubs, dists, quals, parents

    def label_size(self, v: int) -> int:
        return self.offsets[v + 1] - self.offsets[v]

    def entry_count(self) -> int:
        return len(self.hubs)

    def max_label_size(self) -> int:
        offsets = self.offsets
        return max(
            (offsets[v + 1] - offsets[v] for v in range(len(offsets) - 1)),
            default=0,
        )

    def group_count(self) -> int:
        """Hub groups, counted from their boundaries without building
        them: a group starts at every non-empty label's first entry and
        wherever the hub rank changes."""
        hubs = self.hubs
        total = len(hubs)
        starts = set(self.offsets.tolist())
        starts.update(compress(range(1, total), map(ne, hubs[1:], hubs)))
        starts.discard(total)
        return len(starts)

    def nbytes(self) -> int:
        """Flat arrays plus the group directory at flat-array rates."""
        total = sum(view.itemsize * len(view) for view in self.raw_arrays())
        total += BYTES_PER_GROUP * self.group_count()
        total += 8 * len(self.offsets)  # directory offset table
        return total

    def raw_arrays(self):
        """``(offsets, hubs, dists, quals, *parent_columns)``."""
        return (self.offsets, self.hubs, self.dists, self.quals, *self.parents)
