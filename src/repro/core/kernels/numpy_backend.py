"""The vectorized numpy query-kernel backend.

Wraps a :class:`~repro.core.frozen._FlatSide`'s typed memoryviews with
``numpy.frombuffer`` — zero copies, the arrays read the same bytes the
stdlib kernels do, whether they live in owned ``array`` storage, an
``mmap`` of a ``.wcxb`` v3 image, or a shared-memory segment — and
answers ``distance_many`` for a whole workload with no Python-level
inner loop:

* **Group metadata** is derived once per side, on the first batch that
  reaches the vectorized path (cached by the side): flat
  ``gstart``/``gend``/``ghub`` arrays over all hub groups, a ``goff``
  table mapping each vertex to its group range, and a globally sorted
  ``vertex * stride + hub`` composite-key array — the vectorized
  stand-in for the stdlib backend's per-vertex hash maps.
* **Feasibility** is resolved per *distinct constraint value* and
  cached: entries of a group ascend in quality (Theorem 3), so for a
  scalar ``w`` the first feasible entry of **every** group at once is
  ``gstart + (count of quals < w in the group)`` — one boolean mask,
  one ``cumsum``, two gathers.  Each distinct ``w`` yields a
  :class:`_WSlice`: the side's group structure with infeasible groups
  dropped and every survivor carrying its first-feasible entry.
  Workloads reuse a handful of constraint thresholds, so the slices
  amortize across batches and per-pair feasibility becomes a pure
  gather.  (Theorem 3 also makes the first feasible entry the
  min-distance one, so one entry per side decides each matched group.)
* **Intersection**: per query the side with fewer feasible groups is
  expanded (one ragged ``arange`` across the whole batch) and probed
  into the other side's filtered composite-key array with a single
  ``searchsorted`` — the batch counterpart of the stdlib kernel's
  ``O(min(groups))`` hash probes, for every query at once.
* **Reduction**: candidate sums scatter into the per-query minimum with
  ``numpy.minimum.at``.
* **Small batches** — fewer than :data:`_MIN_QUERIES_PER_W` queries
  per distinct ``w`` — go to the stdlib merge instead, before any of
  the above is built: per-value work cannot amortize over them.

Answers are bit-identical to the stdlib backend: the same set of
``d_s + d_t`` candidates is formed (IEEE-754 double adds of the same
operands — feasibility is the same strict ``qual < w`` comparison, and
counting entries below ``w`` in an ascending group is exactly the
stdlib scan) and the minimum of a set of doubles does not depend on
visit order.

This module is only imported after :func:`repro.core.kernels.numpy_available`
has confirmed numpy is importable; the dispatch layer raises
:class:`~repro.core.kernels.KernelUnavailableError` otherwise.
"""

from __future__ import annotations

from itertools import chain
from typing import List

import numpy as np

from . import KernelBackend, resolve_backend

__all__ = ["NumpyKernelBackend"]

#: dtypes matching the frozen typecodes ("q" offsets, "i" hubs,
#: "d" values) in the host's native byte order — the same bytes the
#: typed memoryviews expose.
_OFFSET_DTYPE = np.int64
_HUB_DTYPE = np.int32
_VALUE_DTYPE = np.float64

#: Per-side cap on cached per-``w`` slices, in int64 elements.  Oldest
#: slices are evicted first; an oversized slice is used transiently.
_W_CACHE_BUDGET = 8_000_000

#: The vectorized path sub-batches by distinct constraint value, and its
#: cost grows with the number of values (each one a round of gathers and
#: a ``searchsorted``), while the stdlib merge costs per query.  A batch
#: with fewer than this many queries per distinct ``w`` — a small batch,
#: or one where nearly every query carries its own threshold — is
#: delegated to the stdlib kernels (answers are bit-identical either
#: way).  From a sweep of both kernels over 1-10 distinct ``w`` on two
#: road-grid images (CHANGES.md): from 32 queries per value on, numpy
#: is never the slower kernel.
_MIN_QUERIES_PER_W = 32


class _WSlice:
    """One side's feasible group structure at one constraint value
    ``w``: the groups with at least one entry of quality ``>= w``, each
    carrying the global index of its first (hence min-distance) such
    entry.

    * ``goff`` — per-vertex offsets into the filtered group arrays,
    * ``ghub`` / ``first`` — hub rank and first-feasible entry index of
      each surviving group,
    * ``gkey`` — the surviving ``vertex * stride + hub`` composite keys
      (filtering preserves the global sort).
    """

    __slots__ = ("goff", "ghub", "first", "gkey")

    def __init__(self, state: "_NumpySideState", w: float) -> None:
        # count of entries with qual < w per group == offset of the
        # first feasible entry within the group (Theorem 3: quals
        # ascend inside a group).
        cum = np.empty(state.quals.size + 1, dtype=np.int64)
        cum[0] = 0
        np.cumsum(state.quals < w, out=cum[1:])
        skipped = cum[state.gend] - cum[state.gstart]
        alive = np.flatnonzero(skipped < state.gsize)
        self.ghub = state.ghub[alive]
        self.first = state.gstart[alive] + skipped[alive]
        self.gkey = state.gkey[alive]
        counts = np.bincount(
            state.gvertex[alive], minlength=state.num_vertices
        )
        goff = np.empty(state.num_vertices + 1, dtype=np.int64)
        goff[0] = 0
        np.cumsum(counts, out=goff[1:])
        self.goff = goff

    def nbytes_elements(self) -> int:
        return 3 * self.ghub.size + self.goff.size


class _NumpySideState:
    """Per-side numpy state: zero-copy value views plus derived group
    metadata and the per-``w`` slice cache.

    ``dists``/``quals`` are ``frombuffer`` views over the side's own
    buffers — dropping this object (the side clears its kernel-state
    cache on ``release()``) releases the buffer exports so an mmap or
    shared-memory segment can close.
    """

    __slots__ = (
        "dists",
        "quals",
        "num_vertices",
        "gstart",
        "gend",
        "gsize",
        "ghub",
        "gvertex",
        "goff",
        "gkey",
        "stride",
        "_w_slices",
    )

    def __init__(self, side) -> None:
        offsets = np.frombuffer(side.offsets, dtype=_OFFSET_DTYPE)
        hubs = np.frombuffer(side.hubs, dtype=_HUB_DTYPE)
        self.dists = np.frombuffer(side.dists, dtype=_VALUE_DTYPE)
        self.quals = np.frombuffer(side.quals, dtype=_VALUE_DTYPE)
        n = len(offsets) - 1
        self.num_vertices = n
        total = len(hubs)
        if total:
            # A group starts at every vertex boundary and wherever the
            # hub rank changes; offsets of empty vertices coincide with
            # the next vertex's start and deduplicate away.
            boundaries = np.concatenate(
                (offsets[:-1], np.flatnonzero(hubs[1:] != hubs[:-1]) + 1)
            )
            gstart = np.unique(boundaries)
            gstart = gstart[gstart < total]
        else:
            gstart = np.empty(0, dtype=_OFFSET_DTYPE)
        self.gstart = gstart
        self.gend = (
            np.append(gstart[1:], total) if gstart.size
            else np.empty(0, dtype=_OFFSET_DTYPE)
        )
        self.gsize = self.gend - gstart
        self.ghub = hubs[gstart].astype(np.int64)
        # goff[v] .. goff[v+1] is vertex v's slice of the group arrays
        # (offsets[v] is always a group start when v has entries).
        self.goff = np.searchsorted(gstart, offsets)
        # Globally sorted composite keys (groups ascend by vertex, then
        # hub): one searchsorted resolves (vertex, hub) membership for
        # the whole batch — the vectorized hash map.
        self.stride = np.int64(max(n, 1))
        self.gvertex = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.goff)
        )
        self.gkey = self.gvertex * self.stride + self.ghub
        self._w_slices: dict = {}

    def w_slice(self, w: float) -> _WSlice:
        """The cached feasible-group slice at ``w`` (built on first
        use; least-recently-inserted slices evicted past the element
        budget, oversized slices returned uncached)."""
        cache = self._w_slices
        piece = cache.get(w)
        if piece is None:
            piece = _WSlice(self, w)
            size = piece.nbytes_elements()
            if size <= _W_CACHE_BUDGET:
                used = sum(p.nbytes_elements() for p in cache.values())
                while cache and used + size > _W_CACHE_BUDGET:
                    _, evicted = cache.popitem()
                    used -= evicted.nbytes_elements()
                cache[w] = piece
        return piece


class NumpyKernelBackend(KernelBackend):
    """Vectorized batch kernels over ``numpy.frombuffer`` views of the
    frozen buffers.  Bit-identical to :class:`~repro.core.kernels.stdlib.
    StdlibKernelBackend`; single-point queries still run the stdlib flat
    merge (one query cannot amortize array dispatch)."""

    name = "numpy"

    def prepare_side(self, side) -> _NumpySideState:
        return _NumpySideState(side)

    def batch(self, queries, side_s, side_t, n: int) -> List[float]:
        if not isinstance(queries, (list, tuple)):
            queries = list(queries)
        if not queries:
            return []
        if len(queries) < _MIN_QUERIES_PER_W * len({w for _, _, w in queries}):
            # Too few queries per threshold to amortize the per-value
            # slices: the stdlib merge answers them, bit for bit, and no
            # numpy state is built for the sides.
            return resolve_backend("stdlib").batch(queries, side_s, side_t, n)
        # Every query unpacked as a triple above, so one flat read lines
        # up (and is about twice as fast as ``asarray`` on the tuples).
        triples = np.fromiter(
            chain.from_iterable(queries), dtype=np.float64, count=3 * len(queries)
        ).reshape(-1, 3)
        s = triples[:, 0].astype(np.int64)
        t = triples[:, 1].astype(np.int64)
        w = triples[:, 2]
        bad = (s < 0) | (s >= n) | (t < 0) | (t >= n)
        if bad.any():
            first = int(bad.argmax())
            bad_s, bad_t = queries[first][0], queries[first][1]
            raise ValueError(
                f"query vertex out of range in ({bad_s}, {bad_t})"
            )
        # One sub-batch per distinct constraint value — real workloads
        # reuse a handful of thresholds, and per value the feasibility
        # slices reduce the merge to expansion + searchsorted + gathers.
        wvals, w_inv = np.unique(w, return_inverse=True)
        w_inv = w_inv.reshape(-1)
        state_s = side_s.kernel_state(self)
        state_t = state_s if side_t is side_s else side_t.kernel_state(self)
        best = np.full(len(queries), np.inf)
        same_side = state_t is state_s
        for i, wv in enumerate(wvals):
            qsel = np.flatnonzero(w_inv == i)
            slice_s = state_s.w_slice(float(wv))
            slice_t = slice_s if same_side else state_t.w_slice(float(wv))
            sv = s[qsel]
            tv = t[qsel]
            # Mirror the stdlib kernel's small-side choice: expand the
            # side with fewer (here: fewer feasible) groups, probe it
            # into the other.
            count_s = slice_s.goff[sv + 1] - slice_s.goff[sv]
            count_t = slice_t.goff[tv + 1] - slice_t.goff[tv]
            s_is_small = count_s <= count_t
            for mask, probe, probe_v, build, build_state, build_v in (
                (s_is_small, slice_s, sv, slice_t, state_t, tv),
                (~s_is_small, slice_t, tv, slice_s, state_s, sv),
            ):
                chosen = np.flatnonzero(mask)
                if chosen.size:
                    self._scan(
                        best,
                        qsel[chosen],
                        probe,
                        probe_v[chosen],
                        build,
                        build_state,
                        build_v[chosen],
                        state_s if probe is slice_s else state_t,
                    )
        return best.tolist()

    @staticmethod
    def _scan(
        best, qidx, probe, probe_v, build, build_state, build_v, probe_state
    ) -> None:
        """One probe direction of one ``w`` sub-batch: expand the probe
        vertices' feasible groups, intersect against the build side's
        feasible composite keys, and fold candidate sums into ``best``.
        Every surviving pair contributes — feasibility was resolved
        when the slices were built."""
        if not build.gkey.size:
            return
        goff = probe.goff
        counts = goff[probe_v + 1] - goff[probe_v]
        total = int(counts.sum())
        if not total:
            return
        # Ragged arange: for each selected query, the indexes
        # goff[v] .. goff[v+1] of its feasible probe groups,
        # concatenated.
        rep = np.repeat(np.arange(qidx.size), counts)
        prefix = np.cumsum(counts) - counts
        positions = np.arange(total, dtype=np.int64) + np.repeat(
            goff[probe_v] - prefix, counts
        )
        keys = build_v[rep] * build_state.stride + probe.ghub[positions]
        at = np.searchsorted(build.gkey, keys)
        clipped = np.minimum(at, build.gkey.size - 1)
        matched = np.flatnonzero(build.gkey[clipped] == keys)
        if not matched.size:
            return
        a = probe.first[positions[matched]]
        b = build.first[clipped[matched]]
        sums = probe_state.dists[a] + build_state.dists[b]
        np.minimum.at(best, qidx[rep[matched]], sums)
