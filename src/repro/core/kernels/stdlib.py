"""The pure-Python flat-layout query kernels — the ``stdlib`` backend.

These are the merge kernels over the frozen group layout (see
:mod:`repro.core.frozen`): each side supplies its vertices' hub groups
— ``(hub_rank, start, end)`` triples, or for the batch kernel an
ordered ``hub_rank -> (start, end)`` map — indexing into that side's
global ``dists``/``quals`` arrays, so the merge visits each hub group
in a single step and never scans for boundaries.  A frozen side builds
a vertex's groups the first time a query touches it.
:func:`batch_merge_flat` is the batch hot path shared by every frozen
engine.

Everything here runs on the standard library alone.  That makes this
module double as:

* the **always-available fallback** the dispatch layer
  (:mod:`repro.core.kernels`) selects when no faster backend can run,
  and
* the **correctness oracle** — every other backend must return answers
  bit-identical to these kernels (enforced by the hypothesis
  equivalence suite).

The historical import path ``repro.core.query`` re-exports every public
name here, so existing callers keep working.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple

from . import KernelBackend

INF = float("inf")

__all__ = [
    "MERGE_KERNELS_FLAT",
    "StdlibKernelBackend",
    "batch_merge_flat",
    "merge_binary_flat",
    "merge_linear_flat",
    "merge_linear_flat_with_witness",
    "merge_naive_flat",
]


def merge_naive_flat(
    dir_s: Sequence[Tuple[int, int, int]],
    dists_s: Sequence[float],
    quals_s: Sequence[float],
    dir_t: Sequence[Tuple[int, int, int]],
    dists_t: Sequence[float],
    quals_t: Sequence[float],
    w: float,
) -> float:
    """Algorithm 2 over group directories: enumerate all feasible entry
    pairs per common hub.  ``dists``/``quals`` are the side's *global*
    arrays; the directory triples carry global ``(start, end)`` bounds."""
    best = INF
    i, j = 0, 0
    len_s, len_t = len(dir_s), len(dir_t)
    while i < len_s and j < len_t:
        hs, s_start, s_end = dir_s[i]
        ht, t_start, t_end = dir_t[j]
        if hs < ht:
            i += 1
            continue
        if hs > ht:
            j += 1
            continue
        for a in range(s_start, s_end):
            if quals_s[a] < w:
                continue
            da = dists_s[a]
            for b in range(t_start, t_end):
                if quals_t[b] < w:
                    continue
                total = da + dists_t[b]
                if total < best:
                    best = total
        i += 1
        j += 1
    return best


def merge_binary_flat(
    dir_s: Sequence[Tuple[int, int, int]],
    dists_s: Sequence[float],
    quals_s: Sequence[float],
    dir_t: Sequence[Tuple[int, int, int]],
    dists_t: Sequence[float],
    quals_t: Sequence[float],
    w: float,
) -> float:
    """Binary-search variant over group directories: ``bisect`` the first
    feasible entry of each matched group directly in the global arrays."""
    best = INF
    i, j = 0, 0
    len_s, len_t = len(dir_s), len(dir_t)
    while i < len_s and j < len_t:
        hs, s_start, s_end = dir_s[i]
        ht, t_start, t_end = dir_t[j]
        if hs < ht:
            i += 1
            continue
        if hs > ht:
            j += 1
            continue
        a = bisect_left(quals_s, w, s_start, s_end)
        if a < s_end:
            b = bisect_left(quals_t, w, t_start, t_end)
            if b < t_end:
                total = dists_s[a] + dists_t[b]
                if total < best:
                    best = total
        i += 1
        j += 1
    return best


def merge_linear_flat(
    dir_s: Sequence[Tuple[int, int, int]],
    dists_s: Sequence[float],
    quals_s: Sequence[float],
    dir_t: Sequence[Tuple[int, int, int]],
    dists_t: Sequence[float],
    quals_t: Sequence[float],
    w: float,
) -> float:
    """Algorithm 5 (``Query+``) over group directories: one directory step
    per hub group, a linear feasibility scan inside matched groups only."""
    best = INF
    i, j = 0, 0
    len_s, len_t = len(dir_s), len(dir_t)
    while i < len_s and j < len_t:
        hs, s_start, s_end = dir_s[i]
        ht, t_start, t_end = dir_t[j]
        if hs < ht:
            i += 1
            continue
        if hs > ht:
            j += 1
            continue
        a = s_start
        while a < s_end and quals_s[a] < w:
            a += 1
        if a < s_end:
            b = t_start
            while b < t_end and quals_t[b] < w:
                b += 1
            if b < t_end:
                total = dists_s[a] + dists_t[b]
                if total < best:
                    best = total
        i += 1
        j += 1
    return best


def merge_linear_flat_with_witness(
    dir_s: Sequence[Tuple[int, int, int]],
    dists_s: Sequence[float],
    quals_s: Sequence[float],
    dir_t: Sequence[Tuple[int, int, int]],
    dists_t: Sequence[float],
    quals_t: Sequence[float],
    w: float,
) -> Tuple[float, int, int]:
    """Like :func:`merge_linear_flat` but also returns the winning *global*
    entry positions ``(distance, pos_in_s_arrays, pos_in_t_arrays)``
    (``-1`` when no feasible hub exists)."""
    best = INF
    best_a = -1
    best_b = -1
    i, j = 0, 0
    len_s, len_t = len(dir_s), len(dir_t)
    while i < len_s and j < len_t:
        hs, s_start, s_end = dir_s[i]
        ht, t_start, t_end = dir_t[j]
        if hs < ht:
            i += 1
            continue
        if hs > ht:
            j += 1
            continue
        a = s_start
        while a < s_end and quals_s[a] < w:
            a += 1
        if a < s_end:
            b = t_start
            while b < t_end and quals_t[b] < w:
                b += 1
            if b < t_end:
                total = dists_s[a] + dists_t[b]
                if total < best:
                    best = total
                    best_a, best_b = a, b
        i += 1
        j += 1
    return best, best_a, best_b


MERGE_KERNELS_FLAT = {
    "naive": merge_naive_flat,
    "binary": merge_binary_flat,
    "linear": merge_linear_flat,
}


def batch_merge_flat(
    queries,
    groups_s,
    dists_s,
    quals_s,
    groups_t,
    dists_t,
    quals_t,
    n: int,
) -> List[float]:
    """The stdlib batch hot path shared by every frozen engine.

    ``groups_s`` maps each source vertex to its ordered ``hub_rank ->
    (start, end)`` groups, ``groups_t`` each target vertex (the same
    mapping for the undirected and weighted engines; the directed
    engine passes its out-side for ``s`` and its in-side for ``t``).
    A frozen side passes its :class:`~repro.core.frozen._HubGroups`,
    which builds a vertex's groups the first time a query touches it.
    Per query the *smaller* side's groups are intersected against the
    larger side's map, so each query costs ``O(min(groups))`` hash
    probes plus the feasibility scans of matched groups — no per-query
    slicing, list chasing, or ``group_end`` boundary scans.
    """
    inf = INF
    results: List[float] = []
    append = results.append
    for s, t, w in queries:
        if not 0 <= s < n or not 0 <= t < n:
            raise ValueError(f"query vertex out of range in ({s}, {t})")
        small = groups_s[s]
        large = groups_t[t]
        if len(small) <= len(large):
            d_small, q_small = dists_s, quals_s
            d_large, q_large = dists_t, quals_t
        else:
            small, large = large, small
            d_small, q_small = dists_t, quals_t
            d_large, q_large = dists_s, quals_s
        lookup = large.get
        best = inf
        for hub, (a, a_end) in small.items():
            match = lookup(hub)
            if match is None:
                continue
            while a < a_end and q_small[a] < w:
                a += 1
            if a < a_end:
                b, b_end = match
                while b < b_end and q_large[b] < w:
                    b += 1
                if b < b_end:
                    total = d_small[a] + d_large[b]
                    if total < best:
                        best = total
        append(best)
    return results


class StdlibKernelBackend(KernelBackend):
    """The pure-Python backend: always available, and the correctness
    oracle for every other backend.  Its only per-side state is the
    side's own lazily built hub groups."""

    name = "stdlib"

    def batch(self, queries, side_s, side_t, n: int) -> List[float]:
        return batch_merge_flat(
            queries,
            side_s.groups,
            side_s.dists,
            side_s.quals,
            side_t.groups,
            side_t.dists,
            side_t.quals,
            n,
        )
