"""Journal-keyed hot-query answer cache for the serving stack.

Real query traffic is Zipf-skewed — the same ``(s, t, w)`` triples
recur — yet every serving tier recomputes each answer from the label
arrays.  :class:`AnswerCache` is a sharded, thread-safe LRU in front of
any engine, built around two ideas the index structure already pays
for:

**Canonical keys.**  Within a hub group the paper's Theorem 3 sorts
entries by ascending distance *and* ascending quality, so feasibility
at threshold ``w`` depends only on how many entries satisfy
``qual >= w`` — every ``w`` between two consecutive distinct label
qualities yields the identical answer.  The keyer therefore quantizes
``w`` up to the smallest distinct quality ``>= w`` (one shared bucket
above the maximum), and normalizes ``(s, t)`` to ``(min, max)`` for the
symmetric families (undirected and weighted; directed queries keep
their orientation — ``L_out(s) x L_in(t)`` is not symmetric).  All
thresholds of a quality bucket share one entry, and so do both
directions of an undirected pair.

**Precise journal-driven invalidation.**  An answer for ``(s, t)``
reads only ``L(s)`` and ``L(t)``, and the
:class:`~repro.live.journal.UpdateJournal` dirty set is exactly the
vertices whose label lists changed (the live wrappers diff or repair
exactly).  An entry depends on its endpoints plus the hub vertices
their labels reach, and a republish evicts only entries whose
endpoints' reach meets the dirty set.  Reach sets are memoized per
vertex, not stored per entry, so an entry costs its key and answer.
A 1% dirty batch therefore keeps ~99% of the cache warm; only a
non-incremental rebuild (vertex order changed, every hub rank
reinterpreted) flushes everything.

Fills race republishes in the network front door (the batcher computes
answers on an executor thread), so every fill carries the *generation
token* captured before its miss was dispatched: a fill whose token is
stale — any invalidation, flush or rebind happened in between — is
dropped rather than stored, which keeps the cache bit-identical to the
uncached engine under arbitrary interleavings of queries and update
batches (the hypothesis suite in ``tests/serve/test_cache_equivalence``
enforces exactly that).

:class:`CachingClient` wraps any
:class:`~repro.serve.client.QueryClient` transport with one shared
cache: hits answer locally, misses are deduplicated per canonical key
and forwarded in original order (so malformed queries raise the
engine's exact ``ValueError``), and fills apply after the inner batch
returns.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .client import QueryClient

__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "DEFAULT_CACHE_SHARDS",
    "MISS",
    "AnswerCache",
    "CachingClient",
]

#: Default total entry capacity (split across the shards).
DEFAULT_CACHE_ENTRIES = 65536

#: Default shard count (independent locks; keys hash-distribute).
DEFAULT_CACHE_SHARDS = 8

#: Sentinel returned by :meth:`AnswerCache.get` for absent keys — never
#: a valid answer, unlike ``None`` or ``inf``.
MISS = object()

#: Quantized threshold of queries above every distinct label quality —
#: they all share one (always-infeasible) bucket.
_ABOVE_ALL = float("inf")

Query = Tuple[int, int, float]
Key = Tuple[int, int, float]


class _Keyer:
    """Canonical keys and hub-reach sets derived from one engine
    snapshot (any family, list or frozen)."""

    __slots__ = ("_engine", "_directed", "_n", "_levels", "_reach")

    def __init__(self, engine) -> None:
        self._engine = engine
        # The family descriptor (shared by list and frozen engines)
        # decides whether (s, t) and (t, s) are the same question.
        self._directed = not engine.family.symmetric
        self._n = engine.num_vertices
        self._levels = self._label_levels(engine)
        # Hub-reach sets, memoized per endpoint on first use.  Directed
        # sources and targets read different sides, so they memoize
        # under distinct slots (v for the out/source side, v + n for
        # the in/target side).
        self._reach: Dict[int, FrozenSet[int]] = {}

    def _label_levels(self, engine) -> List[float]:
        """Sorted distinct quality values across every label entry.

        Derived from the engine (not the graph — serving tiers may hold
        only the image): quantization is exact as long as the level set
        covers every quality a label of *this* engine carries.  Each
        label side holds every quality in one flat column; a list
        engine is frozen first.
        """
        if not hasattr(engine, "sides"):
            engine = engine.freeze()
        levels = set()
        for side in engine.sides():
            levels.update(side.quals)
        return sorted(levels)

    def key_for(self, query) -> Optional[Key]:
        """The canonical key of one query, or ``None`` when the query
        must bypass the cache (malformed or out of range — forwarded so
        the engine raises its own error)."""
        try:
            s, t, w = query
        except (TypeError, ValueError):
            return None
        if not isinstance(s, int) or not isinstance(t, int):
            return None
        if not 0 <= s < self._n or not 0 <= t < self._n:
            return None
        if not isinstance(w, (int, float)) or w != w:  # NaN bypasses
            return None
        levels = self._levels
        at = bisect_left(levels, w)
        bucket = levels[at] if at < len(levels) else _ABOVE_ALL
        if not self._directed and t < s:
            s, t = t, s
        return (s, t, bucket)

    def inherit_reach(self, old: "_Keyer", dirty: FrozenSet[int]) -> None:
        """Adopt ``old``'s memoized hub reach of every vertex outside
        ``dirty``: an incremental republish leaves their labels, and so
        their reach, unchanged."""
        if old._n == self._n:
            self._reach = {
                slot: reach
                for slot, reach in old._reach.items()
                if slot % self._n not in dirty
            }

    def stale(self, key: Key, dirty: FrozenSet[int]) -> bool:
        """Whether ``dirty`` meets the entry's dependencies: both
        endpoints plus every hub vertex their labels reach (out-side for
        sources, in-side for targets in the directed family)."""
        return not (
            self._side_reach(key[0], False).isdisjoint(dirty)
            and self._side_reach(key[1], self._directed).isdisjoint(dirty)
        )

    def _side_reach(self, v: int, in_side: bool) -> FrozenSet[int]:
        slot = v + self._n if in_side else v
        cached = self._reach.get(slot)
        if cached is not None:
            return cached
        engine = self._engine
        if self._directed:
            entries = (
                engine.in_entries_of(v) if in_side else engine.out_entries_of(v)
            )
        else:
            entries = engine.entries_of(v)
        reach = frozenset({v} | {hub for hub, _, _ in entries})
        self._reach[slot] = reach
        return reach


class _Shard:
    """One lock + LRU map slice of the cache."""

    __slots__ = ("lock", "entries", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.lock = threading.Lock()
        # key -> answer; insertion order is recency order (move_to_end
        # on hit).
        self.entries: "OrderedDict[Key, float]" = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Key, count: bool):
        with self.lock:
            value = self.entries.get(key, MISS)
            if value is MISS:
                if count:
                    self.misses += 1
                return MISS
            self.entries.move_to_end(key)
            if count:
                self.hits += 1
            return value

    def put(self, key: Key, value: float) -> None:
        with self.lock:
            if key in self.entries:
                self.entries.move_to_end(key)
            self.entries[key] = value
            while len(self.entries) > self.capacity:
                self.entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, keyer: Optional[_Keyer], dirty: FrozenSet[int]) -> int:
        # A suspended cache (no keyer) drops whatever fill raced it.
        with self.lock:
            stale = [
                key for key in self.entries if keyer is None or keyer.stale(key, dirty)
            ]
            for key in stale:
                del self.entries[key]
            return len(stale)

    def clear(self) -> int:
        with self.lock:
            dropped = len(self.entries)
            self.entries.clear()
            return dropped


class AnswerCache:
    """A sharded, thread-safe LRU answer cache bound to one engine.

    ``engine`` is any index engine of any family (list or frozen) — it
    supplies the canonical-key quantization levels and the hub-reach
    sets invalidation tests; the live reference is only read, never
    queried.
    ``entries`` is the total capacity, split evenly across ``shards``
    independently-locked LRU shards.

    The cache must be told about republishes: wire it to a
    :class:`~repro.serve.server.QueryServer` with ``attach_cache`` (the
    server forwards every ``swap_image`` with the journal's dirty set),
    or call :meth:`on_republish` directly.
    """

    def __init__(
        self,
        engine,
        *,
        entries: int = DEFAULT_CACHE_ENTRIES,
        shards: int = DEFAULT_CACHE_SHARDS,
    ) -> None:
        if entries < 1:
            raise ValueError(f"entries must be >= 1, got {entries}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        shards = min(shards, entries)
        per_shard = (entries + shards - 1) // shards
        self._shards = [_Shard(per_shard) for _ in range(shards)]
        self._capacity = per_shard * shards
        self._keyer: Optional[_Keyer] = _Keyer(engine)
        self._generation = 0
        self._invalidations = 0
        self._invalidated = 0
        self._flushes = 0

    # -- keying --------------------------------------------------------
    def key_for(self, query) -> Optional[Key]:
        """Canonical key of ``query`` (``None`` = bypass the cache)."""
        keyer = self._keyer
        return keyer.key_for(query) if keyer is not None else None

    @property
    def quality_levels(self) -> Tuple[float, ...]:
        """The distinct label qualities quantization buckets snap to."""
        keyer = self._keyer
        return tuple(keyer._levels) if keyer is not None else ()

    # -- lookups / fills -----------------------------------------------
    def token(self) -> int:
        """The current generation token; capture before dispatching
        misses and pass to :meth:`put` so stale fills are dropped."""
        return self._generation

    def _shard_of(self, key: Key) -> _Shard:
        return self._shards[hash(key) % len(self._shards)]

    def get(self, key: Key, *, count: bool = True):
        """The cached answer for ``key``, or :data:`MISS`."""
        return self._shard_of(key).get(key, count)

    def put(self, key: Key, value: float, token: int) -> bool:
        """Store a fill computed under ``token``; a stale token (any
        invalidation since) drops the fill and returns ``False``."""
        if self._keyer is None or token != self._generation:
            return False
        self._shard_of(key).put(key, value)
        return True

    def count_hits(self, count: int) -> None:
        """Credit ``count`` hits served outside the shards (a client's
        first-level memo, the whole-batch fast path)."""
        shard = self._shards[0]
        with shard.lock:
            shard.hits += count

    def lookup_all(self, queries: Sequence[Query]) -> Optional[List[float]]:
        """Answers for the whole batch if *every* query hits, else
        ``None`` — the front door's answer-before-dispatch fast path.
        Hit counters only move when the whole batch is served."""
        keyer = self._keyer
        if keyer is None:
            return None
        answers: List[float] = []
        for query in queries:
            key = keyer.key_for(query)
            if key is None:
                return None
            value = self.get(key, count=False)
            if value is MISS:
                return None
            answers.append(value)
        self.count_hits(len(answers))
        return answers

    # -- invalidation --------------------------------------------------
    def invalidate(self, dirty) -> int:
        """Evict every entry whose endpoints' hub reach (in the bound
        engine) meets ``dirty``; returns the number of entries dropped.
        A republish must call this before :meth:`rebind`, while the
        reach sets still describe the engine the entries came from."""
        dirty = frozenset(dirty)
        self._generation += 1
        self._invalidations += 1
        if not dirty:
            return 0
        keyer = self._keyer
        dropped = sum(shard.invalidate(keyer, dirty) for shard in self._shards)
        self._invalidated += dropped
        return dropped

    def flush(self) -> int:
        """Drop everything (the order-changed / unknown-provenance
        path); returns the number of entries dropped."""
        self._generation += 1
        self._flushes += 1
        dropped = sum(shard.clear() for shard in self._shards)
        self._invalidated += dropped
        return dropped

    def rebind(self, engine, dirty=None) -> None:
        """Point keying at a new engine snapshot (fresh quantization
        levels and hub-reach sets).  Surviving entries stay valid: their
        endpoints were not dirty, so their labels — and therefore their
        answers per bucket and their hub reach — are unchanged.  Given
        the incremental republish's ``dirty`` set, the memoized reach of
        every clean vertex carries over instead of being recomputed."""
        old = self._keyer
        self._generation += 1
        keyer = _Keyer(engine)
        if dirty is not None and old is not None:
            keyer.inherit_reach(old, frozenset(dirty))
        self._keyer = keyer

    def suspend(self) -> None:
        """Disable the cache (all lookups miss, fills drop) — the safe
        state when a republish's new engine is not available for
        rebinding (e.g. ``swap_image`` from a file path)."""
        self._generation += 1
        self._keyer = None
        self.flush()

    def on_republish(self, *, engine=None, dirty=None, incremental=True) -> int:
        """The republish hook ``QueryServer.swap_image`` calls.

        ``dirty`` is the journal's dirty-vertex set captured before it
        was cleared; ``incremental=False`` (the vertex order changed, a
        full rebuild) flushes everything.  ``engine`` is the newly
        published engine — required to keep quantizing correctly once
        updates change the label quality set; without it the cache
        suspends itself rather than risk stale buckets.  Returns the
        number of entries dropped.
        """
        if engine is None or not hasattr(engine, "num_vertices"):
            before = len(self)
            self.suspend()
            return before
        if not incremental or dirty is None:
            dropped = self.flush()
        else:
            dropped = self.invalidate(dirty)
        self.rebind(engine, dirty if incremental else None)
        return dropped

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)

    @property
    def capacity(self) -> int:
        return self._capacity

    def snapshot(self) -> dict:
        """The counters the ``HEALTH`` frame and ``health()`` report:
        hit/miss/eviction/invalidation totals plus per-shard occupancy.
        """
        occupancy = [len(shard.entries) for shard in self._shards]
        return {
            "entries": sum(occupancy),
            "capacity": self._capacity,
            "shards": occupancy,
            "hits": sum(shard.hits for shard in self._shards),
            "misses": sum(shard.misses for shard in self._shards),
            "evictions": sum(shard.evictions for shard in self._shards),
            "invalidations": self._invalidations,
            "invalidated_entries": self._invalidated,
            "flushes": self._flushes,
            "generation": self._generation,
            "suspended": self._keyer is None,
        }

    def __repr__(self) -> str:
        return (
            f"AnswerCache(entries={len(self)}/{self._capacity}, "
            f"shards={len(self._shards)})"
        )


class CachingClient(QueryClient):
    """Any :class:`~repro.serve.client.QueryClient` transport with an
    :class:`AnswerCache` in front.

    Hits answer locally; misses are deduplicated per canonical key and
    forwarded to the inner client *in original order* — so a malformed
    query raises the engine's exact ``ValueError``, bit-identical to
    the uncached transport — and fills apply after the inner batch
    returns (dropped if a republish intervened).  ``owns_client=True``
    makes :meth:`close` close the wrapped transport too.
    """

    def __init__(
        self, inner: QueryClient, cache: AnswerCache, *, owns_client: bool = False
    ) -> None:
        self._inner = inner
        self._cache = cache
        self._owns = owns_client
        self._closed = False
        # First-level memo: raw query tuple -> answer, valid for one
        # cache generation only (cleared whenever the token moves, so
        # invalidations propagate).  It exists because a warm hit must
        # cost one dict lookup, not a canonical-key computation plus a
        # shard lock — that is what lets the cache outrun the vectorized
        # batch kernels.  Bounded by the cache capacity; clears (rather
        # than evicts) when full, so the hot set repopulates itself.
        self._l1: Dict[Query, float] = {}
        self._l1_generation = cache.token() - 1
        self._l1_capacity = cache.capacity

    @property
    def inner(self) -> QueryClient:
        return self._inner

    @property
    def cache(self) -> AnswerCache:
        return self._cache

    def distance_many(self, queries: Sequence[Query]) -> List[float]:
        return self._serve(list(queries), None)

    def distance_many_traced(self, queries: Sequence[Query], sink) -> List[float]:
        """Traced variant: reports a ``cache-lookup`` span (hit/miss
        meta included) to ``sink`` and forwards the miss batch through
        the inner client's own traced entry point when it has one."""
        return self._serve(list(queries), sink)

    def _serve(self, queries: List[Query], sink) -> List[float]:
        if self._closed:
            raise RuntimeError("client is closed")
        lookup_start = time.monotonic() if sink is not None else 0.0
        cache = self._cache
        token = cache.token()
        l1 = self._l1
        if token != self._l1_generation:
            l1.clear()
            self._l1_generation = token
        l1_hits = 0
        answers: List[Optional[float]] = [None] * len(queries)
        forwarded: List[Query] = []
        #: Parallel to ``forwarded``: (key, positions-to-fill).
        slots: List[Tuple[Optional[Key], List[int]]] = []
        pending: Dict[Key, List[int]] = {}
        for at, query in enumerate(queries):
            try:
                value = l1.get(query)
            except TypeError:  # unhashable query: the keyed path decides
                value = None
            if value is not None:
                answers[at] = value
                l1_hits += 1
                continue
            key = cache.key_for(query)
            if key is None:
                forwarded.append(query)
                slots.append((None, [at]))
                continue
            value = cache.get(key)
            if value is not MISS:
                answers[at] = value
                if len(l1) >= self._l1_capacity:
                    l1.clear()
                l1[query] = value
                continue
            positions = pending.get(key)
            if positions is not None:
                positions.append(at)  # duplicate miss: one forward
                continue
            positions = [at]
            pending[key] = positions
            forwarded.append(query)
            slots.append((key, positions))
        if l1_hits:
            cache.count_hits(l1_hits)
        if sink is not None:
            sink(
                "cache-lookup",
                lookup_start,
                time.monotonic(),
                hits=len(queries) - len(forwarded),
                misses=len(forwarded),
            )
        if forwarded:
            inner_traced = (
                getattr(self._inner, "distance_many_traced", None)
                if sink is not None
                else None
            )
            if inner_traced is not None:
                filled = inner_traced(forwarded, sink)
            else:
                filled = self._inner.distance_many(forwarded)
            memoizable = token == cache.token()
            for (key, positions), query, value in zip(
                slots, forwarded, filled
            ):
                for at in positions:
                    answers[at] = value
                if key is not None:
                    cache.put(key, value, token)
                    if memoizable:
                        if len(l1) >= self._l1_capacity:
                            l1.clear()
                        l1[query] = value
        return answers  # type: ignore[return-value]

    def cached_answers(self, queries: Sequence[Query]) -> Optional[List[float]]:
        """Whole-batch fast path: the answers if every query hits, else
        ``None`` (the network front door answers hits before dispatch)."""
        if self._closed:
            return None
        return self._cache.lookup_all(queries)

    def health(self) -> dict:
        report = dict(self._inner.health())
        report["cache"] = self._cache.snapshot()
        return report

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns:
            self._inner.close()
