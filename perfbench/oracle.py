"""The benchmark's own oracle: constrained BFS and Dijkstra, and checks.

Written apart from ``repro.baselines`` on purpose, so a fault shared by
the program and its own baselines cannot pass unseen.  A query
``(s, t, w)`` may only use edges of quality ``>= w``; qualities are the
integers 1..5, so a threshold ``w`` selects the same edges as level
``ceil(w)`` and a threshold above 5 selects none.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Dict, List, Sequence, Tuple

from inputs import MAX_QUALITY

INF = float("inf")


def level_of(w: float) -> int:
    """The lowest quality an edge needs to pass threshold ``w``."""
    return max(1, math.ceil(w))


class Oracle:
    """Exact constrained distances on one graph, solved per source.

    ``arcs`` are ``(u, v, quality)`` or, when ``weighted``,
    ``(u, v, length, quality)``; with ``symmetric`` every arc is also
    usable backwards.  Distances from a source at a level are solved on
    first use and kept, so a query universe built from a few hundred
    sources costs a few hundred searches per level.
    """

    def __init__(self, n: int, arcs: Sequence[tuple], *, symmetric: bool,
                 weighted: bool = False) -> None:
        self.n = n
        self.symmetric = symmetric
        self.weighted = weighted
        # adjacency[level][u] = [(v, length), ...] over edges of quality >= level
        self._adjacency: List[List[List[Tuple[int, float]]]] = [
            [[] for _ in range(n)] for _ in range(MAX_QUALITY + 1)
        ]
        for arc in arcs:
            if weighted:
                u, v, length, quality = arc
            else:
                (u, v, quality), length = arc, 1.0
            for level in range(1, int(quality) + 1):
                self._adjacency[level][u].append((v, length))
                if symmetric:
                    self._adjacency[level][v].append((u, length))
        self._solved: Dict[Tuple[int, int], List[float]] = {}

    def distances(self, source: int, level: int) -> List[float]:
        key = (source, level)
        table = self._solved.get(key)
        if table is None:
            adjacency = self._adjacency[level]
            search = _dijkstra if self.weighted else _bfs
            table = self._solved[key] = search(adjacency, source, self.n)
        return table

    def expected(self, s: int, t: int, w: float, sources=None) -> float:
        """``d(s, t, w)``.  With ``sources`` given and a symmetric graph,
        solve from whichever endpoint is a source."""
        if s == t:
            return 0.0
        level = level_of(w)
        if level > MAX_QUALITY:
            return INF
        if self.symmetric and sources is not None and s not in sources:
            s, t = t, s
        return self.distances(s, level)[t]


def _bfs(adjacency, source: int, n: int) -> List[float]:
    dist = [INF] * n
    dist[source] = 0.0
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        step = dist[u] + 1.0
        for v, _ in adjacency[u]:
            if dist[v] == INF:
                dist[v] = step
                frontier.append(v)
    return dist


def _dijkstra(adjacency, source: int, n: int) -> List[float]:
    dist = [INF] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, length in adjacency[u]:
            nd = d + length
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


class Checker:
    """Counts answers checked and mismatches; keeps a few examples."""

    def __init__(self) -> None:
        self.checked = 0
        self.mismatches = 0
        self.examples: List[str] = []

    def fail(self, message: str) -> None:
        self.mismatches += 1
        if len(self.examples) < 5:
            self.examples.append(message)

    def compare(self, what: str, queries, answers, expected) -> None:
        """Every answer must equal its oracle value exactly."""
        if len(answers) != len(queries):
            self.fail(f"{what}: {len(answers)} answers for {len(queries)} queries")
            return
        self.checked += len(answers)
        for query, got, want in zip(queries, answers, expected):
            if got != want:
                self.fail(f"{what}: d{query} = {got!r}, oracle says {want!r}")

    def against(self, what: str, oracle: Oracle, queries, answers, sources=None) -> None:
        self.compare(
            what,
            queries,
            answers,
            [oracle.expected(s, t, w, sources) for s, t, w in queries],
        )

    def properties(self, what: str, answer_many, pairs, thresholds, symmetric: bool) -> None:
        """``d(s, t, w)`` never falls as ``w`` rises, and for a symmetric
        family ``d(s, t, w) = d(t, s, w)``.  ``answer_many`` is the
        program's batch entry point under test."""
        ladder = sorted(thresholds)
        queries = [(s, t, w) for s, t in pairs for w in ladder]
        answers = answer_many(queries)
        self.checked += len(answers)
        for at in range(0, len(answers), len(ladder)):
            row = answers[at:at + len(ladder)]
            if any(b < a for a, b in zip(row, row[1:])):
                self.fail(f"{what}: d{queries[at][:2]} falls as w rises: {row}")
        if symmetric:
            mirrored = answer_many([(t, s, w) for s, t, w in queries])
            self.checked += len(mirrored)
            for query, a, b in zip(queries, answers, mirrored):
                if a != b:
                    self.fail(f"{what}: d{query} = {a!r} but reversed = {b!r}")

    def equal_totals(self, what: str, mine: int, theirs: int) -> None:
        """Two counts reached independently must agree."""
        if mine != theirs:
            self.fail(f"{what}: benchmark counted {mine}, program reports {theirs}")

    @property
    def ok(self) -> bool:
        return self.mismatches == 0
