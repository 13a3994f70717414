"""Benchmark inputs: road-like graphs, query streams, churn.

Everything is generated here with :class:`random.Random` and handed to
the program only through its public graph constructors (``Graph``,
``DiGraph``, ``WeightedGraph``), so a change to ``repro.workloads`` or
``repro.graph.generators`` cannot change what is measured.  Each purpose
draws from its own stream (``stream(seed, name)``), so adding draws to
one input never shifts another.

The road graphs are fixtures: generated by the same code, but from the
constant ``FIXTURE`` instead of the run's ``--seed``.  Across seeds the
layout alone moved label entries by 4-9% and build times by 15-30%
(coefficient of variation per family), which would swamp the bounds a
regression is judged by; with a fixed layout the images are
byte-identical from run to run.  The run's seed draws everything else:
query sources and streams, Zipf bursts, the churn mutation stream and
the answers sampled for checking.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Sequence, Tuple

#: Edge qualities are the integers 1..5 (road classes, 5 = motorway).
MAX_QUALITY = 5
#: Query thresholds: every level, the half-way points between levels
#: (which must behave like the next level up) and 5.5, above every edge.
#: Ten distinct values keep batches on the numpy kernel's per-threshold
#: path instead of its high-cardinality fallback.
THRESHOLDS = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5)

#: Grid shapes (rows, cols).  The undirected and directed bulk graphs
#: share one 1,088-vertex grid; weighted construction grows steeply
#: (about 0.35 s at 272 vertices, 1 s at 400), so the weighted graph is
#: its 16 x 17 corner.  The churn graph is small enough that a rebuild
#: (every downward quality change) stays near a tenth of a second.
BULK_GRID = (32, 34)
WEIGHTED_GRID = (16, 17)
CHURN_GRID = (20, 22)
#: Share of directed streets (below motorway class) that stay two-way.
#: Directed construction time climbs steeply with it: 0.3 s at 0.3,
#: 1.2 s at 0.5, 5-6 s at 0.7 on the 1,088-vertex grid.
TWO_WAY_SHARE = 0.4

Edge = Tuple[int, int, float]


#: Seed of the road-graph fixtures.
FIXTURE = 0


def stream(seed: int, purpose: str) -> random.Random:
    """The independent random stream of one input for one seed."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def road_grid(rng: random.Random, rows: int, cols: int) -> List[Edge]:
    """A perforated road grid with five quality levels.

    Every 8th row/column is a motorway (quality 5, sometimes 4), every
    4th an arterial (3 or 4), the rest local streets (1-3).  Each grid
    edge is missing with probability 0.12 (the perforation), so lower
    levels detour and the top levels break into fragments, as real road
    classes do.  Vertex ``r * cols + c`` sits at row ``r``, column ``c``.
    """

    def quality(line: int) -> float:
        if line % 8 == 0:
            return 5.0 if rng.random() < 0.7 else 4.0
        if line % 4 == 0:
            return float(rng.choice((3, 4)))
        return float(rng.choice((1, 1, 2, 2, 3)))

    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols and rng.random() > 0.12:
                edges.append((v, v + 1, quality(r)))
            if r + 1 < rows and rng.random() > 0.12:
                edges.append((v, v + cols, quality(c)))
    return edges


def orient(rng: random.Random, edges: Sequence[Edge]) -> List[Edge]:
    """Directed derivative: motorways and a share of streets stay
    two-way, the remaining streets become one-way in a random direction."""
    arcs: List[Edge] = []
    for u, v, q in edges:
        if q >= 4 or rng.random() < TWO_WAY_SHARE:
            arcs.append((u, v, q))
            arcs.append((v, u, q))
        elif rng.random() < 0.5:
            arcs.append((u, v, q))
        else:
            arcs.append((v, u, q))
    return arcs


def corner(edges: Sequence[Edge], cols: int, rows2: int, cols2: int) -> List[Edge]:
    """The edges of the ``rows2 x cols2`` top-left corner of a grid with
    ``cols`` columns, relabelled to a dense ``rows2 * cols2`` grid."""

    def inside(v: int) -> bool:
        return v // cols < rows2 and v % cols < cols2

    def relabel(v: int) -> int:
        return (v // cols) * cols2 + v % cols

    return [
        (relabel(u), relabel(v), q) for u, v, q in edges if inside(u) and inside(v)
    ]


def with_lengths(rng: random.Random, edges: Sequence[Edge]):
    """Weighted derivative: integer lengths 1..9 (as floats, so every
    path sum is exact and the oracle can compare answers with ``==``)."""
    return [(u, v, float(rng.randint(1, 9)), q) for u, v, q in edges]


def pick_sources(rng: random.Random, n: int, count: int) -> List[int]:
    """``count`` distinct query sources: the oracle solves from each."""
    return sorted(rng.sample(range(n), min(count, n)))


def uniform_queries(
    rng: random.Random,
    sources: Sequence[int],
    n: int,
    count: int,
    symmetric: bool,
) -> List[Tuple[int, int, float]]:
    """Uniform ``(s, t, w)`` queries with ``s`` a source, ``t`` any vertex
    and ``w`` any threshold; for a symmetric family the pair is swapped
    half the time, so both endpoints vary over the whole graph."""
    queries = []
    for _ in range(count):
        s = rng.choice(sources)
        t = rng.randrange(n)
        w = rng.choice(THRESHOLDS)
        if symmetric and rng.random() < 0.5:
            s, t = t, s
        queries.append((s, t, w))
    return queries


class Zipf:
    """Draws ranks ``0..size-1`` with probability proportional to
    ``1 / (rank + 1) ** exponent``."""

    def __init__(self, size: int, exponent: float) -> None:
        total = 0.0
        self._cumulative = []
        for rank in range(size):
            total += 1.0 / (rank + 1) ** exponent
            self._cumulative.append(total)
        self._total = total

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cumulative, rng.random() * self._total)


class TrafficStream:
    """The churn workload's mutation stream: quality changes on existing
    edges, generated in whole rounds of four single-change batches.

    Each round opens with one *jam*: an uncongested edge of quality >= 4
    drops three levels — a downward change, which the undirected live
    index serves by rebuilding.  Three *recoveries* follow, each raising
    a congested edge one level back towards its base quality — upward
    changes, repaired incrementally.  A jam adds exactly the three
    levels the round's recoveries remove, so the congested stock, and
    with it the graph, stays stationary however many rounds a run
    reaches.  ``congest`` seeds the stock before the index is built,
    from its own random stream; ``rng`` draws the rounds.
    """

    JAM_DROP = 3

    def __init__(self, edges: Sequence[Edge], rng: random.Random) -> None:
        self._rng = rng
        self.base: Dict[Tuple[int, int], float] = {(u, v): q for u, v, q in edges}
        self.current: Dict[Tuple[int, int], float] = dict(self.base)
        self._keys = sorted(self.base)

    def congest(self, rng: random.Random, count: int) -> List[Edge]:
        """Jam ``count`` edges up front; returns the graph's edge list."""
        for _ in range(count):
            self._jam(rng)
        return [(u, v, self.current[(u, v)]) for u, v in self._keys]

    def _jam(self, rng: random.Random) -> Tuple[int, int, float]:
        candidates = [
            key
            for key in self._keys
            if self.current[key] == self.base[key] and self.base[key] >= 4
        ]
        u, v = rng.choice(candidates)
        self.current[(u, v)] -= self.JAM_DROP
        return u, v, self.current[(u, v)]

    def _recover(self) -> Tuple[int, int, float]:
        candidates = [
            key for key in self._keys if self.current[key] < self.base[key]
        ]
        u, v = self._rng.choice(candidates)
        self.current[(u, v)] += 1.0
        return u, v, self.current[(u, v)]

    def round(self):
        """One round, yielded batch by batch as ``(kind, mutations)``:
        ``kind`` is ``"rebuild"`` or ``"repair"``, mutations follow the
        live index's ``("quality", u, v, q)`` grammar.  The stream's own
        view of the graph (``current``) is updated as each batch is
        yielded, so it matches the program's after that batch."""
        yield "rebuild", [("quality",) + self._jam(self._rng)]
        for _ in range(self.JAM_DROP):
            yield "repair", [("quality",) + self._recover()]
