"""Quickstart: build a WC-INDEX and answer quality constrained distance
queries — including the frozen flat-array engine for query-heavy serving.

Run with::

    python examples/quickstart.py
"""

from repro import Graph, build_wc_index_plus
from repro.core import WCPathIndex


def main() -> None:
    # A small network: edges carry a quality (e.g. bandwidth, trust,
    # kinase activity — anything where a path is only usable if EVERY edge
    # meets the bar).
    graph = Graph(
        6,
        [
            (0, 1, 3.0),
            (0, 3, 1.0),
            (1, 2, 5.0),
            (1, 3, 2.0),
            (2, 3, 4.0),
            (3, 4, 4.0),
            (3, 5, 2.0),
            (4, 5, 3.0),
        ],
    )
    print(f"graph: {graph}")

    # One index answers queries for EVERY quality threshold w.
    index = build_wc_index_plus(graph)
    print(f"index: {index}")

    for w in (1.0, 2.0, 3.0):
        d = index.distance(0, 4, w)
        print(f"dist(v0, v4 | quality >= {w:g}) = {d:g}")

    # Raising the constraint can only lengthen the path:
    assert index.distance(0, 4, 1.0) <= index.distance(0, 4, 2.0)

    # Unreachable under a too-strict constraint:
    print(f"dist(v0, v4 | quality >= 99) = {index.distance(0, 4, 99.0):g}")

    # Want the actual route, not just the distance?  Build with parent
    # tracking (Section V of the paper):
    pindex = WCPathIndex.build(graph)
    for w in (1.0, 2.0, 3.0):
        print(f"path(v0, v4 | w >= {w:g}) = {pindex.path(0, 4, w)}")

    # Serving heavy query traffic?  Freeze the index into flat-array
    # storage: same answers, contiguous memory, a precomputed hub-group
    # directory, and a fast batch path.  (The CLI equivalent is
    # `python -m repro build --out net.wcxb` then
    # `python -m repro query --index net.wcxb ...`.)
    frozen = index.freeze()
    print(f"frozen: {frozen}")
    batch = frozen.distance_many([(0, 4, 1.0), (0, 4, 2.0), (0, 4, 99.0)])
    print(f"batch dist(v0, v4 | w in 1, 2, 99) = {batch}")
    assert batch == [index.distance(0, 4, w) for w in (1.0, 2.0, 99.0)]

    # Frozen indexes thaw back into mutable ones for dynamic updates:
    assert frozen.thaw().entries_of(0) == index.entries_of(0)


if __name__ == "__main__":
    main()
