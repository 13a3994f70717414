"""Golden bytes of the ``.wcxb`` v3 writer and the ``WCXD`` delta blob.

The digests pin the exact on-disk bytes for every index family, with
parent tracking on and off, on fixed seeded graphs (plus each family's
``n = 0`` image and one appended delta blob).  Any refactor of the frozen
engines or the serializer must reproduce them unchanged: images written
before the change stay attachable and patchable after it.
"""

import hashlib
import io

import pytest

from tests.helpers import random_digraph, random_graph, random_weighted_graph

from repro.core import DirectedWCIndex, WCIndexBuilder, WeightedWCIndex
from repro.core.serialize import append_delta, load_frozen, save_frozen
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph

#: Per family: index constructor, seeded graph, empty graph.
FAMILIES = {
    "undirected": (
        lambda g, track_parents: WCIndexBuilder(
            g, "degree", track_parents=track_parents
        ).build(),
        random_graph(11),
        Graph(0),
    ),
    "directed": (DirectedWCIndex, random_digraph(11), DiGraph(0)),
    "weighted": (WeightedWCIndex, random_weighted_graph(11), WeightedGraph(0)),
}

#: SHA-256 per ``(family, key)``: ``False`` / ``True`` the image without /
#: with parents, ``"empty"`` the n = 0 image, ``"delta"`` the blob
#: ``append_delta`` adds to the parent-tracking image for :data:`DIRTY`.
DIGESTS = {
    ("undirected", False): "43927181e121f0194c75a37ede0f50a83c423c42eb1e973d70bf510bc202d57f",
    ("undirected", True): "7405550b38e1e6906d5231662c4e49968d11538267c9451cbbe993b86cf84db8",
    ("undirected", "empty"): "c325aaeeed1c94aa872c5639236a3516d2894f137364fca1c4edb32003fb6a93",
    ("undirected", "delta"): "a992949eb56f9adb0fb41e6a488e64a60221ffdc81014035171f4341cc22d7a3",
    ("directed", False): "0a72e27d683e92bc93fa571015fa174ed61c84bf93f80c5f2a8dfb7346c74ed2",
    ("directed", True): "5735c8c9c44cc8b61d418cd62f3f49d17ade18bb0dcd827d741de11955fbd17a",
    ("directed", "empty"): "072196f01b7447f373ab97d3580da16ebf176c21047df0fb62a0800e9cb5b2a4",
    ("directed", "delta"): "49a720fb1a3f9f4ee6b871d9fff53e9b68eec4041ef095772cf2d2578d8af1da",
    ("weighted", False): "ce6215111865a438f3dd301d0afad012d5d794f42354f8049db5022d31eb20b1",
    ("weighted", True): "6b9de3282197badd6be09be03cc82dadb349cb5c9d97075543ea34dcf42edfcd",
    ("weighted", "empty"): "8f3f7c6a71e392ced9527db0d797a61fc576592a212801fe1962d74eeabb831a",
    ("weighted", "delta"): "2577e34135dc6ecb043691fffc5d0376f04df61fdc965c01ea6a390e47903697",
}

DIRTY = [0, 3, 4, 8]


def build(family, parents, empty=False):
    make, graph, empty_graph = FAMILIES[family]
    return make(empty_graph if empty else graph, track_parents=parents)


def image_digest(index) -> str:
    buffer = io.BytesIO()
    save_frozen(index, buffer)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("parents", [False, True])
def test_image_bytes_are_pinned(family, parents):
    index = build(family, parents)
    assert image_digest(index) == DIGESTS[family, parents]
    assert image_digest(index.freeze()) == DIGESTS[family, parents]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_empty_image_and_delta_blob_are_pinned(family, tmp_path):
    assert image_digest(build(family, False, empty=True)) == DIGESTS[family, "empty"]
    index = build(family, True)
    path = tmp_path / "base.wcxb"
    save_frozen(index, path)
    base_size = path.stat().st_size
    assert append_delta(index, path, DIRTY) > 0
    blob = path.read_bytes()[base_size:]
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[family, "delta"]
    # The spliced engine writes back the pinned base image.
    assert image_digest(load_frozen(path)) == DIGESTS[family, True]
