"""Tests for shared-memory index images (publish / attach / cleanup)."""

import pytest

from tests.helpers import random_graph

from repro.core import (
    DirectedWCIndex,
    WeightedWCIndex,
    build_wc_index_plus,
    save_frozen,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import paper_figure3
from repro.graph.weighted import WeightedGraph
from repro.serve import ShmIndexImage, attach_image
from repro.workloads.queries import random_queries


def segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


class TestShmIndexImage:
    def test_publish_attach_answers_match(self):
        g = random_graph(5)
        index = build_wc_index_plus(g, "degree")
        frozen = index.freeze()
        workload = list(random_queries(g, 100, seed=1))
        with ShmIndexImage(frozen) as image:
            with attach_image(image.name) as attached:
                assert (
                    attached.engine.distance_many(workload)
                    == frozen.distance_many(workload)
                )

    def test_accepts_list_engine_and_all_families(self):
        digraph = DiGraph(4, [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0)])
        wgraph = WeightedGraph(
            3, [(0, 1, 2.0, 3.0), (1, 2, 1.5, 1.0)]
        )
        for index in (
            build_wc_index_plus(paper_figure3(), "identity"),
            DirectedWCIndex(digraph),
            WeightedWCIndex(wgraph),
        ):
            frozen = index.freeze()
            with ShmIndexImage(index) as image:
                with attach_image(image.name) as attached:
                    assert type(attached.engine) is type(frozen)
                    assert (
                        attached.engine.entry_count() == frozen.entry_count()
                    )

    def test_publish_from_wcxb_path(self, tmp_path):
        index = build_wc_index_plus(paper_figure3(), "identity")
        path = tmp_path / "net.wcxb"
        save_frozen(index, path)
        with ShmIndexImage(str(path)) as image:
            assert image.size == path.stat().st_size
            with attach_image(image.name) as attached:
                assert attached.engine.entry_count() == index.entry_count()

    def test_publishing_a_corrupt_path_fails_loudly(self, tmp_path):
        # Regression: the v3 fast path used to publish the file bytes
        # verbatim, and attachers never validate — a bit-flipped image
        # that load_frozen rejects was silently served.
        import struct

        from tests.core.test_serialize import section_offset

        from repro.core import IndexFormatError

        index = build_wc_index_plus(paper_figure3(), "identity")
        path = tmp_path / "net.wcxb"
        save_frozen(index, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<i", data, section_offset(data, "hubs"), 99)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="hub rank"):
            ShmIndexImage(str(path))
        # Trusted images can still opt out of the publish-time scan.
        with ShmIndexImage(str(path), validate=False) as image:
            with attach_image(image.name) as attached:
                assert attached.engine.entry_count() == index.entry_count()

    def test_attach_engine_in_process(self):
        index = build_wc_index_plus(paper_figure3(), "identity")
        with ShmIndexImage(index) as image:
            engine = image.attach_engine()
            assert engine.entry_count() == index.entry_count()
            engine.release()

    def test_destroy_unlinks_the_segment(self):
        image = ShmIndexImage(build_wc_index_plus(paper_figure3()))
        name = image.name
        assert segment_exists(name)
        image.destroy()
        assert not segment_exists(name)
        image.destroy()  # idempotent
        with pytest.raises(ValueError, match="destroyed"):
            image.attach_engine()

    def test_attached_close_is_idempotent(self):
        with ShmIndexImage(build_wc_index_plus(paper_figure3())) as image:
            attached = attach_image(image.name)
            attached.close()
            attached.close()

    def test_attach_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            attach_image("wcindex-no-such-segment")

    def test_destroy_unlinks_even_with_an_unreleased_engine(self):
        # Regression: destroy() used to close before unlinking, so the
        # BufferError raised for an unreleased attach_engine view
        # skipped the unlink and leaked the segment permanently.
        image = ShmIndexImage(build_wc_index_plus(paper_figure3()))
        name = image.name
        engine = image.attach_engine()
        with pytest.raises(BufferError):
            image.destroy()
        assert not segment_exists(name)
        # Releasing the views and retrying finishes the close cleanly.
        engine.release()
        image.destroy()
