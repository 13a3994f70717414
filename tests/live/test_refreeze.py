"""Tests for incremental refreeze, in-place patches, and delta blobs."""

import io

import pytest

from repro.core import (
    IndexFormatError,
    attach_frozen,
    describe_frozen,
    load_frozen,
    save_frozen,
)
from repro.core.frozen import splice_column, spliced_offsets
from repro.core.serialize import append_delta
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_graph, oriented_copy
from repro.graph.weighted import WeightedGraph
from repro.live import (
    DeltaPatch,
    LiveDirectedWCIndex,
    LiveWCIndex,
    LiveWeightedWCIndex,
    incremental_refreeze,
    make_patch,
    refreeze,
)
from repro.live.refreeze import diff_image, image_bytes


def make_live_undirected(seed=3):
    graph = gnm_random_graph(12, 20, num_qualities=3, seed=seed)
    return LiveWCIndex(graph.copy())


def mutate(live):
    """A small mixed batch valid for every family."""
    graph = live.graph
    n = graph.num_vertices
    for u in range(n):
        for v in range(n):
            if u != v and not graph.has_edge(u, v):
                if isinstance(live, LiveWeightedWCIndex):
                    live.insert_edge(u, v, 2.0, length=3.0)
                else:
                    live.insert_edge(u, v, 2.0)
                return


class TestIncrementalRefreeze:
    @pytest.mark.parametrize("family", ["undirected", "directed", "weighted"])
    def test_bit_identical_to_full_freeze(self, family, tmp_path):
        graph = gnm_random_graph(12, 22, num_qualities=3, seed=9)
        if family == "undirected":
            live = LiveWCIndex(graph.copy())
        elif family == "directed":
            live = LiveDirectedWCIndex(oriented_copy(graph, seed=1))
        else:
            wgraph = WeightedGraph(graph.num_vertices)
            for u, v, q in graph.edges():
                wgraph.add_edge(u, v, float((u + v) % 3 + 1), q)
            live = LiveWeightedWCIndex(wgraph)
        old = live.freeze()
        patched = tmp_path / "patched.wcxb"
        delta = tmp_path / "delta.wcxb"
        save_frozen(old, patched)
        save_frozen(old, delta)
        mutate(live)
        edge = next(iter(live.graph.edges()))
        live.delete_edge(edge[0], edge[1])
        dirty = live.journal.dirty_vertices()
        result = refreeze(old, live.index, dirty)
        assert result.incremental
        engine = result.engine
        canonical = image_bytes(live.freeze())
        assert image_bytes(engine) == canonical
        # Both on-disk update paths reach the same bytes for every family.
        make_patch(patched, engine).apply(patched)
        assert patched.read_bytes() == canonical
        append_delta(engine, delta, sorted(dirty))
        assert image_bytes(load_frozen(delta)) == canonical
        assert image_bytes(attach_frozen(delta.read_bytes())) == canonical

    def test_empty_dirty_reproduces_the_image(self):
        live = make_live_undirected()
        old = live.freeze()
        engine = incremental_refreeze(old, live.index, set())
        assert image_bytes(engine) == image_bytes(old)

    def _order_changed_live(self):
        """A live index whose order diverged from its first freeze:
        degree-changing inserts followed by a fresh-ordering rebuild."""
        live = make_live_undirected()
        old = live.freeze()
        hub = max(live.graph.vertices(), key=live.graph.degree)
        for v in live.graph.vertices():
            if v != hub and not live.graph.has_edge(hub, v):
                live.insert_edge(hub, v, 1.0)
        live.dynamic.rebuild()  # fresh hybrid ordering over new degrees
        assert live.index.order != old.order
        return live, old

    def test_order_change_raises(self):
        live, old = self._order_changed_live()
        with pytest.raises(ValueError, match="order changed"):
            incremental_refreeze(old, live.index, {0})

    def test_refreeze_falls_back_on_order_change(self):
        live, old = self._order_changed_live()
        result = refreeze(old, live.index, set(range(live.num_vertices)))
        assert image_bytes(result.engine) == image_bytes(live.freeze())
        assert not result.incremental

    def test_out_of_range_dirty_rejected(self):
        live = make_live_undirected()
        old = live.freeze()
        with pytest.raises(ValueError, match="out of range"):
            incremental_refreeze(old, live.index, {live.num_vertices})

    def test_parent_tracking_mismatch_rejected(self):
        from repro.core import build_wc_index_plus

        graph = gnm_random_graph(8, 12, num_qualities=3, seed=5)
        plain = build_wc_index_plus(graph)
        with_parents = build_wc_index_plus(graph, track_parents=True)
        with pytest.raises(ValueError, match="parent"):
            incremental_refreeze(plain.freeze(), with_parents, {0})

    def test_parent_tracking_splices(self):
        from repro.core import build_wc_index_plus
        from repro.core.dynamic import DynamicWCIndex

        graph = gnm_random_graph(10, 16, num_qualities=3, seed=8)
        index = build_wc_index_plus(graph.copy(), track_parents=True)
        old = index.freeze()
        dyn = DynamicWCIndex(graph.copy(), index=index)
        dirty = dyn.insert_edge(0, 9, 2.0)
        engine = incremental_refreeze(old, dyn.index, dirty)
        assert image_bytes(engine) == image_bytes(dyn.freeze())


class TestSplicePrimitives:
    def test_spliced_offsets(self):
        from array import array

        old = array("q", [0, 2, 5, 5, 9])
        out = spliced_offsets(old, {1: 1, 3: 6})
        assert list(out) == [0, 2, 3, 3, 9]

    def test_splice_column_swaps_entries(self):
        from array import array

        offsets = array("q", [0, 2, 4, 6])
        column = array("i", [10, 11, 20, 21, 30, 31])
        out = splice_column(offsets, column, "i", {1: [99, 98, 97]})
        assert list(out) == [10, 11, 99, 98, 97, 30, 31]

    def test_splice_column_rejects_bad_vertex(self):
        from array import array

        offsets = array("q", [0, 1])
        column = array("i", [1])
        with pytest.raises(ValueError, match="out of range"):
            splice_column(offsets, column, "i", {5: [1]})


class TestDeltaPatch:
    def test_patched_file_is_canonical(self, tmp_path):
        live = make_live_undirected()
        old = live.freeze()
        path = tmp_path / "x.wcxb"
        save_frozen(old, path)
        mutate(live)
        result = refreeze(old, live.index, live.journal.dirty_vertices())
        patch = make_patch(path, result.engine)
        patch.apply(path)
        assert path.read_bytes() == image_bytes(live.freeze())
        assert patch.new_size == path.stat().st_size

    def test_atomic_apply_leaves_no_staging_file(self, tmp_path):
        live = make_live_undirected(seed=4)
        old = live.freeze()
        path = tmp_path / "x.wcxb"
        save_frozen(old, path)
        mutate(live)
        result = refreeze(old, live.index, live.journal.dirty_vertices())
        make_patch(path, result.engine).apply(path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == image_bytes(live.freeze())

    def test_non_atomic_apply_matches(self, tmp_path):
        live = make_live_undirected(seed=4)
        old = live.freeze()
        path = tmp_path / "x.wcxb"
        save_frozen(old, path)
        mutate(live)
        result = refreeze(old, live.index, live.journal.dirty_vertices())
        make_patch(path, result.engine).apply(path, atomic=False)
        assert path.read_bytes() == image_bytes(live.freeze())

    def test_atomic_apply_keeps_attached_readers_on_the_old_image(
        self, tmp_path
    ):
        live = make_live_undirected(seed=4)
        old = live.freeze()
        path = tmp_path / "x.wcxb"
        save_frozen(old, path)
        attached = load_frozen(path, mode="mmap")
        try:
            old_image = image_bytes(old)
            mutate(live)
            result = refreeze(old, live.index, live.journal.dirty_vertices())
            make_patch(path, result.engine).apply(path)
            # The replace swapped the inode: the attached reader still
            # sees the intact previous generation.
            assert image_bytes(attached) == old_image
        finally:
            attached.release()

    def test_apply_refuses_a_mismatched_file(self, tmp_path):
        path = tmp_path / "x.wcxb"
        path.write_bytes(b"abc")
        patch = DeltaPatch(old_size=4, new_size=4, ranges=[(0, b"zzzz")])
        with pytest.raises(ValueError, match="bytes"):
            patch.apply(path)

    def test_diff_image_handles_growth_and_shrink(self):
        old = bytes(range(256)) * 64
        grown = old + b"tail"
        patch = diff_image(old, grown)
        rebuilt = bytearray(old)
        for offset, chunk in patch.ranges:
            rebuilt[offset:offset + len(chunk)] = chunk
        assert bytes(rebuilt[: patch.new_size]) == grown

        shrunk = old[:100]
        patch = diff_image(old, shrunk)
        assert patch.new_size == 100

    def test_diff_image_is_minimal_for_a_spot_change(self):
        old = bytes(10 * 4096)
        new = bytearray(old)
        new[20000] = 7
        patch = diff_image(old, bytes(new))
        assert patch.bytes_written <= 4096


class TestDeltaBlobs:
    def _updated(self, tmp_path):
        live = make_live_undirected(seed=13)
        old = live.freeze()
        path = tmp_path / "x.wcxb"
        save_frozen(old, path)
        mutate(live)
        return live, old, path

    def test_load_and_attach_resolve_the_chain(self, tmp_path):
        live, old, path = self._updated(tmp_path)
        dirty1 = live.journal.dirty_vertices()
        engine1 = incremental_refreeze(old, live.index, dirty1)
        append_delta(engine1, path, sorted(dirty1))
        live.journal.clear()
        # Second batch chains a second blob.
        edge = next(iter(live.graph.edges()))
        live.change_quality(edge[0], edge[1], 0.5)
        dirty2 = live.journal.dirty_vertices()
        engine2 = incremental_refreeze(engine1, live.index, dirty2)
        appended = append_delta(engine2, path, sorted(dirty2))
        assert appended > 0

        canonical = image_bytes(live.freeze())
        assert image_bytes(load_frozen(path)) == canonical
        attached = attach_frozen(path.read_bytes())
        assert image_bytes(attached) == canonical
        # The thawed list engine resolves too.
        thawed = load_frozen(path).thaw()
        assert thawed.entry_count() == live.index.entry_count()

    def test_describe_reports_the_chain(self, tmp_path):
        live, old, path = self._updated(tmp_path)
        dirty = live.journal.dirty_vertices()
        engine = incremental_refreeze(old, live.index, dirty)
        append_delta(engine, path, sorted(dirty))
        described = describe_frozen(path)
        assert len(described["deltas"]) == 1
        assert described["deltas"][0]["num_dirty"] == len(dirty)
        assert described["total_bytes"] == path.stat().st_size
        base = describe_frozen(io.BytesIO(image_bytes(old)))
        assert base["deltas"] == []

    def test_empty_dirty_appends_nothing(self, tmp_path):
        live, old, path = self._updated(tmp_path)
        before = path.read_bytes()
        assert append_delta(old, path, []) == 0
        assert path.read_bytes() == before

    def test_variant_mismatch_rejected(self, tmp_path):
        live, old, path = self._updated(tmp_path)
        directed = LiveDirectedWCIndex(DiGraph(2, [(0, 1, 1.0)]))
        with pytest.raises(IndexFormatError, match="directed"):
            append_delta(directed.freeze(), path, [0])

    def test_order_mismatch_rejected(self, tmp_path):
        live, old, path = self._updated(tmp_path)
        hub = max(live.graph.vertices(), key=live.graph.degree)
        for v in live.graph.vertices():
            if v != hub and not live.graph.has_edge(hub, v):
                live.insert_edge(hub, v, 1.0)
        live.dynamic.rebuild()
        assert live.index.order != old.order
        with pytest.raises(IndexFormatError, match="order"):
            append_delta(live.freeze(), path, [0])

    def test_describe_rejects_a_zeroed_delta_table(self, tmp_path):
        # Regression: a WCXD header followed by a zeroed section table
        # used to make describe_frozen loop forever (blob extent ==
        # cursor, so the scan never advanced).
        import struct

        live, old, path = self._updated(tmp_path)
        with open(path, "ab") as out:
            size = out.tell()
            out.write(b"\x00" * (-size % 8))  # align like append_delta
            out.write(struct.pack("<4sHHq", b"WCXD", 1, 0, 1))
            out.write(b"\x00" * 256)  # zeroed table + padding
        with pytest.raises(IndexFormatError, match="delta"):
            describe_frozen(path)

    def test_torn_append_names_the_recovery_offset(self, tmp_path):
        live, old, path = self._updated(tmp_path)
        dirty = live.journal.dirty_vertices()
        engine = incremental_refreeze(old, live.index, dirty)
        good = path.stat().st_size
        append_delta(engine, path, sorted(dirty))
        blob_at = describe_frozen(path)["deltas"][0]["offset"]
        # Simulate a crash mid-append: keep the header, lose the tail.
        with open(path, "r+b") as out:
            out.truncate(blob_at + 32)
        with pytest.raises(IndexFormatError) as excinfo:
            load_frozen(path)
        assert f"truncating the file to {good} bytes" in str(excinfo.value)
        # Following the message recovers the pre-append image.
        with open(path, "r+b") as out:
            out.truncate(good)
        assert image_bytes(load_frozen(path)) == image_bytes(old)

    def test_corrupt_blob_names_the_section(self, tmp_path):
        live, old, path = self._updated(tmp_path)
        dirty = live.journal.dirty_vertices()
        engine = incremental_refreeze(old, live.index, dirty)
        append_delta(engine, path, sorted(dirty))
        described = describe_frozen(path)
        blob = described["deltas"][0]
        data = bytearray(path.read_bytes())
        # Flip the dirty count: the size stamps no longer line up.
        data[blob["offset"] + 8] ^= 0xFF
        with pytest.raises(IndexFormatError):
            load_frozen(io.BytesIO(bytes(data)))

    def test_trailing_garbage_after_chain_rejected(self, tmp_path):
        live, old, path = self._updated(tmp_path)
        dirty = live.journal.dirty_vertices()
        engine = incremental_refreeze(old, live.index, dirty)
        append_delta(engine, path, sorted(dirty))
        data = path.read_bytes() + b"garbage!"
        with pytest.raises(IndexFormatError, match="trailing"):
            load_frozen(io.BytesIO(data))
        # exact=False (the shared-memory case) tolerates it.
        attach_frozen(data + b"\x00" * 64, exact=False)

    def test_shm_publish_normalizes_delta_images(self, tmp_path):
        live, old, path = self._updated(tmp_path)
        dirty = live.journal.dirty_vertices()
        engine = incremental_refreeze(old, live.index, dirty)
        append_delta(engine, path, sorted(dirty))
        from repro.serve import ShmIndexImage

        canonical = image_bytes(live.freeze())
        with ShmIndexImage(path) as image:
            assert image.size == len(canonical)  # delta chain compacted
            served = image.attach_engine()
            try:
                assert image_bytes(served) == canonical
            finally:
                served.release()
