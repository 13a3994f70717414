"""Tests for WC-INDEX serialization."""

import gzip
import io
import struct

import pytest

from tests.helpers import random_graph, thresholds_for

from repro import open_index
from repro.core import DirectedWCIndex, WCIndexBuilder, WeightedWCIndex, build_wc_index_plus
from repro.core.frozen import (
    FrozenDirectedWCIndex,
    FrozenWCIndex,
    FrozenWeightedWCIndex,
)
from repro.core.serialize import (
    IndexFormatError,
    attach_frozen,
    describe_frozen,
    load_frozen,
    save_frozen,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import paper_figure3
from repro.graph.weighted import WeightedGraph

#: The head of an index in the retired line-oriented text format.
TEXT_INDEX = "WCINDEX 1 2 0\nO 0 1\nV 0 1\nE 0 0.0 inf\nV 1 1\nE 1 0.0 inf\n"


def section_offset(data: bytes, name: str) -> int:
    """Byte offset of a named section, straight from the image's table."""
    record = next(
        s for s in describe_frozen(io.BytesIO(bytes(data)))["sections"]
        if s["name"] == name
    )
    return record["offset"]


def image_of(index) -> bytes:
    buffer = io.BytesIO()
    save_frozen(index, buffer)
    return buffer.getvalue()


def family_indexes(track_parents=False):
    """One small list-backed index of each family."""
    return [
        WCIndexBuilder(
            paper_figure3(), "identity", track_parents=track_parents
        ).build(),
        DirectedWCIndex(sample_digraph(), track_parents=track_parents),
        WeightedWCIndex(sample_weighted_graph(), track_parents=track_parents),
    ]


def round_trip(index, path):
    """Save ``index`` as an image at ``path``; read it back thawed."""
    save_frozen(index, path)
    return load_frozen(path).thaw()


def all_queries(n, thresholds):
    return [(s, t, w) for s in range(n) for t in range(n) for w in thresholds]


class TestRoundTrip:
    """Image round trips back to the list engine, for every family."""

    def test_entries_preserved(self, tmp_path):
        for index in family_indexes():
            loaded = round_trip(index, tmp_path / "index.wcxb")
            assert type(loaded) is type(index)
            assert loaded.order == index.order
            assert loaded.freeze().raw_sides() == index.freeze().raw_sides()
        index = family_indexes()[0]
        loaded = round_trip(index, tmp_path / "index.wcxb")
        for v in range(index.num_vertices):
            assert loaded.entries_of(v) == index.entries_of(v)

    def test_answers_preserved(self, tmp_path):
        path = tmp_path / "index.wcxb"
        for trial in range(6):
            g = random_graph(trial)
            index = build_wc_index_plus(g, "degree")
            queries = all_queries(g.num_vertices, thresholds_for(g))
            loaded = round_trip(index, path)
            assert loaded.distance_many(queries) == index.distance_many(queries)
        for index in family_indexes()[1:]:
            queries = all_queries(4, (0.5, 1.0, 2.0, 3.0, 9.0))
            loaded = round_trip(index, path)
            assert loaded.distance_many(queries) == index.distance_many(queries)

    def test_parents_preserved(self, tmp_path):
        for index in family_indexes(track_parents=True):
            loaded = round_trip(index, tmp_path / "index.wcxb")
            assert loaded.tracks_parents
            assert loaded.freeze().raw_sides() == index.freeze().raw_sides()
        index = family_indexes(track_parents=True)[0]
        loaded = round_trip(index, tmp_path / "index.wcxb")
        for v in range(index.num_vertices):
            assert loaded.parent_list(v) == index.parent_list(v)

    def test_infinity_quality_survives(self, tmp_path):
        for index in family_indexes():
            loaded = round_trip(index, tmp_path / "index.wcxb")
            for side in loaded.freeze().sides():
                assert max(side.quals) == float("inf")

    def test_file_round_trip(self, tmp_path):
        # The format is recognised by its magic bytes, not the file
        # name: an image saved under any name loads through every path
        # reader.
        index = build_wc_index_plus(paper_figure3())
        queries = all_queries(6, (1.0, 2.0, 3.0))
        expected = index.distance_many(queries)
        for name in ("example.idx", "EXAMPLE.WCI", "example.wcxb.gz"):
            path = tmp_path / name
            save_frozen(index, path)
            assert path.read_bytes()[:4] == b"WCXB"
            assert load_frozen(path).distance_many(queries) == expected
            engine = open_index(path, mode="mmap")
            assert engine.distance_many(queries) == expected
            engine.release()
            assert describe_frozen(path)["variant"] == "undirected"


class TestFormatErrors:
    """Every image reader — read mode from a handle or a path, mmap,
    zero-copy attach and describe — fails the same bad input with the
    same typed error; none of them misreads it."""

    def assert_rejected(self, data, tmp_path, match, *, describe=True):
        path = tmp_path / "bad.wcxb"
        path.write_bytes(bytes(data))
        readers = [
            lambda: load_frozen(io.BytesIO(bytes(data))),
            lambda: load_frozen(path),
            lambda: load_frozen(path, mode="mmap"),
            lambda: attach_frozen(bytes(data)),
            lambda: open_index(path),
        ]
        if describe:
            readers.append(lambda: describe_frozen(path))
        for read in readers:
            with pytest.raises(IndexFormatError, match=match):
                read()

    def figure3_image(self):
        return bytearray(image_of(build_wc_index_plus(paper_figure3(), "identity")))

    def test_empty_file(self, tmp_path):
        self.assert_rejected(b"", tmp_path, "truncated")

    def test_bad_magic(self, tmp_path):
        # Leftover indexes in the retired text format, plain or gzipped,
        # are never read as images.
        text = TEXT_INDEX.encode()
        self.assert_rejected(text, tmp_path, "bad binary magic")
        self.assert_rejected(gzip.compress(text), tmp_path, "bad binary magic")

    def test_bad_version(self, tmp_path):
        data = self.figure3_image()
        struct.pack_into("<H", data, 4, 99)
        self.assert_rejected(data, tmp_path, "version 99")

    def test_truncated_entries(self, tmp_path):
        data = self.figure3_image()[:-8]
        self.assert_rejected(
            data, tmp_path, "truncated.*section 'quals'", describe=False
        )

    def test_order_not_permutation(self, tmp_path):
        data = self.figure3_image()
        order_at = section_offset(data, "order")
        data[order_at:order_at + 8] = data[order_at + 8:order_at + 16]
        self.assert_rejected(data, tmp_path, "permutation", describe=False)

    def test_hub_out_of_range(self, tmp_path):
        data = self.figure3_image()
        struct.pack_into("<i", data, section_offset(data, "hubs"), 99)
        self.assert_rejected(data, tmp_path, "hub rank", describe=False)

    def test_vertex_out_of_range(self, tmp_path):
        data = self.figure3_image()
        struct.pack_into("<q", data, 12, -1)  # vertex-count field
        self.assert_rejected(data, tmp_path, "negative vertex count")

    def test_malformed_entry(self, tmp_path):
        data = self.figure3_image()
        at = 24 + 16 * 3 + 8  # size stamp of section 3, 'dists'
        struct.pack_into("<q", data, at, struct.unpack_from("<q", data, at)[0] ^ 8)
        self.assert_rejected(
            data, tmp_path, "'dists' size stamp", describe=False
        )

    def test_trailing_garbage_rejected(self, tmp_path):
        data = self.figure3_image() + b"garbage!"
        self.assert_rejected(data, tmp_path, "trailing", describe=False)


class TestBinaryFormat:
    def binary_round_trip(self, index):
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        buffer.seek(0)
        return load_frozen(buffer)

    def test_round_trip_from_list_index(self):
        for trial in range(5):
            g = random_graph(trial)
            index = build_wc_index_plus(g, "degree")
            loaded = self.binary_round_trip(index)
            assert isinstance(loaded, FrozenWCIndex)
            assert loaded.order == index.order
            for v in g.vertices():
                assert loaded.entries_of(v) == index.entries_of(v)

    def test_round_trip_from_frozen(self):
        g = random_graph(2)
        frozen = build_wc_index_plus(g, "degree").freeze()
        loaded = self.binary_round_trip(frozen)
        assert loaded.raw_sides() == frozen.raw_sides()

    def test_answers_preserved(self):
        g = random_graph(4)
        index = build_wc_index_plus(g, "degree")
        loaded = self.binary_round_trip(index)
        for w in thresholds_for(g):
            for s in g.vertices():
                for t in g.vertices():
                    assert loaded.distance(s, t, w) == index.distance(s, t, w)

    def test_inf_quality_survives(self):
        index = build_wc_index_plus(paper_figure3(), "identity")
        loaded = self.binary_round_trip(index)
        _, _, quals = loaded.label_lists(0)
        assert quals[0] == float("inf")

    def test_parents_survive(self):
        g = paper_figure3()
        index = WCIndexBuilder(g, "identity", track_parents=True).build()
        loaded = self.binary_round_trip(index)
        assert loaded.tracks_parents
        for v in g.vertices():
            assert list(loaded.parent_list(v)) == index.parent_list(v)

    def test_wcxb_path_dispatch(self, tmp_path):
        index = build_wc_index_plus(paper_figure3(), "identity")
        path = tmp_path / "example.wcxb"
        save_frozen(index, path)
        frozen = load_frozen(path)
        assert isinstance(frozen, FrozenWCIndex)
        thawed = frozen.thaw()
        assert not isinstance(thawed, FrozenWCIndex)
        for v in range(index.num_vertices):
            assert frozen.entries_of(v) == index.entries_of(v)
            assert thawed.entries_of(v) == index.entries_of(v)

    def test_bad_magic(self):
        with pytest.raises(IndexFormatError, match="magic"):
            load_frozen(io.BytesIO(b"NOPE" + b"\x00" * 12))

    def test_truncated_header(self):
        with pytest.raises(IndexFormatError, match="truncated"):
            load_frozen(io.BytesIO(b"WCXB"))

    def test_truncated_body(self):
        index = build_wc_index_plus(paper_figure3(), "identity")
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        clipped = buffer.getvalue()[:-8]
        with pytest.raises(IndexFormatError, match="truncated"):
            load_frozen(io.BytesIO(clipped))

    def test_trailing_bytes_rejected(self):
        index = build_wc_index_plus(paper_figure3(), "identity")
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        with pytest.raises(IndexFormatError, match="trailing"):
            load_frozen(io.BytesIO(buffer.getvalue() + b"\x00"))

    def test_bad_version(self):
        index = build_wc_index_plus(paper_figure3(), "identity")
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        data = bytearray(buffer.getvalue())
        data[4] = 99  # version halfword
        with pytest.raises(IndexFormatError, match="version"):
            load_frozen(io.BytesIO(bytes(data)))

    def test_order_must_be_permutation(self):
        index = build_wc_index_plus(paper_figure3(), "identity")
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        data = bytearray(buffer.getvalue())
        # Clobber the first vertex id of the order section with a
        # duplicate of the second.
        order_at = section_offset(data, "order")
        data[order_at:order_at + 8] = data[order_at + 8:order_at + 16]
        with pytest.raises(IndexFormatError, match="permutation"):
            load_frozen(io.BytesIO(bytes(data)))

    def corrupt_wcxb(self):
        """Valid paper_figure3 image (n=6, identity order) as a mutable
        buffer plus the byte positions of its label sections, located
        through the image's own section table."""
        index = build_wc_index_plus(paper_figure3(), "identity")
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        data = bytearray(buffer.getvalue())
        offsets_at = section_offset(data, "offsets")
        hubs_at = section_offset(data, "hubs")
        return data, offsets_at, hubs_at, struct

    def test_non_monotonic_offsets_rejected(self):
        # Regression: in-range but decreasing offsets used to load
        # "successfully" and silently answer INF for the clobbered vertex.
        data, offsets_at, _, struct = self.corrupt_wcxb()
        second = struct.unpack_from("<q", data, offsets_at + 16)[0]
        struct.pack_into("<q", data, offsets_at + 8, second + 1)
        with pytest.raises(IndexFormatError, match="monotonic"):
            load_frozen(io.BytesIO(bytes(data)))

    def test_offset_table_must_start_at_zero(self):
        data, offsets_at, _, struct = self.corrupt_wcxb()
        struct.pack_into("<q", data, offsets_at, 1)
        with pytest.raises(IndexFormatError, match="start at 0"):
            load_frozen(io.BytesIO(bytes(data)))

    def test_out_of_range_offset_rejected(self):
        # An interior offset past the entry total breaks monotonicity at
        # the next vertex — it used to escape as a bare IndexError from
        # the directory build.
        data, offsets_at, _, struct = self.corrupt_wcxb()
        struct.pack_into("<q", data, offsets_at + 8, 10_000)
        with pytest.raises(IndexFormatError, match="monotonic"):
            load_frozen(io.BytesIO(bytes(data)))

    def test_out_of_range_hub_rejected(self):
        data, _, hubs_at, struct = self.corrupt_wcxb()
        struct.pack_into("<i", data, hubs_at, 99)
        with pytest.raises(IndexFormatError, match="hub rank"):
            load_frozen(io.BytesIO(bytes(data)))

    def test_unsorted_hubs_rejected(self):
        # Regression: in-range but unsorted hub ranks used to load and
        # silently break the sorted merge (reachable pairs answered INF).
        data, offsets_at, hubs_at, struct = self.corrupt_wcxb()
        # Vertex 1's label in the identity-ordered figure-3 index starts
        # with hubs [0, 1, ...]; swapping the first two breaks ordering.
        start = struct.unpack_from("<q", data, offsets_at + 8)[0]
        at = hubs_at + 4 * start
        first = struct.unpack_from("<i", data, at)[0]
        second = struct.unpack_from("<i", data, at + 4)[0]
        assert first < second  # sanity: the slice really was sorted
        struct.pack_into("<i", data, at, second)
        struct.pack_into("<i", data, at + 4, first)
        with pytest.raises(IndexFormatError, match="not sorted"):
            load_frozen(io.BytesIO(bytes(data)))

    def test_unsorted_group_distances_rejected(self):
        # Regression: swapping only the distances of a multi-entry group
        # (qualities untouched) used to load and make the linear/binary
        # kernels return a non-minimal distance.
        index = build_wc_index_plus(paper_figure3(), "identity")
        hubs, dists, _ = index.label_lists(4)
        target = next(
            i for i in range(1, len(hubs))
            if hubs[i] == hubs[i - 1]
        )
        dists[target], dists[target - 1] = dists[target - 1], dists[target]
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        with pytest.raises(IndexFormatError, match="staircase"):
            load_frozen(io.BytesIO(buffer.getvalue()))

    def test_unsorted_group_qualities_rejected(self):
        # Vertex 4 of the figure-3 index has a multi-entry hub group
        # (Pareto staircase); reversing its qualities must be rejected.
        index = build_wc_index_plus(paper_figure3(), "identity")
        hubs, _, quals = index.label_lists(4)
        target = next(
            i for i in range(1, len(hubs))
            if hubs[i] == hubs[i - 1]
        )
        quals[target], quals[target - 1] = quals[target - 1], quals[target]
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        with pytest.raises(IndexFormatError, match="staircase"):
            load_frozen(io.BytesIO(buffer.getvalue()))

    def test_dominated_duplicate_entries_tolerated(self):
        # Parity with the text loader: a hand-written index may carry
        # dominated entries (equal-quality, longer-distance); they are
        # harmless for the kernels and must survive the integrity scan.
        index = build_wc_index_plus(paper_figure3(), "identity")
        hubs, dists, quals = index.label_lists(0)
        hubs.append(hubs[-1])
        dists.append(dists[-1] + 1.0)
        quals.append(quals[-1])
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        loaded = load_frozen(io.BytesIO(buffer.getvalue()))
        assert loaded.entry_count() == index.entry_count()

    def test_validate_false_skips_integrity_scan(self):
        # Trusted reloads may disable the O(entries) scan: the same
        # corrupt image that validation rejects loads raw.
        data, offsets_at, hubs_at, struct = self.corrupt_wcxb()
        struct.pack_into("<i", data, hubs_at, 99)
        with pytest.raises(IndexFormatError):
            load_frozen(io.BytesIO(bytes(data)))
        loaded = load_frozen(io.BytesIO(bytes(data)), validate=False)
        assert loaded.entry_count() == 32

    def test_out_of_range_parent_rejected(self):
        g = paper_figure3()
        index = WCIndexBuilder(g, "identity", track_parents=True).build()
        index.parent_list(2)[0] = 77
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        with pytest.raises(IndexFormatError, match="parent"):
            load_frozen(io.BytesIO(buffer.getvalue()))


def sample_digraph() -> DiGraph:
    return DiGraph(
        4, [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0), (3, 0, 4.0), (0, 2, 2.0)]
    )


def sample_weighted_graph() -> WeightedGraph:
    return WeightedGraph(
        4,
        [
            (0, 1, 2.0, 3.0),
            (1, 2, 1.5, 1.0),
            (2, 3, 0.5, 2.0),
            (0, 3, 10.0, 4.0),
        ],
    )


class TestBinaryVariants:
    """The variant tag: one header, three index families."""

    def binary_round_trip(self, index):
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        buffer.seek(0)
        return load_frozen(buffer)

    @pytest.mark.parametrize("track_parents", [False, True])
    def test_directed_round_trip(self, track_parents):
        index = DirectedWCIndex(sample_digraph(), track_parents=track_parents)
        loaded = self.binary_round_trip(index)
        assert isinstance(loaded, FrozenDirectedWCIndex)
        assert loaded.tracks_parents == track_parents
        assert loaded.raw_sides() == index.freeze().raw_sides()

    @pytest.mark.parametrize("track_parents", [False, True])
    def test_weighted_round_trip(self, track_parents):
        index = WeightedWCIndex(
            sample_weighted_graph(), track_parents=track_parents
        )
        loaded = self.binary_round_trip(index)
        assert isinstance(loaded, FrozenWeightedWCIndex)
        assert loaded.tracks_parents == track_parents
        assert loaded.raw_sides() == index.freeze().raw_sides()

    def test_answers_preserved_across_families(self):
        queries = [
            (s, t, w) for s in range(4) for t in range(4)
            for w in (0.5, 1.0, 2.0, 3.0, 9.0)
        ]
        for index in (
            DirectedWCIndex(sample_digraph()),
            WeightedWCIndex(sample_weighted_graph()),
        ):
            loaded = self.binary_round_trip(index)
            assert loaded.distance_many(queries) == index.distance_many(queries)

    def corrupt_header(self, index):
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        return bytearray(buffer.getvalue())

    def test_unknown_variant_rejected(self):
        data = self.corrupt_header(build_wc_index_plus(paper_figure3()))
        struct.pack_into("<H", data, 6, 99)  # variant halfword
        with pytest.raises(IndexFormatError, match="variant"):
            load_frozen(io.BytesIO(bytes(data)))

    def test_section_count_mismatch_rejected(self):
        data = self.corrupt_header(build_wc_index_plus(paper_figure3()))
        struct.pack_into("<H", data, 10, 7)  # section-count halfword
        with pytest.raises(IndexFormatError, match="sections"):
            load_frozen(io.BytesIO(bytes(data)))

    def test_section_offset_mismatch_rejected(self):
        data = self.corrupt_header(build_wc_index_plus(paper_figure3()))
        # Shift the second section's table offset (the offsets array):
        # v3 table entries are (offset, nbytes) int64 pairs at byte 24.
        at = 24 + 16
        value = struct.unpack_from("<q", data, at)[0]
        struct.pack_into("<q", data, at, value + 8)
        with pytest.raises(
            IndexFormatError, match="'offsets'.*disagrees"
        ):
            load_frozen(io.BytesIO(bytes(data)))

    def test_size_stamp_mismatch_rejected(self):
        data = self.corrupt_header(build_wc_index_plus(paper_figure3()))
        # Bit-flip the second section's size stamp.
        at = 24 + 16 + 8
        value = struct.unpack_from("<q", data, at)[0]
        struct.pack_into("<q", data, at, value ^ 8)
        with pytest.raises(
            IndexFormatError, match="'offsets' size stamp"
        ):
            load_frozen(io.BytesIO(bytes(data)))

    def test_directed_sides_validated(self):
        # Corrupt a hub rank in the out-side of a directed image: the
        # integrity scan must reject it, validate=False must load it raw.
        index = DirectedWCIndex(sample_digraph())
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        data = bytearray(buffer.getvalue())
        out_hubs_at = section_offset(data, "out_hubs")
        struct.pack_into("<i", data, out_hubs_at, 99)
        with pytest.raises(IndexFormatError, match="hub rank"):
            load_frozen(io.BytesIO(bytes(data)))
        loaded = load_frozen(io.BytesIO(bytes(data)), validate=False)
        assert loaded.entry_count() == index.entry_count()

    def test_weighted_parent_entry_validated(self):
        index = WeightedWCIndex(sample_weighted_graph(), track_parents=True)
        frozen = index.freeze()
        ((_, _, _, _, pv, pe),) = frozen.raw_sides()
        target = next(i for i in range(len(pv)) if pv[i] >= 0)
        pe[target] = 1_000
        buffer = io.BytesIO()
        save_frozen(frozen, buffer)
        with pytest.raises(IndexFormatError, match="parent entry"):
            load_frozen(io.BytesIO(buffer.getvalue()))

    def test_validate_false_skips_order_permutation_check(self):
        # Trusted attaches must stay near-constant in index size, so the
        # O(n log n) permutation scan rides the validate flag; a
        # duplicated (in-range) order id loads raw without it.
        index = build_wc_index_plus(paper_figure3(), "identity")
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        data = bytearray(buffer.getvalue())
        order_at = section_offset(data, "order")
        data[order_at:order_at + 8] = data[order_at + 8:order_at + 16]
        with pytest.raises(IndexFormatError, match="permutation"):
            load_frozen(io.BytesIO(bytes(data)))
        loaded = load_frozen(io.BytesIO(bytes(data)), validate=False)
        assert loaded.entry_count() == index.entry_count()
        # An out-of-range order id must still fail cleanly, not crash.
        struct.pack_into("<q", data, order_at, 10_000)
        with pytest.raises(IndexFormatError, match="inconsistent"):
            load_frozen(io.BytesIO(bytes(data)), validate=False)

    def assert_legacy_rejected(self, version, tmp_path):
        # A hand-built v1 (no variant tag or section table) or v2
        # (variant tag + unstamped offset table) image of one index:
        # every reader names the version instead of loading it.
        import os
        import subprocess
        import sys
        from array import array

        import repro

        frozen = build_wc_index_plus(paper_figure3(), "identity").freeze()
        sections = [array("q", frozen.order), *frozen.raw_sides()[0]]
        body = b"".join(section.tobytes() for section in sections)
        n = frozen.num_vertices
        if version == 1:
            image = struct.pack("<4sHHq", b"WCXB", 1, 0, n) + body
        else:
            head = struct.pack("<4sHHHHq", b"WCXB", 2, 0, 0, len(sections), n)
            table, cursor = array("q"), len(head) + 8 * len(sections)
            for section in sections:
                table.append(cursor)
                cursor += section.itemsize * len(section)
            image = head + table.tobytes() + body
        message = f"version {version}"
        with pytest.raises(IndexFormatError, match=message):
            load_frozen(io.BytesIO(image))
        with pytest.raises(IndexFormatError, match=message):
            describe_frozen(io.BytesIO(image))
        path = tmp_path / "legacy.wcxb"
        path.write_bytes(image)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(repro.__path__[0]))
        stats = subprocess.run(
            [sys.executable, "-m", "repro", "stats", "--index", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert stats.returncode != 0
        assert message in stats.stderr

    def test_v1_images_rejected(self, tmp_path):
        self.assert_legacy_rejected(1, tmp_path)

    def test_v2_images_rejected(self, tmp_path):
        self.assert_legacy_rejected(2, tmp_path)


class TestV3Layout:
    """The attachable v3 image: alignment, size stamps, describe."""

    def test_sections_are_aligned_and_size_stamped(self):
        g = random_graph(3)
        data = image_of(build_wc_index_plus(g, "degree"))
        described = describe_frozen(io.BytesIO(data))
        assert described["format_version"] == 3
        assert described["variant"] == "undirected"
        assert described["total_bytes"] == len(data)
        previous_end = 0
        for section in described["sections"]:
            assert section["offset"] % 8 == 0
            assert section["offset"] >= previous_end
            previous_end = section["offset"] + section["nbytes"]
        assert previous_end == len(data)

    def test_describe_names_all_variants(self):
        directed = image_of(DirectedWCIndex(sample_digraph()))
        names = [
            s["name"]
            for s in describe_frozen(io.BytesIO(directed))["sections"]
        ]
        assert names[:2] == ["order", "in_offsets"]
        assert "out_hubs" in names
        weighted = image_of(
            WeightedWCIndex(sample_weighted_graph(), track_parents=True)
        )
        described = describe_frozen(io.BytesIO(weighted))
        assert described["variant"] == "weighted"
        assert described["tracks_parents"]
        assert [s["name"] for s in described["sections"]][-2:] == [
            "parent_vertices", "parent_entries",
        ]

    def test_truncated_file_names_the_section(self):
        data = image_of(build_wc_index_plus(paper_figure3(), "identity"))
        with pytest.raises(IndexFormatError, match="section 'quals'"):
            load_frozen(io.BytesIO(data[:-8]))
        # Clipped all the way into the hubs section.
        hubs_at = section_offset(data, "hubs")
        with pytest.raises(IndexFormatError, match="section 'hubs'"):
            load_frozen(io.BytesIO(data[:hubs_at + 4]))

    def test_bit_flipped_table_is_a_clean_error(self):
        data = bytearray(
            image_of(build_wc_index_plus(paper_figure3(), "identity"))
        )
        for at in range(24, 24 + 16 * 5, 8):
            corrupt = bytearray(data)
            corrupt[at] ^= 0x10
            with pytest.raises(IndexFormatError):
                load_frozen(io.BytesIO(bytes(corrupt)))

    def test_empty_order_image_round_trips(self):
        from repro.graph.graph import Graph

        data = image_of(build_wc_index_plus(Graph(0)))
        loaded = load_frozen(io.BytesIO(data))
        assert loaded.num_vertices == 0


class TestMmapAttach:
    """``load_frozen(path, mode="mmap")``: zero-copy file attach."""

    @pytest.fixture
    def saved(self, tmp_path):
        index = build_wc_index_plus(paper_figure3(), "identity")
        path = tmp_path / "figure3.wcxb"
        save_frozen(index, path)
        return index, path

    def test_mmap_answers_match_read_mode(self, saved):
        import mmap as mmap_module

        index, path = saved
        attached = load_frozen(path, mode="mmap")
        try:
            assert attached.order == index.order
            for v in range(index.num_vertices):
                assert attached.entries_of(v) == index.entries_of(v)
            # Genuinely zero-copy: the flat stores are views into the map.
            ((offsets, hubs, dists, quals),) = attached.raw_sides()
            for view in (offsets, hubs, dists, quals):
                assert isinstance(view, memoryview)
                assert isinstance(view.obj, mmap_module.mmap)
            queries = [
                (s, t, w)
                for s in range(6) for t in range(6) for w in (1.0, 2.0, 3.0)
            ]
            assert attached.distance_many(queries) == index.distance_many(
                queries
            )
        finally:
            attached.release()

    def test_mmap_validate_rejects_corruption(self, saved, tmp_path):
        _, path = saved
        data = bytearray(path.read_bytes())
        struct.pack_into("<i", data, section_offset(data, "hubs"), 99)
        bad = tmp_path / "bad.wcxb"
        bad.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="hub rank"):
            load_frozen(bad, mode="mmap")
        # The error path must release its views so the map can close —
        # loading the good file afterwards still works.
        engine = load_frozen(bad, mode="mmap", validate=False)
        assert engine.entry_count() == 32
        engine.release()

    def test_mmap_requires_v3(self, tmp_path):
        from array import array

        frozen = build_wc_index_plus(paper_figure3(), "identity").freeze()
        v1 = struct.pack("<4sHHq", b"WCXB", 1, 0, frozen.num_vertices)
        v1 += array("q", frozen.order).tobytes()
        v1 += b"".join(view.tobytes() for view in frozen.raw_sides()[0])
        path = tmp_path / "legacy.wcxb"
        path.write_bytes(v1)
        with pytest.raises(IndexFormatError, match="version 1"):
            load_frozen(path, mode="mmap")
        # The copying path rejects it too: no reader is left for v1.
        with pytest.raises(IndexFormatError, match="version 1"):
            load_frozen(path)

    def test_mmap_requires_a_path(self, saved):
        _, path = saved
        with open(path, "rb") as handle:
            with pytest.raises(ValueError, match="file path"):
                load_frozen(handle, mode="mmap")

    def test_unknown_mode_rejected(self, saved):
        _, path = saved
        with pytest.raises(ValueError, match="unknown load mode"):
            load_frozen(path, mode="copy")

    def test_empty_file_is_clean_error(self, tmp_path):
        path = tmp_path / "empty.wcxb"
        path.write_bytes(b"")
        with pytest.raises(IndexFormatError, match="truncated"):
            load_frozen(path, mode="mmap")

    def test_directed_and_weighted_attach(self, tmp_path):
        for name, index in (
            ("d", DirectedWCIndex(sample_digraph())),
            ("w", WeightedWCIndex(sample_weighted_graph())),
        ):
            path = tmp_path / f"{name}.wcxb"
            save_frozen(index, path)
            attached = load_frozen(path, mode="mmap")
            queries = [
                (s, t, w)
                for s in range(4) for t in range(4) for w in (1.0, 2.0, 3.0)
            ]
            assert attached.distance_many(queries) == index.distance_many(
                queries
            )
            attached.release()


class TestAttachFrozenBuffer:
    """``attach_frozen``: zero-copy attach to any byte buffer."""

    def test_attach_to_bytes(self):
        from repro.core.serialize import attach_frozen

        index = build_wc_index_plus(paper_figure3(), "identity")
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        engine = attach_frozen(buffer.getvalue())
        for v in range(index.num_vertices):
            assert engine.entries_of(v) == index.entries_of(v)
        engine.release()

    def test_exact_false_tolerates_page_padding(self):
        from repro.core.serialize import attach_frozen

        index = build_wc_index_plus(paper_figure3(), "identity")
        buffer = io.BytesIO()
        save_frozen(index, buffer)
        padded = buffer.getvalue() + b"\x00" * 4096  # shm page rounding
        with pytest.raises(IndexFormatError, match="trailing"):
            attach_frozen(padded)
        engine = attach_frozen(padded, exact=False)
        assert engine.entry_count() == index.entry_count()
        engine.release()

    def test_attach_rejects_v1(self):
        from repro.core.serialize import attach_frozen

        with pytest.raises(IndexFormatError, match="cannot attach"):
            attach_frozen(
                b"WCXB" + (1).to_bytes(2, "little") + b"\x00" * 12
            )
