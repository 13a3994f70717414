"""Tests for ``repro.open_index`` — the unified index-opening front door."""

import pytest

import repro
from repro import open_index
from repro.core import build_wc_index_plus, save_frozen
from repro.core.frozen import FrozenWCIndex
from repro.core.labels import WCIndex
from repro.core.serialize import IndexFormatError, load_frozen
from repro.graph.generators import scale_free_network
from repro.serve import QueryServer, ShmIndexImage
from repro.workloads.queries import random_queries


@pytest.fixture(scope="module")
def network():
    return scale_free_network(80, 3, num_qualities=4, seed=13)


@pytest.fixture(scope="module")
def index(network):
    return build_wc_index_plus(network)


@pytest.fixture(scope="module")
def workload(network):
    return list(random_queries(network, 150, seed=8))


@pytest.fixture(scope="module")
def binary_path(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("api") / "index.wcxb"
    save_frozen(index.freeze(), path)
    return path


@pytest.fixture(scope="module")
def text_path(tmp_path_factory):
    """An index file in the retired line-oriented text format."""
    path = tmp_path_factory.mktemp("api") / "index.wci"
    path.write_text("WCINDEX 1 2 0\nO 0 1\nV 0 1\nE 0 0.0 inf\n")
    return path


class TestDispatch:
    def test_binary_auto_is_frozen(self, binary_path):
        assert isinstance(open_index(binary_path), FrozenWCIndex)

    def test_binary_list_thaws(self, binary_path):
        assert isinstance(open_index(binary_path).thaw(), WCIndex)

    def test_binary_mmap(self, binary_path, index, workload):
        engine = open_index(binary_path, mode="mmap")
        try:
            assert engine.distance_many(workload) == index.distance_many(
                workload
            )
        finally:
            engine.release()

    def test_attach_buffer(self, index, workload):
        import io

        buffer = io.BytesIO()
        save_frozen(index.freeze(), buffer)
        engine = open_index(buffer.getvalue(), mode="attach")
        assert engine.distance_many(workload) == index.distance_many(workload)

    def test_shm_segment(self, index, workload):
        with ShmIndexImage(index.freeze()) as image:
            with open_index(image.name, mode="shm") as engine:
                assert engine.distance_many(workload) == (
                    index.distance_many(workload)
                )

    def test_every_mode_answers_identically(
        self, binary_path, index, workload
    ):
        expected = index.distance_many(workload)
        engines = [
            open_index(binary_path),
            open_index(binary_path, mode="mmap"),
        ]
        try:
            for engine in engines + [engines[0].thaw()]:
                assert engine.distance_many(workload) == expected
        finally:
            for engine in engines:
                engine.release()

    def test_accepts_str_paths(self, binary_path, workload):
        engine = open_index(str(binary_path))
        assert isinstance(engine, FrozenWCIndex)

    def test_backend_is_pinned(self, binary_path):
        engine = open_index(binary_path, backend="stdlib")
        assert engine.kernel_backend == "stdlib"

    def test_exported_from_package_root(self):
        assert repro.open_index is open_index
        assert "open_index" in repro.__all__


class TestValidation:
    def test_unknown_engine(self, binary_path):
        # There is one engine per image; nothing to choose.
        with pytest.raises(TypeError, match="engine"):
            open_index(binary_path, engine="frozen")

    def test_unknown_mode(self, binary_path):
        with pytest.raises(ValueError, match="unknown mode"):
            open_index(binary_path, mode="warp")

    def test_mmap_needs_binary(self, text_path):
        with pytest.raises(IndexFormatError, match="bad binary magic"):
            open_index(text_path, mode="mmap")

    def test_text_index_rejected_by_every_reader(self, text_path, tmp_path):
        from repro.__main__ import main

        before = text_path.read_bytes()
        for mode in ("read", "mmap"):
            with pytest.raises(IndexFormatError, match="bad binary magic"):
                open_index(text_path, mode=mode)
            with pytest.raises(IndexFormatError, match="bad binary magic"):
                load_frozen(text_path, mode=mode)
        with pytest.raises(IndexFormatError, match="bad binary magic"):
            QueryServer(str(text_path), workers=1)
        with pytest.raises(SystemExit, match="query: bad binary magic"):
            main(["query", "--index", str(text_path), "0", "1", "1.0"])
        graph = tmp_path / "net.edges"
        graph.write_text("0 1 1.0\n")
        ops = tmp_path / "batch.ops"
        ops.write_text("insert 0 1 2.0\n")
        with pytest.raises(SystemExit, match="update: bad binary magic"):
            main(
                ["update", "--index", str(text_path), "--graph", str(graph),
                 "--updates", str(ops)]
            )
        assert text_path.read_bytes() == before

    def test_path_modes_reject_buffers(self):
        with pytest.raises(TypeError, match="opens a path"):
            open_index(b"\x00\x01")

    def test_shm_mode_rejects_non_names(self):
        with pytest.raises(TypeError, match="segment name"):
            open_index(123, mode="shm")
