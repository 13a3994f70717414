"""End-to-end tests for the ``python -m repro`` command line interface."""

import pytest

from repro.__main__ import main
from repro.graph.generators import paper_figure3
from repro.graph.io import write_edge_list


@pytest.fixture
def text_index_file(tmp_path):
    """An index file in the retired line-oriented text format."""
    path = tmp_path / "net.wci"
    path.write_text("WCINDEX 1 2 0\nO 0 1\nV 0 1\nE 0 0.0 inf\n")
    return path


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "net.edges"
    write_edge_list(paper_figure3(), path)
    return path


@pytest.fixture
def index_file(graph_file, tmp_path):
    path = tmp_path / "net.wcxb"
    code = main(
        ["build", "--graph", str(graph_file), "--out", str(path),
         "--ordering", "identity"]
    )
    assert code == 0
    return path


class TestBuild:
    def test_build_reports_entries(self, graph_file, tmp_path, capsys):
        out = tmp_path / "x.wcxb"
        assert main(["build", "--graph", str(graph_file), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "entries" in text and "6 vertices" in text
        assert out.exists()

    def test_build_gzip(self, graph_file, tmp_path, capsys):
        # The file name selects nothing: a .gz --out is a plain image.
        out = tmp_path / "x.wci.gz"
        assert main(["build", "--graph", str(graph_file), "--out", str(out)]) == 0
        assert out.read_bytes()[:4] == b"WCXB"
        capsys.readouterr()
        assert main(["query", "--index", str(out), "2", "5", "2.0"]) == 0
        assert "2 5 2 -> 2" in capsys.readouterr().out

    def test_build_with_paths(self, graph_file, tmp_path, capsys):
        out = tmp_path / "p.wcxb"
        assert (
            main(
                ["build", "--graph", str(graph_file), "--out", str(out), "--paths"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["stats", "--index", str(out)]) == 0
        assert "tracks parents:  True" in capsys.readouterr().out


class TestBuildFromDataset:
    def test_build_named_dataset(self, tmp_path, capsys):
        out = tmp_path / "ny.wcxb"
        assert main(["build", "--dataset", "NY", "--out", str(out)]) == 0
        assert out.exists()
        assert "entries" in capsys.readouterr().out

    def test_graph_and_dataset_mutually_exclusive(self, graph_file, tmp_path):
        out = tmp_path / "x.wcxb"
        with pytest.raises(SystemExit, match="exactly one"):
            main(
                ["build", "--graph", str(graph_file), "--dataset", "NY",
                 "--out", str(out)]
            )
        with pytest.raises(SystemExit, match="exactly one"):
            main(["build", "--out", str(out)])

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown dataset"):
            main(["build", "--dataset", "NOPE", "--out", str(tmp_path / "x")])


class TestQuery:
    def test_single_query(self, index_file, capsys):
        assert main(["query", "--index", str(index_file), "2", "5", "2.0"]) == 0
        assert "2 5 2 -> 2" in capsys.readouterr().out

    def test_infeasible_query(self, index_file, capsys):
        assert main(["query", "--index", str(index_file), "0", "5", "99"]) == 0
        assert "INF" in capsys.readouterr().out

    def test_stdin_queries(self, index_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("2 5 2.0\n0 4 1.0\n"))
        assert main(["query", "--index", str(index_file), "-"]) == 0
        out = capsys.readouterr().out
        assert "2 5 2 -> 2" in out
        assert "0 4 1 -> 2" in out

    def test_malformed_query_raises(self, index_file):
        with pytest.raises(ValueError, match="expected"):
            main(["query", "--index", str(index_file), "1", "2"])


class TestFrozenEngine:
    @pytest.fixture
    def binary_index_file(self, graph_file, tmp_path):
        path = tmp_path / "net.wcxb"
        code = main(
            ["build", "--graph", str(graph_file), "--out", str(path),
             "--ordering", "identity"]
        )
        assert code == 0
        return path

    def test_build_writes_binary_magic(self, binary_index_file):
        assert binary_index_file.read_bytes()[:4] == b"WCXB"

    def test_query_frozen_from_wcxb(self, binary_index_file, capsys):
        # The acceptance path: a .wcxb built and saved by the CLI answers
        # queries through the frozen engine.
        assert (
            main(
                ["query", "--engine", "frozen", "--index",
                 str(binary_index_file), "2", "5", "2.0"]
            )
            == 0
        )
        assert "2 5 2 -> 2" in capsys.readouterr().out

    def test_query_list_engine_from_wcxb(self, binary_index_file, capsys):
        # The list engine is no longer a query engine choice; the
        # default answers through the frozen engine.
        with pytest.raises(SystemExit):
            main(
                ["query", "--engine", "list", "--index",
                 str(binary_index_file), "2", "5", "2.0"]
            )
        assert "invalid choice: 'list'" in capsys.readouterr().err
        assert (
            main(["query", "--index", str(binary_index_file), "2", "5", "2.0"])
            == 0
        )
        assert "2 5 2 -> 2" in capsys.readouterr().out

    def test_query_frozen_from_text_index(self, text_index_file):
        with pytest.raises(SystemExit, match="query: bad binary magic"):
            main(
                ["query", "--engine", "frozen", "--index",
                 str(text_index_file), "0", "1", "1.0"]
            )

    def test_engines_agree_on_stdin_batch(
        self, index_file, binary_index_file, capsys, monkeypatch
    ):
        import io

        batch = "2 5 2.0\n0 4 1.0\n0 5 99\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(batch))
        assert main(["query", "--index", str(index_file), "-"]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(batch))
        assert (
            main(
                ["query", "--engine", "frozen", "--index",
                 str(binary_index_file), "-"]
            )
            == 0
        )
        assert capsys.readouterr().out == expected

    def test_build_engine_frozen_flag(self, graph_file, tmp_path, capsys):
        # Every build is frozen and saved as an image: no --engine flag.
        out = tmp_path / "f.wcxb"
        with pytest.raises(SystemExit):
            main(
                ["build", "--graph", str(graph_file), "--out", str(out),
                 "--engine", "frozen"]
            )
        assert "unrecognized arguments: --engine" in capsys.readouterr().err
        assert not out.exists()

    def test_stats_reports_frozen_bytes(self, binary_index_file, capsys):
        assert main(["stats", "--index", str(binary_index_file)]) == 0
        out = capsys.readouterr().out
        assert "frozen bytes:" in out
        assert "entries:         32" in out

    def test_stats_reports_format_and_sections(
        self, binary_index_file, capsys
    ):
        # The satellite: per-section byte sizes and the format version,
        # straight from the image's own offset table.
        assert main(["stats", "--index", str(binary_index_file)]) == 0
        out = capsys.readouterr().out
        assert "format:          wcxb v3 (undirected)" in out
        assert "sections:" in out
        for name in ("order", "offsets", "hubs", "dists", "quals"):
            assert f"  {name}" in out
        assert "image bytes:" in out

    def test_query_mmap_engine(self, binary_index_file, capsys):
        assert (
            main(
                ["query", "--engine", "mmap", "--index",
                 str(binary_index_file), "2", "5", "2.0"]
            )
            == 0
        )
        assert "2 5 2 -> 2" in capsys.readouterr().out

    def test_query_mmap_engine_needs_binary(self, text_index_file):
        with pytest.raises(SystemExit, match="query: bad binary magic"):
            main(
                ["query", "--engine", "mmap", "--index",
                 str(text_index_file), "0", "1", "1.0"]
            )


class TestKernelFlag:
    """The ``--kernel`` backend selector on the query/serve/stats
    paths: identical answers on every backend, fail-fast on an
    explicitly named unavailable one."""

    @pytest.fixture
    def binary_index_file(self, graph_file, tmp_path):
        path = tmp_path / "net.wcxb"
        assert main(
            ["build", "--graph", str(graph_file), "--out", str(path),
             "--ordering", "identity"]
        ) == 0
        return path

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        from repro.core import kernels

        monkeypatch.setattr(kernels, "_load_numpy", lambda: None)
        monkeypatch.setattr(kernels, "_INSTANCES", {})

    def test_query_kernels_answer_identically(
        self, binary_index_file, capsys
    ):
        from repro.core import available_backends

        outputs = set()
        for kernel in ("auto",) + available_backends():
            assert (
                main(
                    ["query", "--engine", "frozen", "--kernel", kernel,
                     "--index", str(binary_index_file), "2", "5", "2.0"]
                )
                == 0
            )
            outputs.add(capsys.readouterr().out)
        assert outputs == {"2 5 2 -> 2\n"}

    def test_mmap_engine_honors_kernel(self, binary_index_file, capsys):
        assert (
            main(
                ["query", "--engine", "mmap", "--kernel", "stdlib",
                 "--index", str(binary_index_file), "2", "5", "2.0"]
            )
            == 0
        )
        assert "2 5 2 -> 2" in capsys.readouterr().out

    def test_explicit_numpy_fails_fast_without_numpy(
        self, binary_index_file, no_numpy
    ):
        with pytest.raises(SystemExit, match="not available"):
            main(
                ["query", "--engine", "frozen", "--kernel", "numpy",
                 "--index", str(binary_index_file), "2", "5", "2.0"]
            )

    def test_auto_without_numpy_falls_back(
        self, binary_index_file, no_numpy, capsys
    ):
        assert (
            main(
                ["query", "--engine", "frozen", "--kernel", "auto",
                 "--index", str(binary_index_file), "2", "5", "2.0"]
            )
            == 0
        )
        assert "2 5 2 -> 2" in capsys.readouterr().out

    def test_serve_rejects_numpy_before_spawning(
        self, binary_index_file, no_numpy
    ):
        with pytest.raises(SystemExit, match="serve: .*not available"):
            main(
                ["serve", "--index", str(binary_index_file), "--kernel",
                 "numpy", "2", "5", "2.0"]
            )

    def test_serve_reports_kernel(self, binary_index_file, capsys):
        assert (
            main(
                ["serve", "--index", str(binary_index_file), "--workers",
                 "2", "--kernel", "stdlib", "2", "5", "2.0"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "2 5 2 -> 2" in captured.out
        assert "stdlib kernel" in captured.err

    def test_stats_reports_backend(self, binary_index_file, capsys):
        from repro.core import default_backend_name

        assert main(["stats", "--index", str(binary_index_file)]) == 0
        out = capsys.readouterr().out
        assert f"kernel backend:  {default_backend_name()}" in out
        assert "available: stdlib" in out


class TestServeCommand:
    @pytest.fixture
    def binary_index_file(self, graph_file, tmp_path):
        path = tmp_path / "net.wcxb"
        assert main(
            ["build", "--graph", str(graph_file), "--out", str(path),
             "--ordering", "identity"]
        ) == 0
        return path

    def test_serve_single_query(self, binary_index_file, capsys):
        assert (
            main(
                ["serve", "--index", str(binary_index_file),
                 "--workers", "2", "2", "5", "2.0"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "2 5 2 -> 2" in captured.out
        assert "2 workers" in captured.err

    def test_serve_stdin_batch_matches_query(
        self, binary_index_file, capsys, monkeypatch
    ):
        import io

        batch = "2 5 2.0\n0 4 1.0\n0 5 99\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(batch))
        assert main(["query", "--index", str(binary_index_file), "-"]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(batch))
        assert (
            main(
                ["serve", "--index", str(binary_index_file),
                 "--workers", "2", "-"]
            )
            == 0
        )
        assert capsys.readouterr().out == expected

    def test_serve_supervised_reports_health(
        self, binary_index_file, capsys
    ):
        assert (
            main(
                ["serve", "--index", str(binary_index_file),
                 "--workers", "2", "--supervise", "--query-timeout", "10",
                 "2", "5", "2.0"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "supervised" in captured.err
        assert "pool ok: 2/2 workers alive" in captured.err

    def test_serve_chaos_kill_round_trip(self, binary_index_file, capsys):
        """The CI self-test: a worker is SIGKILLed mid-workload and the
        supervised pool must respawn it and keep answering identically."""
        assert (
            main(
                ["serve", "--index", str(binary_index_file),
                 "--workers", "3", "--chaos-kill", "--rounds", "4",
                 "--query-timeout", "10", "--retries", "5",
                 "2", "5", "2.0"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "2 5 2 -> 2" in captured.out
        assert "restart(s)" in captured.err
        assert "pool ok" in captured.err


class TestExtensionBuilds:
    @pytest.fixture
    def arcs_file(self, tmp_path):
        from repro.graph.digraph import DiGraph
        from repro.graph.io import write_directed_edge_list

        g = DiGraph(4, [(0, 1, 3.0), (1, 2, 3.0), (2, 3, 1.0), (3, 0, 2.0)])
        path = tmp_path / "net.arcs"
        write_directed_edge_list(g, path)
        return path

    @pytest.fixture
    def weighted_file(self, tmp_path):
        from repro.graph.io import write_weighted_edge_list
        from repro.graph.weighted import WeightedGraph

        g = WeightedGraph(
            3, [(0, 1, 2.0, 3.0), (1, 2, 3.0, 3.0), (0, 2, 10.0, 1.0)]
        )
        path = tmp_path / "net.wedges"
        write_weighted_edge_list(g, path)
        return path

    def test_directed_build_and_query_both_engines(
        self, arcs_file, tmp_path, capsys
    ):
        out = tmp_path / "d.wcxb"
        assert (
            main(
                ["build", "--graph", str(arcs_file), "--directed",
                 "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        for engine in ("frozen", "mmap"):
            assert (
                main(
                    ["query", "--engine", engine, "--index", str(out),
                     "0", "2", "3.0"]
                )
                == 0
            )
            assert "0 2 3 -> 2" in capsys.readouterr().out
        # The arc 2 -> 3 has quality 1: reachable at 1.0, not at 2.0.
        assert main(["query", "--index", str(out), "0", "3", "2.0"]) == 0
        assert "INF" in capsys.readouterr().out

    def test_weighted_build_and_query_both_engines(
        self, weighted_file, tmp_path, capsys
    ):
        out = tmp_path / "w.wcxb"
        assert (
            main(
                ["build", "--graph", str(weighted_file), "--weighted",
                 "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        for engine in ("frozen", "mmap"):
            assert (
                main(
                    ["query", "--engine", engine, "--index", str(out),
                     "0", "2", "2.0"]
                )
                == 0
            )
            assert "0 2 2 -> 5" in capsys.readouterr().out

    def test_directed_build_from_dataset(self, tmp_path, capsys):
        out = tmp_path / "ny.wcxb"
        assert main(["build", "--dataset", "NY", "--directed",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["stats", "--index", str(out)]) == 0
        assert "FrozenDirectedWCIndex" in capsys.readouterr().out

    def test_extensions_require_binary_out(self, arcs_file, tmp_path, capsys):
        # Every family saves the same image format, whatever --out says.
        out = tmp_path / "d.wci"
        assert main(
            ["build", "--graph", str(arcs_file), "--directed",
             "--out", str(out)]
        ) == 0
        assert out.read_bytes()[:4] == b"WCXB"
        capsys.readouterr()
        assert main(["stats", "--index", str(out)]) == 0
        assert "FrozenDirectedWCIndex" in capsys.readouterr().out

    def test_directed_and_weighted_exclusive(self, arcs_file, tmp_path):
        with pytest.raises(SystemExit, match="exclusive"):
            main(
                ["build", "--graph", str(arcs_file), "--directed",
                 "--weighted", "--out", str(tmp_path / "x.wcxb")]
            )

    def test_profile_on_directed_index(self, arcs_file, tmp_path, capsys):
        # Regression: profile used the undirected label accessor and
        # crashed with AttributeError on a directed .wcxb.
        out = tmp_path / "d.wcxb"
        assert main(["build", "--graph", str(arcs_file), "--directed",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["profile", "--index", str(out), "0", "2"]) == 0
        assert "profile of (0, 2)" in capsys.readouterr().out

    def test_profile_on_weighted_index_rejected(
        self, weighted_file, tmp_path
    ):
        out = tmp_path / "w.wcxb"
        assert main(["build", "--graph", str(weighted_file), "--weighted",
                     "--out", str(out)]) == 0
        with pytest.raises(SystemExit, match="not supported"):
            main(["profile", "--index", str(out), "0", "2"])

    def test_verify_rejects_extension_indexes(
        self, arcs_file, graph_file, tmp_path
    ):
        # Regression: verify crashed with AttributeError instead of
        # explaining that only undirected indexes are supported.
        out = tmp_path / "d.wcxb"
        assert main(["build", "--graph", str(arcs_file), "--directed",
                     "--out", str(out)]) == 0
        with pytest.raises(SystemExit, match="undirected"):
            main(["verify", "--graph", str(graph_file), "--index", str(out)])


class TestSuffixCaseInsensitivity:
    def test_uppercase_wcxb_round_trips(self, graph_file, tmp_path, capsys):
        # Regression: the CLI once dispatched on a case-sensitive
        # suffix, so an uppercase .WCXB was misread; the format is now
        # recognised by its magic bytes alone.
        out = tmp_path / "NET.WCXB"
        assert (
            main(
                ["build", "--graph", str(graph_file), "--out", str(out),
                 "--ordering", "identity"]
            )
            == 0
        )
        assert out.read_bytes()[:4] == b"WCXB"
        capsys.readouterr()
        assert (
            main(
                ["query", "--engine", "frozen", "--index", str(out),
                 "2", "5", "2.0"]
            )
            == 0
        )
        assert "2 5 2 -> 2" in capsys.readouterr().out
        assert main(["stats", "--index", str(out)]) == 0
        assert "frozen bytes:" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_output(self, index_file, capsys):
        assert main(["profile", "--index", str(index_file), "0", "4"]) == 0
        out = capsys.readouterr().out
        assert "profile of (0, 4)" in out
        assert "dist 2" in out and "dist 4" in out

    def test_disconnected_profile(self, tmp_path, capsys):
        from repro.core import build_wc_index_plus, save_frozen
        from repro.graph.graph import Graph

        index = build_wc_index_plus(Graph(3, [(0, 1, 1.0)]))
        path = tmp_path / "d.wcxb"
        save_frozen(index, path)
        assert main(["profile", "--index", str(path), "0", "2"]) == 0
        assert "disconnected" in capsys.readouterr().out


class TestStatsAndVerify:
    def test_stats(self, index_file, capsys):
        assert main(["stats", "--index", str(index_file)]) == 0
        out = capsys.readouterr().out
        assert "vertices:        6" in out
        assert "entries:         32" in out  # Table II total

    def test_verify_ok(self, graph_file, index_file, capsys):
        assert (
            main(
                ["verify", "--graph", str(graph_file), "--index", str(index_file)]
            )
            == 0
        )
        assert "VERDICT: OK" in capsys.readouterr().out

    def test_verify_detects_corruption(self, graph_file, index_file, capsys):
        from repro.core import load_frozen, save_frozen

        # Corrupt the saved index: triple the distance of an entry that
        # is alone in its hub group, so the image stays well-formed and
        # only the labels' meaning is wrong.
        index = load_frozen(index_file).thaw()
        dists, i = next(
            (dists, i)
            for hubs, dists, _ in map(index.label_lists, range(6))
            for i, hub in enumerate(hubs)
            if dists[i] == 1.0 and hubs.count(hub) == 1
        )
        dists[i] = 3.0
        save_frozen(index, index_file)
        code = main(
            ["verify", "--graph", str(graph_file), "--index", str(index_file)]
        )
        assert code == 1
        assert "BROKEN" in capsys.readouterr().out


class TestUpdateCommand:
    @pytest.fixture
    def binary_index(self, graph_file, tmp_path):
        path = tmp_path / "net.wcxb"
        assert (
            main(["build", "--graph", str(graph_file), "--out", str(path)])
            == 0
        )
        return path

    def write_ops(self, tmp_path, text):
        ops = tmp_path / "batch.ops"
        ops.write_text(text)
        return ops

    def test_in_place_patch_updates_the_answers(
        self, graph_file, binary_index, tmp_path, capsys
    ):
        from repro.core import load_frozen

        before = load_frozen(binary_index)
        s, t = 0, 5
        old_answer = before.distance(s, t, 9.0)
        assert old_answer == float("inf")
        ops = self.write_ops(tmp_path, f"insert {s} {t} 9.0\n")
        assert (
            main(
                ["update", "--index", str(binary_index), "--graph",
                 str(graph_file), "--updates", str(ops)]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "dirty vertices" in err and "patch wrote" in err
        patched = load_frozen(binary_index)
        assert patched.distance(s, t, 9.0) == 1.0

    def test_delta_mode_with_out(
        self, graph_file, binary_index, tmp_path, capsys
    ):
        ops = self.write_ops(tmp_path, "insert 0 5 9.0\n")
        out = tmp_path / "next.wcxb"
        assert (
            main(
                ["update", "--index", str(binary_index), "--graph",
                 str(graph_file), "--updates", str(ops), "--mode", "delta",
                 "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        assert binary_index.read_bytes() != out.read_bytes()
        assert main(["stats", "--index", str(out)]) == 0
        assert "delta (" in capsys.readouterr().out

    def test_pool_answers_across_the_epoch_swap(
        self, graph_file, binary_index, tmp_path, capsys
    ):
        ops = self.write_ops(tmp_path, "insert 0 5 9.0\n")
        assert (
            main(
                ["update", "--index", str(binary_index), "--graph",
                 str(graph_file), "--updates", str(ops), "--pool", "1",
                 "0", "5", "9.0"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "# epoch 0 (before update)" in captured.out
        assert "# epoch 1 (after update)" in captured.out
        assert "0 5 9 -> INF" in captured.out  # old generation
        assert "0 5 9 -> 1" in captured.out  # new generation

    def test_sequential_updates_do_not_revert(
        self, graph_file, binary_index, tmp_path, capsys
    ):
        from repro.core import load_frozen

        # Regression: the second in-place update used to rebuild from
        # the stale edge-list file and silently drop the first batch;
        # the graph is now written back alongside the patched image.
        ops1 = self.write_ops(tmp_path, "insert 0 5 9.0\n")
        assert (
            main(
                ["update", "--index", str(binary_index), "--graph",
                 str(graph_file), "--updates", str(ops1)]
            )
            == 0
        )
        assert "graph written back" in capsys.readouterr().err
        # A delete triggers the rebuild path on the second run; pick a
        # real edge (other than the one batch 1 inserted) from the
        # written-back graph file.
        from repro.graph.io import read_edge_list

        u, v, _ = next(
            e
            for e in read_edge_list(graph_file).edges()
            if set(e[:2]) != {0, 5}
        )
        ops2 = self.write_ops(tmp_path, f"delete {u} {v}\n")
        assert (
            main(
                ["update", "--index", str(binary_index), "--graph",
                 str(graph_file), "--updates", str(ops2)]
            )
            == 0
        )
        patched = load_frozen(binary_index)
        assert patched.distance(0, 5, 9.0) == 1.0  # first batch survives

    def test_keep_graph_leaves_the_edge_file_alone(
        self, graph_file, binary_index, tmp_path, capsys
    ):
        before = graph_file.read_bytes()
        ops = self.write_ops(tmp_path, "insert 0 5 9.0\n")
        assert (
            main(
                ["update", "--index", str(binary_index), "--graph",
                 str(graph_file), "--updates", str(ops), "--keep-graph"]
            )
            == 0
        )
        assert "graph written back" not in capsys.readouterr().err
        assert graph_file.read_bytes() == before

    def test_rejects_text_indexes(
        self, graph_file, text_index_file, tmp_path
    ):
        ops = self.write_ops(tmp_path, "insert 0 5 9.0\n")
        before = text_index_file.read_bytes()
        with pytest.raises(SystemExit, match="update: bad binary magic"):
            main(
                ["update", "--index", str(text_index_file), "--graph",
                 str(graph_file), "--updates", str(ops)]
            )
        assert text_index_file.read_bytes() == before

    def test_queries_require_pool(self, graph_file, binary_index, tmp_path):
        ops = self.write_ops(tmp_path, "insert 0 5 9.0\n")
        with pytest.raises(SystemExit, match="--pool"):
            main(
                ["update", "--index", str(binary_index), "--graph",
                 str(graph_file), "--updates", str(ops), "0", "5", "1.0"]
            )

    def test_missing_edge_reports_the_mutation(
        self, graph_file, binary_index, tmp_path
    ):
        ops = self.write_ops(tmp_path, "delete 0 5\n")
        with pytest.raises(SystemExit, match="no such edge"):
            main(
                ["update", "--index", str(binary_index), "--graph",
                 str(graph_file), "--updates", str(ops)]
            )

    def test_malformed_mutation_file_reports_the_line(
        self, graph_file, binary_index, tmp_path
    ):
        from repro.live import MutationFormatError

        ops = self.write_ops(tmp_path, "insert 0 5 9.0\nbogus\n")
        with pytest.raises(MutationFormatError, match="line 2"):
            main(
                ["update", "--index", str(binary_index), "--graph",
                 str(graph_file), "--updates", str(ops)]
            )


class TestTopAndTraceCommands:
    @pytest.fixture(scope="class")
    def front(self):
        from repro.core import build_wc_index_plus
        from repro.graph.generators import scale_free_network
        from repro.serve import InProcessClient, NetServerThread

        network = scale_free_network(60, 2, num_qualities=5, seed=3)
        frozen = build_wc_index_plus(network).freeze()
        with NetServerThread(InProcessClient(frozen)) as front:
            yield front

    def _address(self, front):
        host, port = front.address
        return f"{host}:{port}"

    def test_top_once_renders_the_dashboard(self, front, capsys):
        assert main(["top", self._address(front), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "latency ms" in out

    def test_top_once_prometheus_format(self, front, capsys):
        assert (
            main(
                ["top", self._address(front), "--once",
                 "--format", "prometheus"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_answered_total counter" in out

    def test_top_once_json_format(self, front, capsys):
        import json

        assert (
            main(["top", self._address(front), "--once", "--format", "json"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert "metrics" in report and "stats" in report

    def test_top_bad_address_fails_cleanly(self):
        with pytest.raises(SystemExit, match="cannot connect"):
            main(["top", "127.0.0.1:1", "--once"])

    def test_trace_samples_a_query_and_renders_the_tree(self, front, capsys):
        assert main(["trace", self._address(front), "0", "1", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "trace 0x" in out
        assert "kernel" in out
        assert "serialize" in out

    def test_trace_last_replays_the_ring(self, front, capsys):
        assert main(["trace", self._address(front), "0", "1", "3.0"]) == 0
        capsys.readouterr()
        assert main(["trace", self._address(front), "--last", "1"]) == 0
        assert "trace 0x" in capsys.readouterr().out

    def test_trace_needs_queries_or_last(self, front):
        with pytest.raises(SystemExit, match="--last"):
            main(["trace", self._address(front)])
