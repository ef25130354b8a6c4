"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_info_prints_sizes(self, capsys):
        assert main(["info", "--n", "32", "--f", "2"]) == 0
        out = capsys.readouterr().out
        assert "connectivity[cycle_space]" in out
        assert "connectivity[sketch]" in out
        assert "distance[k=2]" in out

    def test_info_families(self, capsys):
        for family in ("grid", "ring_of_cliques"):
            assert main(["info", "--family", family, "--n", "25", "--f", "1"]) == 0

    def test_unknown_family_exits(self):
        with pytest.raises(SystemExit):
            main(["info", "--family", "mystery"])


class TestQuery:
    def test_connected_query(self, capsys):
        code = main(
            ["query", "--n", "32", "--s", "0", "--t", "10", "--faults", "1,2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "connected(0, 10" in out

    def test_empty_fault_list(self, capsys):
        assert main(["query", "--n", "24", "--s", "0", "--t", "5"]) == 0
        assert "distance estimate" in capsys.readouterr().out


class TestRoute:
    def test_route_delivers(self, capsys):
        code = main(
            ["route", "--n", "25", "--family", "grid",
             "--s", "0", "--t", "24", "--faults", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered" in out
        assert "reversals" in out

    def test_route_simple_tables(self, capsys):
        code = main(
            ["route", "--n", "16", "--family", "grid", "--s", "0", "--t", "15",
             "--tables", "simple"]
        )
        assert code == 0

    def test_route_undelivered_exit_code(self, capsys):
        # Isolate vertex 0 of a 2x2-ish grid by failing its two edges.
        code = main(
            ["route", "--n", "16", "--family", "grid", "--s", "0", "--t", "15",
             "--faults", "0,1", "--f", "2"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "UNDELIVERED" in out


class TestLowerBound:
    def test_series(self, capsys):
        assert main(["lower-bound", "--f", "2"]) == 0
        out = capsys.readouterr().out
        assert "analytic" in out
        assert out.count("\n") >= 3


class TestBuildServe:
    """The build/serve split: `build` writes a snapshot, `serve-bench
    --snapshot` / `traffic --snapshot` answer off it."""

    def test_build_then_serve_bench_round_trip(self, tmp_path, capsys):
        snap = str(tmp_path / "sketch.snap")
        assert main(["build", "--n", "48", "--out", snap]) == 0
        out = capsys.readouterr().out
        assert "saved + verified" in out
        code = main(
            ["serve-bench", "--n", "48", "--queries", "200",
             "--fault-sets", "4", "--chunk", "16", "--snapshot", snap]
        )
        assert code == 0
        out = capsys.readouterr().out
        # the command cross-checks the loaded scheme against a fresh
        # in-process construction, bit for bit (paths included)
        assert "snapshot answers match in-process construction" in out

    @pytest.mark.parametrize("from_file", [False, True], ids=["built", "snapshot"])
    def test_serve_bench_shards_fork_from_the_factory(
        self, tmp_path, capsys, from_file
    ):
        argv = ["serve-bench", "--n", "48", "--queries", "200",
                "--fault-sets", "4", "--chunk", "16", "--shards", "2"]
        if from_file:
            snap = str(tmp_path / "sketch.snap")
            assert main(["build", "--n", "48", "--out", snap]) == 0
            argv += ["--snapshot", snap]
        capsys.readouterr()
        assert main(argv) == 0
        # the sharded verdicts were cross-checked before this line
        assert "sharded x2 (forkserver)" in capsys.readouterr().out

    def test_build_then_traffic_round_trip(self, tmp_path, capsys):
        snap = str(tmp_path / "router.snap")
        assert main(
            ["build", "--n", "16", "--family", "grid", "--artifact", "router",
             "--f", "2", "--out", snap]
        ) == 0
        capsys.readouterr()
        code = main(
            ["traffic", "--n", "16", "--family", "grid", "--epochs", "3",
             "--messages-per-epoch", "6", "--snapshot", snap, "--validate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "loaded router snapshot" in out
        assert "oracle-validated" in out

    def test_serve_bench_rejects_wrong_artifact(self, tmp_path, capsys):
        snap = str(tmp_path / "router.snap")
        assert main(
            ["build", "--n", "16", "--family", "grid", "--artifact", "router",
             "--out", snap]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="holds a"):
            main(["serve-bench", "--n", "16", "--family", "grid",
                  "--snapshot", snap])

    def test_serve_bench_rejects_mismatched_graph(self, tmp_path, capsys):
        snap = str(tmp_path / "sketch.snap")
        assert main(["build", "--n", "48", "--out", snap]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="does not match"):
            main(["serve-bench", "--n", "32", "--snapshot", snap])

    def test_traffic_rejects_mismatched_graph(self, tmp_path, capsys):
        snap = str(tmp_path / "router.snap")
        assert main(
            ["build", "--n", "16", "--family", "grid", "--artifact", "router",
             "--out", snap]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="does not match"):
            main(["traffic", "--n", "64", "--snapshot", snap])
