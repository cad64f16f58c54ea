"""Experiment harness: every figure runs (quick mode) and lands in band."""

import re
import tempfile

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.sim.runner import TRACE_CACHE


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(EXPERIMENTS) == {
            "fig03", "fig12", "fig13", "fig14", "fig16", "fig19", "headline"
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestCli:
    def test_no_cache_summary_reports_disabled_cache(self, monkeypatch, capsys):
        """A disabled cache counts nothing, so the summary must not claim
        "0 misses" after building every artifact."""
        monkeypatch.setattr(TRACE_CACHE, "enabled", True)  # undo --no-cache
        assert cli_main(["--quick", "--only", "fig19", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert re.search(r"^trace cache: disabled \(--no-cache\), "
                         r"(python|native) pricing engine$", err, re.M), err
        assert "misses" not in err

    def test_help_lists_jobs_and_no_workers(self, capsys):
        """``--jobs`` is the one parallelism flag."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "--workers" not in out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--quick", "--only", "fig13", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    @staticmethod
    def _report(path, *flags) -> list[str]:
        """Render fig13 (quick) to ``path``; its lines minus timings."""
        assert cli_main(["--quick", "--only", "fig13", *flags,
                         "-o", str(path)]) == 0
        return [line for line in path.read_text().splitlines()
                if "completed in" not in line]

    def test_jobs_drain_without_cache_matches_serial(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     fresh_cache):
        """``--no-cache --jobs 2`` drains into a temporary dir, renders
        the serial tables and removes the dir afterwards."""
        monkeypatch.setattr(TRACE_CACHE, "enabled", True)  # undo --no-cache
        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        serial = self._report(tmp_path / "serial.txt", "--no-cache")
        drained = self._report(tmp_path / "drained.txt", "--no-cache",
                               "--jobs", "2")
        assert drained == serial
        err = capsys.readouterr().err
        assert re.search(r"^drain: [1-9]\d*/\d+ jobs computed here", err,
                         re.M), err
        assert list(temp_root.iterdir()) == []
        assert not TRACE_CACHE.enabled  # --no-cache still holds afterwards
        assert TRACE_CACHE.cache_dir is None

    def test_jobs_drain_into_cache_dir_matches_serial(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      fresh_cache):
        """``--jobs 2`` with a cache dir fills it and renders the serial
        tables; a rerun on the filled dir computes nothing."""
        monkeypatch.setattr(TRACE_CACHE, "enabled", True)  # undo --no-cache
        serial = self._report(tmp_path / "serial.txt", "--no-cache")
        TRACE_CACHE.enabled = True
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        flags = ("--cache-dir", str(cache_dir), "--jobs", "2")
        assert self._report(tmp_path / "drained.txt", *flags) == serial
        artifacts = {p.name: p.stat().st_mtime_ns
                     for p in cache_dir.glob("*-*.*")}
        assert artifacts
        capsys.readouterr()
        TRACE_CACHE.clear()  # a fresh process: memory tier gone
        assert self._report(tmp_path / "rerun.txt", *flags) == serial
        err = capsys.readouterr().err
        assert re.search(r"^drain: 0/\d+ jobs computed here", err, re.M), err
        assert "0 misses (0 trace, 0 sweep, 0 result, 0 profile)" in err
        assert {p.name: p.stat().st_mtime_ns
                for p in cache_dir.glob("*-*.*")} == artifacts


    def test_jobs_drain_quarantine_exits_3(self, tmp_path, monkeypatch,
                                           capsys, fresh_cache):
        """A job that always crashes is quarantined by the drain; the CLI
        reports it and exits 3 instead of rendering."""
        from repro.sim import faults

        monkeypatch.setattr(TRACE_CACHE, "enabled", True)  # undo --no-cache
        monkeypatch.setenv("REPRO_FAULTS", "")  # the CLI exports its plan
        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        try:
            status = cli_main(["--quick", "--only", "fig19", "--no-cache",
                               "--jobs", "2", "--faults", "compute:crash:1.0",
                               "-o", str(tmp_path / "out.txt")])
        finally:
            faults.install(None)
        assert status == 3
        err = capsys.readouterr().err
        assert re.search(r"^quarantined: profile-\w+ \(failed 3\+ times",
                         err, re.M), err
        assert not (tmp_path / "out.txt").exists()
        assert list(temp_root.iterdir()) == []


class TestResultStructure:
    def test_add_row_and_column(self):
        r = ExperimentResult("x", "t", ["a", "b"])
        r.add_row(a=1, b=2.0)
        assert r.column("a") == [1]
        assert r.mean("b") == 2.0

    def test_to_text_contains_everything(self):
        r = ExperimentResult("x", "Title", ["w", "v"])
        r.add_row(w="alpha", v=1.234)
        r.summary["avg"] = 1.2
        r.paper["avg"] = 1.3
        text = r.to_text()
        assert "Title" in text
        assert "alpha" in text
        assert "1.234" in text
        assert "paper: 1.300" in text


class TestFig03:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig03", quick=True)

    def test_all_groups_present(self, result):
        workloads = result.column("workload")
        assert any(w.endswith("-Inf") for w in workloads)
        assert any(w.endswith("-Train") for w in workloads)
        assert any(w.startswith("PR-") for w in workloads)
        assert any(w.startswith("BFS-") for w in workloads)

    def test_every_workload_above_paper_floor(self, result):
        """Paper: traffic overhead at least ~23% everywhere."""
        assert all(t > 20.0 for t in result.column("total_pct"))

    def test_vn_exceeds_mac(self, result):
        """The Fig. 3 observation driving MGX's design."""
        for row in result.rows:
            assert row["vn_pct"] > row["mac_pct"] * 0.9


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig12", quick=True)

    def test_mgx_beats_bp_everywhere(self, result):
        for row in result.rows:
            assert row["MGX"] < row["BP"]

    def test_mgx_band(self, result):
        for row in result.rows:
            assert row["MGX"] < 1.10

    def test_bp_band(self, result):
        for row in result.rows:
            assert 1.2 < row["BP"] < 1.6


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig13", quick=True)

    def test_scheme_ordering_per_row(self, result):
        for row in result.rows:
            assert row["MGX"] <= row["MGX_VN"] + 1e-9
            assert row["MGX_VN"] <= row["MGX_MAC"] + 1e-9
            assert row["MGX_MAC"] <= row["BP"] + 1e-9

    def test_mgx_near_zero(self, result):
        """Single digits everywhere; DLRM-Edge is the worst point."""
        for row in result.rows:
            assert row["MGX"] < 1.08


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig14", quick=True)

    def test_pr_and_bfs_rows(self, result):
        names = result.column("workload")
        assert any(n.startswith("PR-") for n in names)
        assert any(n.startswith("BFS-") for n in names)

    def test_traffic_bands(self, result):
        for row in result.rows:
            assert 1.2 < row["traffic_BP"] < 1.4
            assert row["traffic_MGX"] < 1.05

    def test_time_ordering(self, result):
        for row in result.rows:
            assert row["time_MGX"] < row["time_BP"]


class TestFig16:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig16", quick=True)

    def test_mgx_vn_beats_bp(self, result):
        for row in result.rows:
            assert row["MGX_VN"] < row["BP"]

    def test_traffic_near_12_5_for_mgx_vn(self, result):
        """Fine-grained MACs cost ~1/8 of traffic (paper: +12.5%); the
        error-scaled traceback stream nudges it slightly above."""
        for row in result.rows:
            assert 1.10 < row["traffic_MGX_VN"] < 1.16

    def test_tiles_measured(self, result):
        assert all(f >= 1.0 for f in result.column("tiles_per_read"))


class TestFig19:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig19", quick=True)

    def test_all_invariants_hold(self, result):
        assert result.summary["write_once_per_frame"] == 1.0
        assert result.summary["vn_monotonic_per_buffer"] == 1.0
        assert result.summary["functional_roundtrip"] == 1.0

    def test_pattern_rows_present(self, result):
        kinds = set(result.column("kind"))
        assert kinds == {"read", "write"}


class TestHeadline:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("headline", quick=True)

    def test_four_tasks(self, result):
        assert [r["task"] for r in result.rows] == [
            "DNN-Inference", "DNN-Training", "PageRank", "BFS"
        ]

    def test_mgx_single_digit_everywhere(self, result):
        for row in result.rows:
            assert row["MGX_pct"] < 8.0

    def test_bp_tens_of_percent(self, result):
        for row in result.rows:
            assert 15.0 < row["BP_pct"] < 60.0

    def test_headline_reduction(self, result):
        """The abstract's claim: BP ~28-33% down to ~4-5%."""
        assert result.summary["DNN_BP_avg_pct"] > 5 * result.summary["DNN_MGX_avg_pct"]
        assert result.summary["Graph_BP_avg_pct"] > 5 * result.summary["Graph_MGX_avg_pct"]
