"""Cache lifecycle: mark-and-sweep GC, policies, verification, CLI.

The GC's contract: artifacts reachable from a live suite graph are
never deleted under any policy; deletion plans are deterministic
(oldest-first with a stable name tiebreak); a concurrent worker's fresh
queue lock is respected while orphaned locks are swept; and ``cache
verify`` flags deliberately-corrupted artifacts via their content
digests.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.sim import gc as cache_gc
from repro.sim.queue import QUEUE_SUBDIR
from repro.sim.runner import payload_digest, spill_filename, split_spill_bytes
from repro.sim.scheduler import build_graph, dnn_spec, gop_profile_spec


def _framed(payload: bytes, digest: str | None = None) -> bytes:
    """``payload`` plus a digest trailer (``payload``'s own by default)."""
    digest = digest or payload_digest(payload)
    return payload + b"\n#sha256:" + digest.encode() + b"\n"


def _flip_first_byte(path: Path) -> None:
    """Change a spill's payload but keep its recorded digest."""
    payload, digest = split_spill_bytes(path.read_bytes())
    path.write_bytes(_framed(b"y" + bytes(payload[1:]), digest))


def _fake_artifact(cache_dir: Path, kind: str, tag: str, size: int = 64,
                   age: float = 0.0) -> Path:
    """A synthetic spill file with a controlled size and age."""
    digest = f"{abs(hash((kind, tag))):032x}"[:32]
    path = cache_dir / f"{kind}-{digest}.json"
    path.write_bytes(_framed(b"x" * size))
    if age:
        old = time.time() - age
        os.utime(path, (old, old))
    return path


class TestMarkAndSweep:
    def test_reachable_artifacts_survive_every_policy(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        live = _fake_artifact(cache, "sweep", "live", age=9e6)
        dead = _fake_artifact(cache, "sweep", "dead", age=9e6)
        plan = cache_gc.plan_gc(cache, live={live.name}, max_age=0.0,
                                max_bytes=0)
        assert [f.path for f in plan.keep] == [live]
        assert [f.path for f in plan.delete] == [dead]
        cache_gc.run_gc(plan)
        assert live.exists()
        assert not dead.exists()

    def test_live_graph_keys_map_to_spill_names(self, disk_cache):
        """An actually-computed graph is fully reachable: gc is a no-op."""
        from repro.sim.scheduler import compute_job

        jobs = build_graph([dnn_spec("AlexNet", "Cloud"),
                            gop_profile_spec("IBPB", 8, 8)])
        for job in jobs:
            compute_job(job)
        live = cache_gc.live_file_names(jobs)
        on_disk = {p.name for p in disk_cache.cache_dir.glob("*.json")}
        on_disk |= {p.name for p in disk_cache.cache_dir.glob("*.bin")}
        # Fresh computation writes exactly each key's one name, and the
        # mark set is exactly those names.
        assert on_disk == {spill_filename(job.key) for job in jobs}
        assert on_disk == live
        plan = cache_gc.plan_gc(disk_cache.cache_dir, live=live, max_age=0.0)
        assert plan.delete == []
        assert {f.path.name for f in plan.keep} == on_disk

    def test_dry_run_deletes_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        dead = _fake_artifact(cache, "trace", "dead")
        plan = cache_gc.plan_gc(cache, live=set())
        summary = cache_gc.run_gc(plan, dry_run=True)
        assert summary["deleted"] == 1
        assert dead.exists()

    def test_age_grace_spares_recent_unreachable(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        old = _fake_artifact(cache, "result", "old", age=3600.0)
        recent = _fake_artifact(cache, "result", "recent", age=10.0)
        plan = cache_gc.plan_gc(cache, live=set(), max_age=600.0)
        assert [f.path for f in plan.delete] == [old]
        assert [f.path for f in plan.spared] == [recent]


class TestSizeBudget:
    def test_oldest_first_with_stable_name_tiebreak(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        now = time.time()
        files = {}
        # Three equal-mtime artifacts + one older: the older goes first,
        # then ascending file-name order among the tied ones.
        for tag, age in (("c", 50.0), ("a", 50.0), ("b", 50.0), ("z", 500.0)):
            path = _fake_artifact(cache, "sweep", tag, size=100)
            old = now - age
            os.utime(path, (old, old))
            files[tag] = path
        total = sum(p.stat().st_size for p in files.values())
        budget = total - 2 * files["z"].stat().st_size  # must evict two
        plan = cache_gc.plan_gc(cache, live=set(), max_age=1e9,
                                max_bytes=budget, now=now)
        expected = [files["z"],
                    min((files["a"], files["b"], files["c"]),
                        key=lambda p: p.name)]
        assert [f.path for f in plan.delete] == expected

    def test_two_plans_over_same_state_are_identical(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        for tag in "abcdef":
            _fake_artifact(cache, "profile", tag, size=200, age=100.0)
        kwargs = dict(live=set(), max_age=1e9, max_bytes=500, now=time.time())
        first = cache_gc.plan_gc(cache, **kwargs)
        again = cache_gc.plan_gc(cache, **kwargs)
        assert [f.path for f in first.delete] == [f.path for f in again.delete]
        assert [f.path for f in first.spared] == [f.path for f in again.spared]

    def test_budget_never_evicts_reachable(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        live = _fake_artifact(cache, "trace", "live", size=10_000, age=9e6)
        dead = _fake_artifact(cache, "trace", "dead", size=10, age=9e6)
        plan = cache_gc.plan_gc(cache, live={live.name}, max_age=1e9,
                                max_bytes=1)  # unreachable budget
        assert [f.path for f in plan.delete] == [dead]
        assert [f.path for f in plan.keep] == [live]


class TestQueueHygiene:
    def test_fresh_lock_of_live_worker_is_respected(self, tmp_path):
        cache = tmp_path / "cache"
        queue_dir = cache / QUEUE_SUBDIR
        queue_dir.mkdir(parents=True)
        fresh = queue_dir / "result-abc.lock"
        fresh.write_text("worker 1 now\n")
        stale = queue_dir / "result-def.lock"
        stale.write_text("worker 2 long-gone\n")
        old = time.time() - 2 * cache_gc.LOCK_STALE_SECONDS
        os.utime(stale, (old, old))
        plan = cache_gc.plan_gc(cache, live=set())
        assert plan.stale_locks == [stale]
        summary = cache_gc.run_gc(plan)
        assert summary["locks_removed"] == 1
        assert fresh.exists()
        assert not stale.exists()

    def test_abandoned_tmp_spills_are_swept(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        torn = cache / "sweep-deadbeef.tmp.12345"
        torn.write_text("{half a spi")
        old = time.time() - 2 * cache_gc.TMP_STALE_SECONDS
        os.utime(torn, (old, old))
        live_tmp = cache / "sweep-cafef00d.tmp.99999"
        live_tmp.write_text("{being writ")
        plan = cache_gc.plan_gc(cache, live=set())
        assert plan.stale_tmp == [torn]
        cache_gc.run_gc(plan)
        assert not torn.exists()
        assert live_tmp.exists()

    def test_abandoned_tmp_of_every_kind_is_swept(self, tmp_path):
        """The stale-tmp sweep covers all four artifact kinds (and both
        spill formats): tmp names keep the `<kind>-<digest>` stem."""
        cache = tmp_path / "cache"
        cache.mkdir()
        orphans = []
        for kind, ext in (("trace", "bin"), ("result", "json"),
                          ("sweep", "json"), ("profile", "json")):
            torn = cache / f"{kind}-{kind[0] * 8}.tmp.4242"
            torn.write_bytes(b"torn " + ext.encode())
            orphans.append(torn)
        old = time.time() - 10.0
        for torn in orphans:
            os.utime(torn, (old, old))
        plan = cache_gc.plan_gc(cache, live=set(), tmp_stale_seconds=1.0)
        assert sorted(plan.stale_tmp) == sorted(orphans)
        summary = cache_gc.run_gc(plan)
        assert summary["tmp_removed"] == len(orphans)
        assert not any(p.exists() for p in orphans)

    def test_sigkill_mid_spill_leaves_tmp_the_gc_reclaims(self, tmp_path,
                                                          disk_cache):
        """A worker SIGKILLed mid-write leaves only a tmp orphan — the
        real artifact name never appears — and `cache gc` removes it."""
        import multiprocessing
        import signal

        cache_dir = disk_cache.cache_dir

        def spill_forever(cache_dir, started):
            # Open the tmp file exactly the way _disk_store names it,
            # write a partial payload, then hang until SIGKILLed.
            tmp = Path(cache_dir) / f"profile-12345678deadbeef.tmp.{os.getpid()}"
            tmp.write_text('{"half": "a spill"')
            started.set()
            time.sleep(300.0)

        ctx = multiprocessing.get_context("fork")
        started = ctx.Event()
        worker = ctx.Process(target=spill_forever,
                             args=(str(cache_dir), started))
        worker.start()
        assert started.wait(timeout=30.0)
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=30.0)
        orphans = list(Path(cache_dir).glob("*.tmp.*"))
        assert len(orphans) == 1  # the torn write survived the SIGKILL
        time.sleep(0.05)
        plan = cache_gc.plan_gc(cache_dir, live=set(),
                                tmp_stale_seconds=0.01)
        assert plan.stale_tmp == orphans
        summary = cache_gc.run_gc(plan)
        assert summary["tmp_removed"] == 1
        assert list(Path(cache_dir).glob("*.tmp.*")) == []

    def test_resolved_and_aged_attempt_records_are_swept(self, tmp_path):
        """Attempt records whose job's artifact now exists (or that have
        aged out) are GC'd; fresh records of unresolved failures stay."""
        cache = tmp_path / "cache"
        queue_dir = cache / QUEUE_SUBDIR
        queue_dir.mkdir(parents=True)
        resolved = queue_dir / "profile-abc.attempts"
        resolved.write_text("w1\t0.0\tRuntimeError: transient\n")
        (cache / "profile-abc.json").write_text("{}\n")  # artifact landed
        aged = queue_dir / "trace-old.attempts"
        aged.write_text("w1\t0.0\tOSError: io\n")
        old = time.time() - 10.0
        os.utime(aged, (old, old))
        fresh = queue_dir / "result-live.attempts"
        fresh.write_text("w2\t0.0\tRuntimeError: still failing\n")
        plan = cache_gc.plan_gc(cache, live=set(), tmp_stale_seconds=5.0)
        assert sorted(plan.stale_attempts) == sorted([resolved, aged])
        summary = cache_gc.run_gc(plan)
        assert summary["attempts_removed"] == 2
        assert fresh.exists()
        assert not resolved.exists() and not aged.exists()


class TestVerify:
    def test_pristine_cache_verifies_clean(self, disk_cache):
        from repro.sim.runner import dnn_sweep

        dnn_sweep("AlexNet", "Cloud")
        ok, issues = cache_gc.verify_artifacts(disk_cache.cache_dir)
        assert ok >= 2  # the trace and the sweep at least
        assert issues == []

    def test_corrupted_artifact_is_flagged_and_not_served(self, disk_cache):
        from repro.sim.runner import dnn_sweep

        first = dnn_sweep("AlexNet", "Cloud")
        spill = next(iter(disk_cache.cache_dir.glob("sweep-*.json")))
        payload, digest = split_spill_bytes(spill.read_bytes())
        assert digest is not None
        # Corrupt one byte *inside* valid JSON: still decodes, but the
        # content no longer matches the recorded digest.
        corrupted = bytes(payload).replace(b'"workload"', b'"workLoad"', 1)
        assert corrupted != payload
        spill.write_bytes(_framed(corrupted, digest))
        ok, issues = cache_gc.verify_artifacts(disk_cache.cache_dir)
        assert any(i.status == "corrupt" and i.path == spill for i in issues)
        # The loader refuses the corrupt spill and rebuilds transparently.
        disk_cache.clear()
        rebuilt = dnn_sweep("AlexNet", "Cloud")
        assert disk_cache.stats()["sweep_misses"] == 1
        assert rebuilt.workload == first.workload

    def test_stale_codec_is_stale_not_corrupt(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / f"sweep-{'0' * 32}.json"
        path.write_bytes(_framed(b'{"version": -1}'))
        ok, issues = cache_gc.verify_artifacts(cache)
        assert ok == 0
        assert [i.status for i in issues] == ["stale"]

    def test_legacy_spill_without_trailer_is_corrupt(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / f"profile-{'1' * 32}.json").write_text('{"version": 2}')
        ok, issues = cache_gc.verify_artifacts(cache)
        assert [i.status for i in issues] == ["corrupt"]


class TestSpillNames:
    def test_every_graph_key_has_a_spill_name(self):
        from repro.experiments.registry import FULL_SUITE, suite_graph

        for quick in (False, True):
            for job in suite_graph(FULL_SUITE, quick):
                name = spill_filename(job.key)
                assert name is not None, job.kind
                assert name.split("-", 1)[0] == (
                    job.kind if job.kind != "trace" else "trace"
                )

    def test_memory_only_keys_have_no_spill_name(self):
        assert spill_filename(("graph-csr", "google-plus", 64)) is None


class TestParsers:
    def test_durations(self):
        assert cache_gc.parse_duration("0s") == 0.0
        assert cache_gc.parse_duration("90") == 90.0
        assert cache_gc.parse_duration("30m") == 1800.0
        assert cache_gc.parse_duration("7d") == 7 * 86400.0

    def test_sizes(self):
        assert cache_gc.parse_size("1024") == 1024
        assert cache_gc.parse_size("512M") == 512 << 20
        assert cache_gc.parse_size("2g") == 2 << 30

    def test_rejects_garbage(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            cache_gc.parse_duration("soon")
        with pytest.raises(ConfigError):
            cache_gc.parse_size("plenty")


class TestCli:
    def test_cache_stats_gc_verify_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        live = _fake_artifact(cache, "sweep", "live", age=9e6)
        _fake_artifact(cache, "trace", "dead", age=9e6)

        # The default mark set is the real suite graph, which our fake
        # names are not part of — pin the live set through the module
        # seam instead of recomputing the whole registry here.
        import repro.sim.gc as gc_mod

        original = gc_mod.default_live_names
        gc_mod.default_live_names = lambda: {live.name}
        try:
            argv = ["cache", "stats", "--cache-dir", str(cache)]
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            assert "1 reachable, 1 unreachable" in out

            argv = ["cache", "gc", "--max-age", "0s", "--dry-run",
                    "--cache-dir", str(cache)]
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            assert "would delete 1 artifacts" in out
            assert live.exists()

            argv = ["cache", "gc", "--max-age", "0s", "--cache-dir", str(cache)]
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            assert "deleted 1 artifacts" in out
            assert live.exists()
            assert list(cache.glob("trace-*.json")) == []
        finally:
            gc_mod.default_live_names = original

        # verify: the stale fake payload ("xxx…" decodes under no codec)
        # is reported stale, not corrupt, and the exit code stays 0.
        assert cli_main(["cache", "verify", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "0 corrupt" in out

    def test_verify_exit_code_flags_corruption(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        path = _fake_artifact(cache, "profile", "x")
        _flip_first_byte(path)
        assert cli_main(["cache", "verify", "--cache-dir", str(cache)]) == 1
        assert "1 corrupt" in capsys.readouterr().out

    def test_missing_cache_dir_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            cli_main(["cache", "stats"])

    def test_cache_stats_reports_quarantine_census(self, tmp_path):
        from repro.sim.gc import cache_stats
        from repro.sim.queue import QUARANTINE_AFTER

        cache = tmp_path / "cache"
        queue_dir = cache / QUEUE_SUBDIR
        queue_dir.mkdir(parents=True)
        poisoned = queue_dir / "trace-bad.attempts"
        poisoned.write_text(
            "w1\t0.0\tRuntimeError: boom\n" * QUARANTINE_AFTER)
        flaky = queue_dir / "result-flaky.attempts"
        flaky.write_text("w2\t0.0\tOSError: io\n")
        stats = cache_stats(cache)
        assert stats["attempt_records"] == 2
        assert stats["failed_attempts"] == QUARANTINE_AFTER + 1
        assert stats["quarantined_jobs"] == ["trace-bad"]

    def test_cache_stats_json_is_machine_readable(self, tmp_path, capsys):
        import json

        cache = tmp_path / "cache"
        cache.mkdir()
        _fake_artifact(cache, "sweep", "live")
        assert cli_main(["cache", "stats", "--json",
                         "--cache-dir", str(cache)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["total_files"] == 1
        assert stats["engine_backend"] in ("python", "native")
        assert stats["quarantined_jobs"] == []
        assert stats["attempt_records"] == 0

    def test_cache_verify_json_lists_issues(self, tmp_path, capsys):
        import json

        cache = tmp_path / "cache"
        cache.mkdir()
        _fake_artifact(cache, "sweep", "ok")
        bad = _fake_artifact(cache, "profile", "bad")
        _flip_first_byte(bad)
        assert cli_main(["cache", "verify", "--json",
                         "--cache-dir", str(cache)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt"] == 1
        assert report["ok"] >= 0
        files = [issue["file"] for issue in report["issues"]
                 if issue["status"] == "corrupt"]
        assert files == [bad.name]
