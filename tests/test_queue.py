"""File-lock work queue: claims, heartbeats, orphan reclaim, cooperation.

The distributed contract mirrors the scheduler's: fan-out must be
invisible in the results.  Two worker processes draining one artifact
graph over a shared cache directory must leave the drivers rendering
byte-identical tables to a serial run; killed workers' claims must be
reclaimed; stale lock files from a crashed run must never deadlock a
fresh one.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.common.errors import ConfigError
from repro.sim.queue import (
    QUARANTINE_AFTER,
    QUEUE_SUBDIR,
    WorkQueue,
    _drain_worker,
    drain_graph,
    run_workers,
)
from repro.sim.runner import TRACE_CACHE
from repro.sim.scheduler import (
    ablation_table_spec,
    build_graph,
    dnn_spec,
    extra_table_spec,
    gact_profile_spec,
    gop_profile_spec,
)


def _fast_queue(tmp_path, **overrides) -> WorkQueue:
    options = dict(heartbeat_seconds=0.05, stale_seconds=0.4, poll_seconds=0.02)
    options.update(overrides)
    return WorkQueue(tmp_path / "cache" / QUEUE_SUBDIR, **options)


def _small_specs():
    """A cheap mixed graph: one sweep family plus functional profiles."""
    return [
        dnn_spec("AlexNet", "Cloud"),
        gact_profile_spec("chrY", "PacBio", 2),
        gop_profile_spec("IBPB", 8, 8),
    ]


class TestClaims:
    def test_claim_is_exclusive_until_released(self, tmp_path, disk_cache):
        queue = _fast_queue(tmp_path)
        with queue.try_claim("job-1") as claim:
            assert claim is not None
            assert queue.try_claim("job-1") is None
            assert queue.is_claimed("job-1")
        assert not queue.is_claimed("job-1")
        assert queue.try_claim("job-1") is not None

    def test_heartbeat_keeps_claim_fresh(self, tmp_path, disk_cache):
        queue = _fast_queue(tmp_path, stale_seconds=0.3)
        claim = queue.try_claim("job-1")
        time.sleep(0.6)  # well past stale_seconds, but the heartbeat ticks
        assert queue.reclaim_stale() == []
        assert queue.is_claimed("job-1")
        claim.release()

    def test_dead_claim_goes_stale_and_is_reclaimed(self, tmp_path, disk_cache):
        queue = _fast_queue(tmp_path)
        claim = queue.try_claim("job-1")
        # Simulate a killed worker: the heartbeat stops, the lock stays.
        claim._stop.set()
        claim._thread.join()
        old = time.time() - 10.0
        os.utime(claim.path, (old, old))
        assert queue.reclaim_stale() == ["job-1"]
        assert queue.try_claim("job-1") is not None

    def test_release_after_reclaim_leaves_peer_lock_alone(self, tmp_path,
                                                          disk_cache):
        """A stalled owner whose claim was reclaimed and re-claimed by a
        peer must neither delete nor keep-alive the peer's lock."""
        queue = _fast_queue(tmp_path)
        stalled = queue.try_claim("job-1")
        stalled._stop.set()
        stalled._thread.join()  # owner stalls: heartbeat stops, lock stays
        old = time.time() - 10.0
        os.utime(stalled.path, (old, old))
        assert queue.reclaim_stale() == ["job-1"]
        peer_claim = queue.try_claim("job-1")  # a peer takes the job over
        assert peer_claim is not None
        stalled.release()  # the stalled owner resumes and releases
        assert queue.is_claimed("job-1")  # peer's lock survived
        peer_claim.release()
        assert not queue.is_claimed("job-1")

    def test_stale_must_exceed_heartbeat(self, tmp_path):
        with pytest.raises(ConfigError):
            WorkQueue(tmp_path / "q", heartbeat_seconds=5.0, stale_seconds=2.0)


def _assert_drained_sweep_matches_serial(disk_cache):
    """The drained AlexNet/Cloud sweep artifact, restored from disk,
    decodes to the same results a serial, uncached sweep computes."""
    from dataclasses import astuple

    from repro.sim.runner import SCHEMES, dnn_sweep

    disk_cache.clear()
    restored = dnn_sweep("AlexNet", "Cloud")
    assert disk_cache.disk_hits == 1
    reference = dnn_sweep("AlexNet", "Cloud", use_cache=False)
    for name in SCHEMES:
        assert (restored.results[name].total_cycles
                == reference.results[name].total_cycles), name
        assert astuple(restored.results[name].traffic) == astuple(
            reference.results[name].traffic
        ), name


class TestDrain:
    def test_single_process_drain_fills_cache(self, tmp_path, disk_cache):
        jobs = build_graph(_small_specs())
        summary = drain_graph(jobs, _fast_queue(tmp_path), timeout=120.0)
        assert summary["computed"] == len(jobs)
        for job in jobs:
            assert disk_cache.has_spill(job.key)
        # A second drain finds everything present and computes nothing.
        summary = drain_graph(jobs, _fast_queue(tmp_path), timeout=120.0)
        assert summary["computed"] == 0
        _assert_drained_sweep_matches_serial(disk_cache)

    def test_pool_drain_fills_cache_and_matches_serial(self, tmp_path,
                                                       disk_cache):
        """A pool of two queue processes (``run_workers``, the ``--jobs 2``
        path) spills every artifact; decoded sweeps stay byte-identical."""
        jobs = build_graph(_small_specs())
        summary = run_workers(jobs, tmp_path / "cache", 2, timeout=300.0)
        assert summary["quarantined"] == []
        for job in jobs:
            assert disk_cache.has_spill(job.key)
        _assert_drained_sweep_matches_serial(disk_cache)

    def test_memory_only_artifact_is_not_done(self, tmp_path, disk_cache,
                                              monkeypatch):
        """A job whose spill never lands stays undone, even though this
        process holds its value in memory: it is retried until it is
        quarantined, and its attempt record survives for the census."""
        store = disk_cache._disk_store

        def drop_profile_spills(key, value):
            if disk_cache._kind(key) != "profile":
                store(key, value)

        monkeypatch.setattr(disk_cache, "_disk_store", drop_profile_spills)
        jobs = build_graph([gop_profile_spec("IBPB", 8, 8)])
        job_id = jobs[0].job_id()
        queue = _fast_queue(tmp_path)
        summary = drain_graph(jobs, queue, timeout=120.0)
        assert summary["quarantined"] == [job_id]
        assert summary["failures"] == QUARANTINE_AFTER
        assert summary["computed"] == 0
        assert not disk_cache.has_spill(jobs[0].key)
        assert queue.failure_count(job_id) == QUARANTINE_AFTER

    def test_trace_job_spills_a_memory_tier_hit(self, tmp_path, disk_cache):
        """A trace this process already holds in memory (built with no
        cache dir attached) still lands in the store when its job runs."""
        spec = dnn_spec("AlexNet", "Cloud")
        disk_cache.set_cache_dir(None)
        spec.build_workload()  # the trace is now in the memory tier only
        disk_cache.set_cache_dir(tmp_path / "cache")
        trace_job = build_graph([spec])[0]
        assert trace_job.kind == "trace"
        assert not disk_cache.has_spill(trace_job.key)
        summary = drain_graph([trace_job], _fast_queue(tmp_path), timeout=120.0)
        assert summary["computed"] == 1
        assert summary["failures"] == 0
        assert disk_cache.has_spill(trace_job.key)

    def test_drain_requires_cache_dir(self, tmp_path):
        saved = TRACE_CACHE.cache_dir
        TRACE_CACHE.set_cache_dir(None)
        try:
            with pytest.raises(ConfigError):
                drain_graph([], _fast_queue(tmp_path))
        finally:
            TRACE_CACHE.set_cache_dir(saved)

    def test_pre_existing_stale_locks_do_not_deadlock(self, tmp_path, disk_cache):
        """Lock litter from a crashed previous run must not block a fresh one."""
        jobs = build_graph(_small_specs())
        queue = _fast_queue(tmp_path)
        old = time.time() - 3600.0
        for job in jobs:
            path = queue.lock_path(job.job_id())
            path.write_text("crashed-worker 0\n")
            os.utime(path, (old, old))
        summary = drain_graph(jobs, queue, timeout=120.0)
        assert summary["computed"] == len(jobs)
        assert summary["reclaimed"] >= 1

    def test_orphaned_claim_from_killed_worker_is_reclaimed(
            self, tmp_path, disk_cache):
        """A worker that dies mid-job leaves a lock another worker takes over."""
        jobs = build_graph([gop_profile_spec("IBPB", 4, 4)])
        queue = _fast_queue(tmp_path)

        def claim_and_die(queue_dir):
            victim = WorkQueue(queue_dir, heartbeat_seconds=0.05,
                               stale_seconds=0.4)
            victim.try_claim(jobs[0].job_id())
            os._exit(1)  # SIGKILL-style: no release, heartbeat dies too

        ctx = multiprocessing.get_context("fork")
        worker = ctx.Process(target=claim_and_die, args=(queue.queue_dir,))
        worker.start()
        worker.join(timeout=30.0)
        assert queue.is_claimed(jobs[0].job_id())
        summary = drain_graph(jobs, queue, timeout=120.0)
        assert summary["computed"] == len(jobs)
        assert summary["reclaimed"] == 1

    def test_live_peer_holding_a_job_times_out_not_spins(
            self, tmp_path, disk_cache):
        """A healthy-but-slow peer's claim is respected until the timeout."""
        jobs = build_graph([gop_profile_spec("IBPB", 4, 4)])
        queue = _fast_queue(tmp_path)
        peer = _fast_queue(tmp_path)
        claim = peer.try_claim(jobs[0].job_id())
        try:
            with pytest.raises(RuntimeError, match="timed out"):
                drain_graph(jobs, queue, timeout=0.5)
        finally:
            claim.release()


class TestReclaimRaces:
    """Reclaim races under injected delays (the chaos-hardening pins)."""

    @pytest.fixture(autouse=True)
    def _no_leftover_faults(self):
        from repro.sim import faults

        faults.install(None)
        yield
        faults.install(None)

    def test_two_workers_racing_one_stale_lock(self, tmp_path, disk_cache):
        """Exactly one racer reclaims; the loser's unlink miss is benign,
        and the follow-up claim race also has exactly one winner."""
        import threading

        from repro.sim import faults

        queue_a = _fast_queue(tmp_path)
        queue_b = _fast_queue(tmp_path)
        dead = queue_a.try_claim("job-1")
        dead._stop.set()
        dead._thread.join()
        old = time.time() - 10.0
        os.utime(dead.path, (old, old))
        # Injected claim delays widen the race window without changing
        # the invariant.
        faults.install("claim:delay:1.0:0.01@seed=0")
        reclaims: dict[str, list] = {}
        claims: dict[str, object] = {}
        barrier = threading.Barrier(2)

        def race(name, queue):
            barrier.wait()
            reclaims[name] = queue.reclaim_stale()
            claims[name] = queue.try_claim("job-1")

        threads = [threading.Thread(target=race, args=(n, q))
                   for n, q in (("a", queue_a), ("b", queue_b))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert sorted(reclaims["a"] + reclaims["b"]) in ([], ["job-1"])
        winners = [c for c in claims.values() if c is not None]
        assert len(winners) == 1  # O_EXCL: the claim race has one winner
        winners[0].release()
        assert not queue_a.is_claimed("job-1")

    def test_late_spill_after_reclaim_does_not_corrupt_winner(
            self, tmp_path, disk_cache):
        """A reclaimed worker finishing late rewrites the winner's
        artifact with byte-identical content through an atomic rename —
        concurrent readers always decode a complete spill."""
        import threading

        from repro.sim.runner import TraceCache

        key = ("gop-profile", "race-artifact")
        value = {"rows": list(range(64)), "deterministic": True}
        cache_dir = disk_cache.cache_dir
        winner = TraceCache(cache_dir=cache_dir)
        loser = TraceCache(cache_dir=cache_dir)
        stop = threading.Event()
        bad: list[object] = []

        def reader():
            while not stop.is_set():
                probe = TraceCache(cache_dir=cache_dir)
                seen = probe.peek(key)
                if seen is not None and seen != value:
                    bad.append(seen)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(30):
                winner.put(key, value)   # the reclaiming winner spills
                loser.put(key, value)    # the stalled loser spills late
        finally:
            stop.set()
            thread.join(timeout=30.0)
        assert bad == []
        probe = TraceCache(cache_dir=cache_dir)
        assert probe.peek(key) == value


class TestTableDrain:
    def test_drain_covers_ablation_and_extra_tables(self, tmp_path,
                                                    disk_cache):
        """Family tables drain like any artifact and render identically."""
        from repro.experiments.ablations import run_ablation
        from repro.experiments.extras import run_extra

        # Serial reference with the cache detached, so nothing leaks in.
        TRACE_CACHE.set_cache_dir(None)
        reference = (run_ablation("cache-size", quick=True).to_text(),
                     run_extra("storage", quick=True).to_text())
        TRACE_CACHE.clear()
        TRACE_CACHE.set_cache_dir(tmp_path / "cache")

        jobs = build_graph([ablation_table_spec("cache-size", True),
                            extra_table_spec("storage", True)])
        assert [j.kind for j in jobs] == ["profile", "profile"]
        summary = drain_graph(jobs, _fast_queue(tmp_path), timeout=120.0)
        assert summary["computed"] == len(jobs)
        before = sum(disk_cache.miss_kinds.values())
        rendered = (run_ablation("cache-size", quick=True).to_text(),
                    run_extra("storage", quick=True).to_text())
        assert rendered == reference
        assert sum(disk_cache.miss_kinds.values()) == before


class TestTwoWorkerDeterminism:
    def test_two_processes_drain_one_graph_byte_identical(
            self, tmp_path, disk_cache):
        """Two cooperating workers ⇒ drivers render byte-identical tables."""
        from repro.experiments.registry import run_experiment, suite_specs

        experiment_ids = ("fig13", "fig16", "fig19")
        # Serial reference, computed with the cache detached so nothing
        # of it leaks into the distributed run.
        TRACE_CACHE.set_cache_dir(None)
        reference = {
            eid: run_experiment(eid, quick=True).to_text()
            for eid in experiment_ids
        }
        TRACE_CACHE.clear()
        TRACE_CACHE.set_cache_dir(tmp_path / "cache")

        jobs = build_graph(suite_specs(experiment_ids, quick=True))
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_drain_worker,
                        args=(jobs, str(tmp_path / "cache"), f"w{i}"))
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=300.0)
            assert worker.exitcode == 0
        # Every artifact must now be on disk; the parent never computed.
        for job in jobs:
            assert disk_cache.has_spill(job.key)

        before = dict(disk_cache.miss_kinds)
        rendered = {
            eid: run_experiment(eid, quick=True).to_text()
            for eid in experiment_ids
        }
        assert rendered == reference
        assert disk_cache.miss_kinds.get("trace", 0) == before.get("trace", 0)
        assert disk_cache.miss_kinds.get("profile", 0) == before.get("profile", 0)
        assert disk_cache.miss_kinds.get("sweep", 0) == before.get("sweep", 0)
