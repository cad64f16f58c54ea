"""Deterministic fault injection and the hardening it exercises.

Covers the :mod:`repro.sim.faults` layer itself (spec grammar, seeded
decision determinism, bounded retry/backoff) and the substrate behavior
under injected chaos: poison-job quarantine with transitive dependent
skipping, per-job deadlines converting hangs into stale locks,
corrupt-spill discard-and-rebuild for every artifact kind, native-engine
demotion to the python backend, and the capstone soak — a drain with
faults at every injection point that still converges to byte-identical
artifacts with a deterministic quarantine set.
"""

from __future__ import annotations

import hashlib
import threading
import time
from pathlib import Path

import pytest

from repro.common.errors import ConfigError
from repro.sim import faults
from repro.sim.queue import QUEUE_SUBDIR, WorkQueue, drain_graph
from repro.sim.runner import TRACE_CACHE
from repro.sim.scheduler import (
    build_graph,
    dnn_spec,
    gact_profile_spec,
    gop_profile_spec,
)


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    """Every test starts and ends with injection disabled — and without
    a sticky native-backend demotion leaking into later tests."""
    from repro.core import engine_backend

    faults.install(None)
    engine_backend.clear_demotion()
    yield
    faults.install(None)
    engine_backend.clear_demotion()


def _fast_queue(tmp_path, **overrides) -> WorkQueue:
    options = dict(heartbeat_seconds=0.05, stale_seconds=0.4,
                   poll_seconds=0.02)
    options.update(overrides)
    return WorkQueue(tmp_path / "cache" / QUEUE_SUBDIR, **options)


class TestSpecGrammar:
    def test_full_spec_parses(self):
        plan = faults.parse_spec(
            "spill_read:io:0.05,claim:delay:0.1:0.005,"
            "native_call:crash:0.01@seed=7"
        )
        assert plan.seed == 7
        assert len(plan.rules) == 3
        (claim_rule,) = plan.rules_for("claim")
        assert claim_rule.mode == "delay"
        assert claim_rule.param == 0.005
        assert plan.rules_for("compute") == ()

    def test_empty_disables(self):
        assert faults.parse_spec(None) is None
        assert faults.parse_spec("") is None
        assert faults.parse_spec("   ") is None
        assert faults.parse_spec(" , ") is None

    @pytest.mark.parametrize("bad", [
        "bogus:io:0.5",          # unknown point
        "claim:melt:0.5",        # unknown mode
        "claim:io:lots",         # non-float rate
        "claim:io:1.5",          # rate out of range
        "claim:io:-0.1",         # rate out of range
        "claim:delay:0.5:-1",    # negative param
        "claim:io",              # too few fields
        "claim:io:0.5@sneed=1",  # unknown option
        "claim:io:0.5@seed=x",   # non-integer seed
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            faults.parse_spec(bad)

    def test_install_roundtrip_and_env_pickling(self):
        spec = "compute:crash:0.5@seed=3"
        plan = faults.install(spec)
        assert faults.active_plan() is plan
        assert faults.active_spec() == spec  # picklable for pool workers
        faults.install(None)
        assert faults.active_plan() is None
        assert faults.active_spec() is None


class TestDeterminism:
    def test_decisions_are_pure_functions_of_seed_context_attempt(self):
        a = faults._roll(7, "compute#0", "job-x", 0)
        assert a == faults._roll(7, "compute#0", "job-x", 0)
        assert a != faults._roll(7, "compute#0", "job-x", 1)
        assert a != faults._roll(8, "compute#0", "job-x", 0)
        assert a != faults._roll(7, "compute#0", "job-y", 0)
        assert 0.0 <= a < 1.0

    def test_attempt_pinned_decisions_repeat_across_installs(self):
        """The same (seed, job, attempt) faults identically no matter
        which process/order evaluates it — the quarantine invariant."""
        outcomes = []
        for _ in range(2):
            faults.install("compute:crash:0.5@seed=11")
            row = []
            for attempt in range(6):
                try:
                    faults.maybe_fault("compute", "result-abc", attempt=attempt)
                    row.append(False)
                except faults.InjectedCrash:
                    row.append(True)
            outcomes.append(row)
        assert outcomes[0] == outcomes[1]
        assert True in outcomes[0] and False in outcomes[0]

    def test_counter_based_decisions_advance(self):
        faults.install("spill_read:io:1.0@seed=0")
        with pytest.raises(faults.InjectedIOError):
            faults.maybe_fault("spill_read", "spill-a")
        # rate 1.0: every invocation fires, counter or not
        with pytest.raises(faults.InjectedIOError):
            faults.maybe_fault("spill_read", "spill-a")

    def test_zero_rate_never_fires(self):
        faults.install("compute:crash:0.0@seed=0")
        for attempt in range(64):
            faults.maybe_fault("compute", "job", attempt=attempt)

    def test_backoff_is_bounded_and_deterministic(self):
        delays = [faults.backoff_delay(n, token="t") for n in range(8)]
        assert delays == [faults.backoff_delay(n, token="t") for n in range(8)]
        for n, delay in enumerate(delays):
            step = min(faults.RETRY_MAX_SECONDS,
                       faults.RETRY_BASE_SECONDS * 2.0**n)
            assert 0.5 * step <= delay <= step
        assert delays != [faults.backoff_delay(n, token="u") for n in range(8)]


class TestRetries:
    def test_transient_failure_retries_to_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        assert faults.call_with_retries(flaky, "claim", "job") == "ok"
        assert len(calls) == 3

    def test_no_retry_exceptions_propagate_immediately(self):
        calls = []

        def held():
            calls.append(1)
            raise FileExistsError("lock held")

        with pytest.raises(FileExistsError):
            faults.call_with_retries(held, "claim", "job",
                                     no_retry=(FileExistsError,))
        assert len(calls) == 1

    def test_exhausted_retries_raise_last_error(self):
        def always():
            raise OSError("still broken")

        with pytest.raises(OSError, match="still broken"):
            faults.call_with_retries(always, "release", "job", attempts=3)

    def test_injected_io_is_transient_under_retries(self):
        """A rate-1-for-a-while injected fault resolves within the retry
        budget because retries advance the decision counter."""
        faults.install("claim:io:0.5@seed=1")
        # With four attempts the chance all four draws fire is tiny; the
        # fixed seed makes it a deterministic pass, not a flake.
        assert faults.call_with_retries(lambda: "ok", "claim", "job-r") == "ok"

    def test_disabled_layer_is_inert(self):
        assert faults.active_plan() is None
        faults.maybe_fault("compute", "anything", attempt=0)
        assert faults.call_with_retries(lambda: 42, "claim", "x") == 42


class TestQuarantine:
    def test_poisoned_job_quarantines_and_drain_completes(self, tmp_path,
                                                          disk_cache):
        faults.install("compute:crash:1.0@seed=1")
        jobs = build_graph([gop_profile_spec("IBPB", 4, 4)])
        queue = _fast_queue(tmp_path, quarantine_after=2)
        summary = drain_graph(jobs, queue, timeout=60.0)
        assert summary["computed"] == 0
        assert summary["failures"] == 2
        assert summary["quarantined"] == [jobs[0].job_id()]
        assert queue.is_quarantined(jobs[0].job_id())
        assert not disk_cache.has_spill(jobs[0].key)
        # The attempt record is durable: a fresh drain over the same
        # queue dir sees the quarantine immediately, zero new failures.
        again = drain_graph(jobs, _fast_queue(tmp_path, quarantine_after=2),
                            timeout=60.0)
        assert again["failures"] == 0
        assert again["quarantined"] == [jobs[0].job_id()]

    def test_dependents_of_quarantined_job_are_skipped(self, tmp_path,
                                                       disk_cache):
        """A poisoned trace drops its results and sweep transitively —
        the drain completes instead of waiting on artifacts that will
        never exist."""
        faults.install("compute:crash:1.0@seed=1")
        jobs = build_graph([dnn_spec("AlexNet", "Cloud")])
        queue = _fast_queue(tmp_path, quarantine_after=2)
        summary = drain_graph(jobs, queue, timeout=60.0)
        trace_job = jobs[0]
        assert trace_job.kind == "trace"
        assert summary["quarantined"] == [trace_job.job_id()]
        assert sorted(summary["skipped"]) == sorted(
            job.job_id() for job in jobs[1:]
        )

    def test_success_clears_attempt_records(self, tmp_path, disk_cache):
        """A transient failure's record is cleared on the eventual
        success, so stale failures never poison later drains."""
        faults.install("compute:crash:0.5@seed=11")
        jobs = build_graph([gop_profile_spec("IBPB", 4, 4)])
        job_id = jobs[0].job_id()
        # seed 11 fires at attempt 0 and clears by attempt 2 (pinned by
        # TestDeterminism above); quarantine_after=3 leaves retry room.
        fires = [faults._roll(11, "compute#0", job_id, n) < 0.5
                 for n in range(3)]
        assume_transient = not all(fires)
        assert assume_transient, "pick a different seed for this test"
        queue = _fast_queue(tmp_path, quarantine_after=3)
        summary = drain_graph(jobs, queue, timeout=60.0)
        assert summary["computed"] == 1
        assert summary["quarantined"] == []
        assert queue.failure_count(job_id) == 0
        assert disk_cache.has_spill(jobs[0].key)

    def test_attempt_counts_census(self, tmp_path):
        queue = _fast_queue(tmp_path, quarantine_after=2)
        queue.record_failure("profile-abc", RuntimeError("boom\nline2"))
        queue.record_failure("profile-abc", RuntimeError("again"))
        queue.record_failure("trace-def", OSError("io"))
        from repro.sim.queue import attempt_counts

        assert attempt_counts(queue.queue_dir) == {
            "profile-abc": 2, "trace-def": 1,
        }
        assert queue.quarantined_jobs() == ["profile-abc"]
        assert queue.is_quarantined("profile-abc")
        assert not queue.is_quarantined("trace-def")
        recorded = queue.attempts_path("profile-abc").read_text()
        assert "boom line2" in recorded  # newlines flattened
        queue.clear_failures("profile-abc")
        assert queue.failure_count("profile-abc") == 0


class TestDeadlines:
    def test_deadline_converts_hang_into_stale_lock(self, tmp_path,
                                                    disk_cache):
        """A claim past its job deadline stops heartbeating voluntarily,
        so peers reclaim it like a dead worker's lock."""
        queue = _fast_queue(tmp_path, stale_seconds=0.3,
                            job_deadline_seconds=0.1)
        claim = queue.try_claim("job-hang")
        assert claim is not None
        deadline = time.monotonic() + 10.0
        while not claim.expired() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert claim.expired()
        # Heartbeat has stopped: the mtime ages out and a peer reclaims.
        deadline = time.monotonic() + 10.0
        reclaimed: list[str] = []
        while not reclaimed and time.monotonic() < deadline:
            time.sleep(0.05)
            reclaimed = queue.reclaim_stale()
        assert reclaimed == ["job-hang"]
        claim.release()  # the hung owner resuming later is harmless

    def test_release_returns_promptly_under_injected_delay(
            self, tmp_path, disk_cache, monkeypatch):
        """Injected heartbeat delays wait on the stop event, so release
        ends the beat thread instead of waiting the delay out.

        The delay is an hour, far longer than the join timeout, so a
        beat thread still alive after ``release`` is a delay that
        ignored the stop event — no wall-clock bound involved.
        """
        faults.install("heartbeat:delay:1.0:3600@seed=0")  # every beat
        entered = threading.Event()
        maybe_fault = faults.maybe_fault

        def observed(point, context, *args, **kwargs):
            if point == "heartbeat":
                entered.set()  # the beat is entering its injected delay
            return maybe_fault(point, context, *args, **kwargs)

        monkeypatch.setattr(faults, "maybe_fault", observed)
        queue = _fast_queue(tmp_path, heartbeat_seconds=0.05)
        claim = queue.try_claim("job-slow")
        assert entered.wait(timeout=30.0)
        claim.release(timeout=30.0)
        assert not claim._thread.is_alive()
        assert not queue.is_claimed("job-slow")


class TestCorruptSpills:
    @pytest.mark.parametrize("kind,key,value", [
        ("result", ("dnn-result", "fake", "NP"), None),  # built below
        ("sweep", ("dnn-sweep", "fake"), None),
        ("profile", ("gop-profile", "fake"), {"cycles": 123, "rows": [1, 2]}),
    ])
    def test_corrupt_spill_discarded_and_rebuilt(self, disk_cache, kind,
                                                 key, value):
        """A digest-mismatch spill of any JSON kind is deleted on load —
        has() stops advertising it — and the rebuild respills over it."""
        if value is None:
            from repro.core.schemes.base import ProtectionTraffic
            from repro.sim.perf import SimResult
            from repro.sim.runner import SchemeSweep

            result = SimResult(scheme="NP", total_cycles=1.0,
                               traffic=ProtectionTraffic())
            value = (result if kind == "result"
                     else SchemeSweep(workload="fake",
                                      results={"NP": result}))
        disk_cache.put(key, value)
        path = disk_cache._disk_path(key)
        text = path.read_text()
        corrupted = text.replace("{", "{ ", 1)  # payload changes, digest kept
        path.write_text(corrupted)
        disk_cache.clear()  # drop the memory tier: force a disk load
        assert disk_cache.has_spill(key)  # existence check is fooled...
        assert disk_cache.peek(key) is None  # ...but the load rejects it
        assert not path.exists()  # and deletes the provably-corrupt file
        assert disk_cache.corrupt_dropped == 1
        assert not disk_cache.has_spill(key)
        disk_cache.put(key, value)  # rebuild path respills cleanly
        disk_cache.clear()
        assert disk_cache.peek(key) is not None

    def test_spill_write_faults_are_transient_under_retries(self, disk_cache):
        faults.install("spill_write:io:0.5@seed=4")
        key = ("gop-profile", "retry-check")
        disk_cache.put(key, {"ok": 1})
        # Retries inside _disk_store absorb the injected failures for
        # this seed; the spill must exist and decode.
        disk_cache.clear()
        assert disk_cache.peek(key) == {"ok": 1}

    def test_exhausted_spill_write_leaves_no_tmp_litter(self, disk_cache):
        faults.install("spill_write:io:1.0@seed=0")
        key = ("gop-profile", "never-lands")
        disk_cache.put(key, {"ok": 1})
        assert not disk_cache.has_spill(key)
        assert list(disk_cache.cache_dir.glob("*.tmp.*")) == []
        # The memory tier still has the value: the disk tier is
        # best-effort by contract.
        assert disk_cache.peek(key) == {"ok": 1}


class TestColdMisses:
    def test_cold_miss_never_backs_off(self, disk_cache, monkeypatch):
        """A spill that does not exist is a miss, not a transient read
        error: a cold lookup builds at once, with no backoff."""
        delays = []

        def backoff(attempt, token="", **kwargs):
            delays.append(token)
            return 0.0

        monkeypatch.setattr(faults, "backoff_delay", backoff)
        built = disk_cache.get_or_build(("gop-profile", "cold"),
                                        lambda: {"ok": 1})
        assert built == {"ok": 1}
        # A trace key tries its .bin spill, then the legacy .json name.
        assert disk_cache.peek(("dnn-trace", "cold")) is None
        assert delays == []

    def test_injected_read_faults_still_retry(self, disk_cache, monkeypatch):
        key = ("gop-profile", "flaky")
        disk_cache.put(key, {"ok": 1})
        disk_cache.clear()
        faults.install("spill_read:io:1.0@seed=0")
        attempts = []
        real_maybe_fault = faults.maybe_fault

        def counting(point, context, attempt=None, event=None):
            attempts.append(point)
            real_maybe_fault(point, context, attempt, event)

        monkeypatch.setattr(faults, "maybe_fault", counting)
        monkeypatch.setattr(faults, "backoff_delay",
                            lambda attempt, token="", **kwargs: 0.0)
        assert disk_cache.peek(key) is None  # every attempt faulted
        assert attempts == ["spill_read"] * faults.RETRY_ATTEMPTS


class TestNativeDemotion:
    def test_auto_session_demotes_to_python_once(self, monkeypatch, capsys):
        from repro.core import engine_backend

        if not engine_backend.native_available():
            pytest.skip("native backend unavailable (no C compiler)")
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        engine_backend.clear_demotion()
        try:
            faults.install("native_call:crash:1.0@seed=0")
            from repro.core.lru_engine import LruEngine

            engine = engine_backend.create_engine(16)
            assert isinstance(engine, LruEngine)  # demoted this call
            assert engine_backend.demotion_reason() is not None
            assert engine_backend.resolve_backend() == "python"
            assert engine_backend.active_backend() == "python"
            engine_backend.create_engine(16)  # second call: still python
            warnings = capsys.readouterr().err
            assert warnings.count("native engine faulted") == 1
        finally:
            engine_backend.clear_demotion()

    def test_forced_native_propagates_the_fault(self, monkeypatch):
        from repro.core import engine_backend

        if not engine_backend.native_available():
            pytest.skip("native backend unavailable (no C compiler)")
        monkeypatch.setenv("REPRO_ENGINE", "native")
        engine_backend.clear_demotion()
        try:
            faults.install("native_call:crash:1.0@seed=0")
            with pytest.raises(faults.InjectedCrash):
                engine_backend.create_engine(16)
            assert engine_backend.demotion_reason() is None
        finally:
            engine_backend.clear_demotion()

    def test_demoted_tables_stay_byte_identical(self, monkeypatch,
                                                fresh_cache):
        """Degraded mode degrades speed only: a demoted session's sweep
        equals the python backend's (both pinned to the reference)."""
        from dataclasses import astuple

        from repro.core import engine_backend
        from repro.sim.runner import SCHEMES, dnn_sweep

        if not engine_backend.native_available():
            pytest.skip("native backend unavailable (no C compiler)")
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        engine_backend.clear_demotion()
        try:
            engine_backend.demote_to_python("test: simulated native fault")
            demoted = dnn_sweep("AlexNet", "Cloud", use_cache=False)
        finally:
            engine_backend.clear_demotion()
        monkeypatch.setenv("REPRO_ENGINE", "python")
        reference = dnn_sweep("AlexNet", "Cloud", use_cache=False)
        for name in SCHEMES:
            assert (demoted.results[name].total_cycles
                    == reference.results[name].total_cycles), name
            assert astuple(demoted.results[name].traffic) == astuple(
                reference.results[name].traffic
            ), name


#: Chaos plan for the soak: every injection point fires, at rates low
#: enough (given the fixed seed) that every job converges before the
#: quarantine threshold.  Validated deterministic-by-seed: changing any
#: rate or the seed requires re-checking the quarantine set is empty.
SOAK_SPEC = ("claim:delay:0.2:0.002,claim:io:0.1,heartbeat:io:0.2,"
             "release:io:0.2,spill_read:io:0.15,spill_write:io:0.15,"
             "compute:crash:0.25,native_call:crash:0.5@seed=5")


def _artifact_digests(cache_dir: Path) -> dict[str, str]:
    digests = {}
    for pattern in ("*.bin", "*.json"):
        for path in cache_dir.glob(pattern):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class TestChaosSoak:
    def test_drain_under_full_chaos_is_byte_identical(self, tmp_path):
        """The capstone: a drain with faults at every point converges to
        the same artifact bytes as a clean drain, without deadlocking
        and with an empty (hence deterministic) quarantine set."""
        saved = TRACE_CACHE.cache_dir
        specs = [
            dnn_spec("AlexNet", "Cloud"),
            gact_profile_spec("chrY", "PacBio", 2),
            gop_profile_spec("IBPB", 8, 8),
        ]
        jobs = build_graph(specs)
        try:
            # Clean reference drain.
            TRACE_CACHE.clear()
            TRACE_CACHE.set_cache_dir(tmp_path / "clean")
            clean = drain_graph(jobs, _fast_queue(tmp_path / "a"),
                                timeout=300.0)
            assert clean["computed"] == len(jobs)
            reference = _artifact_digests(tmp_path / "clean")

            # Chaos drain into a fresh dir.
            faults.install(SOAK_SPEC)
            TRACE_CACHE.clear()
            TRACE_CACHE.set_cache_dir(tmp_path / "chaos")
            chaos_queue = _fast_queue(tmp_path / "b", stale_seconds=0.4)
            summary = drain_graph(jobs, chaos_queue, timeout=300.0)
            faults.install(None)
            assert summary["quarantined"] == []
            assert summary["skipped"] == []
            chaotic = _artifact_digests(tmp_path / "chaos")
            assert chaotic == reference
        finally:
            faults.install(None)
            TRACE_CACHE.set_cache_dir(saved)
            TRACE_CACHE.clear()

    def test_chaos_drain_is_repeatable(self, tmp_path):
        """Two chaos drains (same seed, fresh dirs) make identical
        fault decisions: same failure count, same artifacts."""
        saved = TRACE_CACHE.cache_dir
        jobs = build_graph([gop_profile_spec("IBPB", 4, 4)])
        outcomes = []
        try:
            for run in ("one", "two"):
                faults.install("compute:crash:0.5@seed=11")
                TRACE_CACHE.clear()
                TRACE_CACHE.set_cache_dir(tmp_path / run)
                summary = drain_graph(jobs, _fast_queue(tmp_path / run),
                                      timeout=60.0)
                faults.install(None)
                outcomes.append(
                    (summary["failures"], summary["quarantined"],
                     sorted(_artifact_digests(tmp_path / run).items()))
                )
            assert outcomes[0] == outcomes[1]
        finally:
            faults.install(None)
            TRACE_CACHE.set_cache_dir(saved)
            TRACE_CACHE.clear()
