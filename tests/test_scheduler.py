"""Sweep scheduler and disk-tier cache: determinism and round trips.

The scheduler's contract is that fan-out is *invisible* in the results:
``run_all(jobs=N)`` — a queue drain — must render byte-identical figure
tables to the serial run, fetched sweeps must land under the exact
cache keys the drivers use, and a sweep restored from the disk tier
must compare equal — float for float — to the one that was spilled.
"""

from __future__ import annotations

from dataclasses import astuple

from repro.sim.runner import SCHEMES, dnn_sweep, graph_sweep
from repro.sim.scheduler import build_graph, dnn_spec, graph_spec


def _sweeps_equal(a, b) -> None:
    assert set(a.results) == set(b.results)
    for name in a.results:
        assert a.results[name].total_cycles == b.results[name].total_cycles, name
        assert astuple(a.results[name].traffic) == astuple(b.results[name].traffic), name


class TestSweepSpecKeys:
    def test_dnn_spec_key_matches_driver_key(self, fresh_cache):
        spec = dnn_spec("AlexNet", "Cloud")
        spec.fetch()
        sweep = dnn_sweep("AlexNet", "Cloud")
        assert fresh_cache.peek(spec.sweep_key()) is sweep

    def test_graph_spec_key_matches_driver_key(self, fresh_cache):
        spec = graph_spec("google-plus", "PR", iterations=2, scale_divisor=256)
        spec.fetch()
        sweep = graph_sweep("google-plus", "PR", iterations=2, scale_divisor=256)
        assert fresh_cache.peek(spec.sweep_key()) is sweep

    def test_equal_graph_configs_share_cache_entries(self, fresh_cache):
        """Separately-constructed equal configs hit the same entries."""
        from repro.graph.graphlily import GraphAcceleratorConfig

        first = graph_sweep("google-plus", "PR", iterations=2, scale_divisor=256,
                            config=GraphAcceleratorConfig())
        again = graph_sweep("google-plus", "PR", iterations=2, scale_divisor=256,
                            config=GraphAcceleratorConfig())
        assert again is first
        assert (GraphAcceleratorConfig().cache_key()
                == GraphAcceleratorConfig().cache_key())

    def test_specs_dedup_in_prefetch(self, fresh_cache):
        """Repeated specs expand to one workload's jobs, priced once."""
        spec = dnn_spec("AlexNet", "Cloud")
        graph = build_graph([spec, spec, spec])
        assert graph == build_graph([spec])
        assert [job.kind for job in graph].count("sweep") == 1


class TestRunAllDeterminism:
    def test_parallel_run_all_tables_identical_to_serial(self, fresh_cache):
        """run_all(jobs=4) renders byte-identical tables to the serial run."""
        from repro.experiments.registry import run_all

        serial = {eid: result.to_text()
                  for eid, result in run_all(quick=True).items()}
        fresh_cache.clear()
        parallel = {eid: result.to_text()
                    for eid, result in run_all(quick=True, jobs=4).items()}
        assert parallel == serial


class TestDrainSuite:
    """``drain_suite``: where the ``--jobs`` drain runs, and what it
    leaves attached afterwards."""

    def test_no_cache_dir_drains_into_a_removed_temp_dir(self, fresh_cache):
        from repro.experiments.registry import drain_suite

        with drain_suite(["fig19"], True, 2) as summary:
            drain_dir = fresh_cache.cache_dir
            assert drain_dir is not None and fresh_cache.enabled
            assert summary["jobs"] == 1
            assert list(drain_dir.glob("profile-*.json"))
        assert fresh_cache.cache_dir is None
        assert not drain_dir.exists()

    def test_attached_dir_is_drained_in_place(self, disk_cache):
        from repro.experiments.registry import drain_suite

        cache_dir = disk_cache.cache_dir
        with drain_suite(["fig19"], True, 2):
            assert disk_cache.cache_dir == cache_dir
        assert disk_cache.cache_dir == cache_dir
        assert list(cache_dir.glob("profile-*.json"))

    def test_disabled_cache_drains_elsewhere_and_stays_disabled(
            self, disk_cache, monkeypatch):
        from repro.experiments.registry import drain_suite

        cache_dir = disk_cache.cache_dir
        monkeypatch.setattr(disk_cache, "enabled", False)  # --no-cache
        with drain_suite(["fig19"], True, 2):
            assert disk_cache.enabled
            assert disk_cache.cache_dir != cache_dir
        assert not disk_cache.enabled
        assert disk_cache.cache_dir == cache_dir
        assert not list(cache_dir.glob("*.json"))  # the real dir untouched


class TestDiskTier:
    def test_sweep_spill_and_restore_round_trip(self, disk_cache):
        """Spill, simulate a new process via clear(), restore: same sweep."""
        first = dnn_sweep("AlexNet", "Cloud")
        assert disk_cache.stats()["sweep_misses"] == 1
        disk_cache.clear()  # drop the memory tier; disk files persist
        restored = dnn_sweep("AlexNet", "Cloud")
        stats = disk_cache.stats()
        assert stats["disk_hits"] == 1
        assert stats["trace_misses"] == 0  # the trace was never rebuilt
        assert stats["sweep_misses"] == 0
        assert restored is not first
        _sweeps_equal(restored, first)

    def test_trace_spill_and_restore_round_trip(self, disk_cache):
        from repro.sim.runner import dnn_workload

        workload = dnn_workload("AlexNet", "Cloud")
        disk_cache.clear()
        restored = dnn_workload("AlexNet", "Cloud")
        assert disk_cache.stats()["disk_hits"] == 1
        assert restored.trace is not workload.trace
        original = [a for p in workload.trace.phases for a in p.accesses]
        roundtrip = [a for p in restored.trace.phases for a in p.accesses]
        assert roundtrip == original
        assert [p.name for p in restored.trace.phases] == [
            p.name for p in workload.trace.phases
        ]
        assert [p.compute_cycles for p in restored.trace.phases] == [
            p.compute_cycles for p in workload.trace.phases
        ]

    def test_restored_sweep_renders_identical_tables(self, disk_cache):
        """A disk-restored sweep must produce the same figure numbers."""
        from repro.experiments.registry import run_experiment

        cold = run_experiment("fig13", quick=True).to_text()
        disk_cache.clear()
        warm = run_experiment("fig13", quick=True).to_text()
        assert disk_cache.stats()["trace_misses"] == 0
        assert warm == cold

    def test_corrupt_spill_falls_back_to_rebuild(self, disk_cache):
        dnn_sweep("AlexNet", "Cloud")
        for spill in disk_cache.cache_dir.glob("*.json"):
            spill.write_text("{not json")
        for spill in disk_cache.cache_dir.glob("*.bin"):
            spill.write_bytes(b"NOTMAGIC" + spill.read_bytes()[8:])
        disk_cache.clear()
        sweep = dnn_sweep("AlexNet", "Cloud")  # rebuilt, not crashed
        assert set(sweep.results) == set(SCHEMES)
        assert disk_cache.stats()["sweep_misses"] == 1

    def test_sweep_codec_round_trip_is_exact(self, fresh_cache):
        from repro.experiments.storage import loads_sweep, dumps_sweep

        sweep = dnn_sweep("AlexNet", "Cloud")
        restored = loads_sweep(dumps_sweep(sweep))
        assert restored.workload == sweep.workload
        _sweeps_equal(restored, sweep)


class TestExternalTraceJobs:
    def test_tracefile_evaluate_routes_through_batched_sweep(self, fresh_cache):
        from repro.sim import tracefile

        doc = """
        {"name": "ext", "accel_freq_mhz": 800, "dram_channels": 4,
         "protected_mib": 64,
         "phases": [
           {"name": "p0", "compute_cycles": 1000,
            "accesses": [
              {"address": 0, "size": 1048576, "kind": "read"},
              {"address": 1048576, "size": 524288, "kind": "write"},
              {"address": 0, "size": 65536, "kind": "read",
               "sequential": false, "burst_bytes": 64,
               "spread_bytes": 1048576}
            ]}
         ]}
        """
        trace = tracefile.loads(doc)
        sweep = tracefile.evaluate(trace)
        assert set(sweep.results) == set(SCHEMES)
