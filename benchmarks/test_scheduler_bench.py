"""Benchmarks of the sweep scheduler and the trace cache's disk tier.

Records the two wall-clock numbers the PR-2 pipeline is about: a warm
``--cache-dir`` rerun of the quick figure suite (must price zero traces)
and a cross-workload prefetch on the shared pool.  Assertions check the
*contract* (zero trace misses, deterministic results); the timings land
in BENCH_*.json for tracking.
"""

from __future__ import annotations

from repro.sim.runner import dnn_sweep
from repro.sim.scheduler import (
    dnn_spec,
    gact_profile_spec,
    gop_profile_spec,
    graph_spec,
    prefetch_artifacts,
)

_QUICK_SPECS = (
    dnn_spec("AlexNet", "Cloud"),
    dnn_spec("AlexNet", "Edge"),
    dnn_spec("AlexNet", "Cloud", training=True),
    dnn_spec("DLRM", "Cloud"),
    graph_spec("google-plus", "PR", iterations=2, scale_divisor=256),
    graph_spec("google-plus", "BFS", iterations=2, scale_divisor=256),
)

#: The quick sweeps plus the functional-pipeline artifacts (fig16/fig19).
_QUICK_ARTIFACTS = _QUICK_SPECS + (
    gact_profile_spec("chrY", "PacBio", 2),
    gact_profile_spec("chrY", "ONT1D", 2),
    gop_profile_spec("IBPB", 8, 8),
)


def test_warm_disk_cache_rerun(benchmark, disk_cache):
    """Quick-suite rerun from a warm disk cache: restores, prices nothing."""
    prefetch_artifacts(_QUICK_SPECS, jobs=1)  # cold pass fills both tiers

    def warm_rerun():
        disk_cache.clear()  # simulate a fresh process: memory tier gone
        summary = prefetch_artifacts(_QUICK_SPECS, jobs=1)
        return summary

    summary = benchmark(warm_rerun)
    assert summary["cached"] == len(_QUICK_SPECS)
    assert summary["priced"] == 0
    assert disk_cache.stats()["trace_misses"] == 0  # zero traces priced


def test_cross_workload_prefetch_cold(benchmark, disk_cache):
    """Cold cross-workload fan-out of the quick suite (shared pool when
    cores allow, inline otherwise — the recorded number tracks both)."""

    def cold_prefetch():
        disk_cache.clear()
        for pattern in ("*.json", "*.bin"):
            for spill in disk_cache.cache_dir.glob(pattern):
                spill.unlink()
        return prefetch_artifacts(_QUICK_SPECS, jobs=4)

    summary = benchmark(cold_prefetch)
    assert summary["priced"] == len(_QUICK_SPECS)


def test_warm_artifact_graph_rerun(benchmark, disk_cache):
    """Full artifact graph (sweeps + functional profiles) from a warm disk
    cache: restores everything, computes nothing."""
    prefetch_artifacts(_QUICK_ARTIFACTS, jobs=1)  # cold pass fills both tiers

    def warm_rerun():
        disk_cache.clear()  # simulate a fresh process: memory tier gone
        return prefetch_artifacts(_QUICK_ARTIFACTS, jobs=1)

    summary = benchmark(warm_rerun)
    assert summary["cached"] == len(_QUICK_ARTIFACTS)
    assert summary["priced"] == 0
    assert summary["profiles_built"] == 0
    assert disk_cache.stats()["trace_misses"] == 0
    assert disk_cache.miss_kinds.get("profile", 0) == 0


def test_prefetched_sweeps_serve_the_drivers(disk_cache):
    """After a prefetch, a driver-side sweep is a pure cache hit."""
    prefetch_artifacts(_QUICK_SPECS, jobs=1)
    before = disk_cache.stats()["misses"]
    sweep = dnn_sweep("AlexNet", "Cloud")
    assert disk_cache.stats()["misses"] == before
    assert sweep.normalized_time("MGX") < sweep.normalized_time("BP")
