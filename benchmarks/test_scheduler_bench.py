"""Benchmarks of the sweep scheduler's specs and the trace cache's disk tier.

Records the wall-clock number the PR-2 pipeline is about: a warm
``--cache-dir`` rerun of the quick figure suite, fetched spec by spec
(must price zero traces).  Assertions check the *contract* (zero trace
misses, deterministic results); the timings land in BENCH_*.json for
tracking.
"""

from __future__ import annotations

from repro.sim.runner import dnn_sweep
from repro.sim.scheduler import (
    dnn_spec,
    gact_profile_spec,
    gop_profile_spec,
    graph_spec,
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


def _fetch_all(specs) -> list:
    return [spec.fetch() for spec in specs]


def test_warm_disk_cache_rerun(benchmark, disk_cache):
    """Quick-suite rerun from a warm disk cache: restores, prices nothing."""
    _fetch_all(_QUICK_SPECS)  # cold pass fills both tiers

    def warm_rerun():
        disk_cache.clear()  # simulate a fresh process: memory tier gone
        return _fetch_all(_QUICK_SPECS)

    sweeps = benchmark(warm_rerun)
    assert len(sweeps) == len(_QUICK_SPECS)
    assert disk_cache.disk_hits == len(_QUICK_SPECS)  # every sweep restored
    assert disk_cache.misses == 0  # nothing priced
    assert disk_cache.stats()["trace_misses"] == 0  # zero traces priced


def test_warm_artifact_graph_rerun(benchmark, disk_cache):
    """Full artifact graph (sweeps + functional profiles) from a warm disk
    cache: restores everything, computes nothing."""
    _fetch_all(_QUICK_ARTIFACTS)  # cold pass fills both tiers

    def warm_rerun():
        disk_cache.clear()  # simulate a fresh process: memory tier gone
        return _fetch_all(_QUICK_ARTIFACTS)

    benchmark(warm_rerun)
    assert disk_cache.disk_hits == len(_QUICK_ARTIFACTS)
    assert disk_cache.misses == 0
    assert disk_cache.stats()["trace_misses"] == 0
    assert disk_cache.miss_kinds.get("profile", 0) == 0


def test_prefetched_sweeps_serve_the_drivers(disk_cache):
    """After the specs are fetched, a driver-side sweep is a pure cache hit."""
    _fetch_all(_QUICK_SPECS)
    before = disk_cache.stats()["misses"]
    sweep = dnn_sweep("AlexNet", "Cloud")
    assert disk_cache.stats()["misses"] == before
    assert sweep.normalized_time("MGX") < sweep.normalized_time("BP")
