"""Benchmark: warm artifact-graph rerun of the ablations/extras families.

The full-suite coverage counterpart of ``test_scheduler_bench``'s warm
figure-graph number: every ablation and extra study is a table artifact
in the job graph, so a warm ``--cache-dir`` rerun must restore all of
them (and the suite sweeps the extras assemble from) without computing
anything.  Feeds the ``bench_trend.py`` CI gate (filter term:
``tables_graph``).
"""

from __future__ import annotations

from repro.experiments.registry import suite_specs


def test_warm_tables_graph_rerun(benchmark, disk_cache):
    """Ablation/extra tables from a warm disk cache: zero recomputation."""
    specs = list(dict.fromkeys(suite_specs(("ablations", "extras"),
                                           quick=True)))
    for spec in specs:  # cold pass fills both tiers
        spec.fetch()

    def warm_rerun():
        disk_cache.clear()  # simulate a fresh process: memory tier gone
        return [spec.fetch() for spec in specs]

    benchmark(warm_rerun)
    assert disk_cache.disk_hits == len(specs)  # every artifact restored
    assert disk_cache.misses == 0  # nothing priced or rebuilt
    assert disk_cache.stats()["trace_misses"] == 0
    assert disk_cache.miss_kinds.get("profile", 0) == 0
