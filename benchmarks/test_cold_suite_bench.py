"""Benchmark: cold full-suite wall time (reuse-distance engine headline).

The other figure benchmarks run warm (the trace cache carries state
between rounds); this one regenerates *every* quick-mode figure with the
cache disabled, which is exactly the ``--no-cache --jobs 1`` cold path
the reuse-distance LRU engine was built to accelerate.  It feeds the
``bench_trend.py`` CI gate (filter term: ``cold_suite``) so regressions
in the engine, the batched pricing pipeline, or the graph/genome
builders fail the build.
"""

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.sim.runner import TRACE_CACHE


def test_cold_suite_serial_sweep(benchmark):
    """Every figure, serially, from scratch: the cold wall-time gate."""

    def cold_run():
        enabled = TRACE_CACHE.enabled
        TRACE_CACHE.clear()
        TRACE_CACHE.enabled = False
        try:
            return [run_experiment(eid, quick=True) for eid in EXPERIMENTS]
        finally:
            TRACE_CACHE.enabled = enabled

    results = benchmark.pedantic(cold_run, rounds=3, iterations=1,
                                 warmup_rounds=1)
    assert len(results) == len(EXPERIMENTS)
    for result in results:
        assert result.rows
