"""Fault-injection layer overhead pins.

The chaos layer's contract is that it costs nothing when disabled: the
``maybe_fault`` hot path is a single module-global ``None`` check, and a
drain with no plan installed must run at the same speed as one built
before the layer existed.  Both properties get a recorded number here so
the bench-trend gate catches an accidental slow path (say, an
unconditional spec parse or env lookup per call).
"""

from __future__ import annotations

from repro.sim import faults
from repro.sim.scheduler import dnn_spec, graph_spec

_QUICK_SPECS = (
    dnn_spec("AlexNet", "Cloud"),
    dnn_spec("AlexNet", "Edge"),
    dnn_spec("DLRM", "Cloud"),
    graph_spec("google-plus", "PR", iterations=2, scale_divisor=256),
)


def test_faults_disabled_hot_path(benchmark):
    """A million ``maybe_fault`` probes with no plan installed."""
    faults.install(None)
    assert faults.active_plan() is None

    def probe_loop():
        probe = faults.maybe_fault
        for n in range(1_000_000):
            probe("compute", "bench-job", attempt=n)

    benchmark(probe_loop)


def test_faults_disabled_warm_rerun(benchmark, disk_cache):
    """Warm quick-suite rerun with the fault layer explicitly disabled —
    directly comparable to the scheduler warm-rerun number: the layer
    being linked in must not tax the cache/queue/compute seams."""
    faults.install(None)
    for spec in _QUICK_SPECS:  # cold pass fills both tiers
        spec.fetch()

    def warm_rerun():
        disk_cache.clear()  # fresh process: memory tier gone
        return [spec.fetch() for spec in _QUICK_SPECS]

    benchmark(warm_rerun)
    assert disk_cache.disk_hits == len(_QUICK_SPECS)  # every sweep restored
    assert disk_cache.misses == 0  # nothing priced
