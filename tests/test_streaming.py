"""Chunk-iterable traces price byte-identically to materialized ones.

``StreamingTrace`` replays deterministic phase generators; the perf
model's session path converts and prices one bounded chunk of phases at
a time.  These tests pin the streamed results — cycles, traffic,
per-scheme — to the batched pipeline across DNN inference/training and
graph workloads, and the generator trace methods to their list-building
counterparts.
"""

from __future__ import annotations

import pytest

from repro.dnn.accelerator import CONFIGS
from repro.dnn.models import build_model
from repro.dnn.tracegen import DnnTraceGenerator
from repro.sim.runner import (
    BatchedTrace,
    StreamingTrace,
    TRACE_CACHE,
    dnn_workload,
    dnn_workload_streaming,
    graph_workload,
    graph_workload_streaming,
    sweep_schemes,
    sweep_schemes_streaming,
)


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch):
    """Streamed/batched comparisons must not share cached sweeps."""
    monkeypatch.setattr(TRACE_CACHE, "enabled", False)


def _assert_sweeps_equal(batched, streamed):
    assert set(batched.results) == set(streamed.results)
    for name in batched.results:
        a, b = batched.results[name], streamed.results[name]
        assert a.total_cycles == b.total_cycles, name
        assert a.traffic == b.traffic, name


def _batched_sweep(workload):
    return sweep_schemes(
        workload.label, workload.trace.phases, workload.performance_model(),
        workload.protected_bytes, batches=workload.trace.batches,
    )


def _streamed_sweep(workload):
    return sweep_schemes_streaming(
        workload.label, workload.trace, workload.performance_model(),
        workload.protected_bytes,
    )


class TestGeneratorPhases:
    def test_iter_inference_matches_inference(self):
        config = CONFIGS["Cloud"]
        phases = list(DnnTraceGenerator(build_model("AlexNet"),
                                        config).iter_inference())
        reference = DnnTraceGenerator(build_model("AlexNet"),
                                      config).inference().phases
        assert [p.name for p in phases] == [p.name for p in reference]
        assert [p.accesses for p in phases] == [p.accesses for p in reference]

    def test_iter_training_matches_training_step(self):
        config = CONFIGS["Cloud"]
        phases = list(DnnTraceGenerator(build_model("AlexNet"),
                                        config).iter_training_step())
        reference = DnnTraceGenerator(build_model("AlexNet"),
                                      config).training_step().phases
        assert [p.name for p in phases] == [p.name for p in reference]
        assert [p.accesses for p in phases] == [p.accesses for p in reference]

    def test_streaming_trace_reiterates(self):
        config = CONFIGS["Cloud"]
        trace = StreamingTrace(
            lambda: DnnTraceGenerator(build_model("AlexNet"),
                                      config).iter_inference()
        )
        first = [p.name for p in trace.iter_phases()]
        second = [p.name for p in trace.iter_phases()]
        assert first == second and first

    def test_batched_trace_iterates_phases(self):
        workload = dnn_workload("AlexNet", "Cloud", use_cache=False)
        assert isinstance(workload.trace, BatchedTrace)
        assert list(workload.trace.iter_phases()) == workload.trace.phases


class TestStreamedEqualsBatched:
    def test_dnn_inference(self):
        _assert_sweeps_equal(
            _batched_sweep(dnn_workload("AlexNet", "Cloud", use_cache=False)),
            _streamed_sweep(dnn_workload_streaming("AlexNet", "Cloud")),
        )

    def test_dnn_training(self):
        _assert_sweeps_equal(
            _batched_sweep(dnn_workload("AlexNet", "Cloud", training=True,
                                        use_cache=False)),
            _streamed_sweep(dnn_workload_streaming("AlexNet", "Cloud",
                                                   training=True)),
        )

    def test_graph_pagerank(self):
        _assert_sweeps_equal(
            _batched_sweep(graph_workload("google-plus", "PR",
                                          scale_divisor=512,
                                          use_cache=False)),
            _streamed_sweep(graph_workload_streaming("google-plus", "PR",
                                                     scale_divisor=512)),
        )

    def test_unknown_graph_algorithm_rejected(self):
        with pytest.raises(ValueError):
            graph_workload_streaming("google-plus", "Dijkstra",
                                     iterations=2, scale_divisor=512)
