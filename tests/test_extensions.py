"""Extension features: extra studies, MobileNet, SSSP traces, DRAM latency."""

import pytest

from repro.dnn.accelerator import EDGE
from repro.dnn.layers import ConvLayer
from repro.dnn.models import build_model, mobilenet_v1
from repro.dnn.tracegen import DnnTraceGenerator
from repro.experiments.extras import EXTRAS, run_extra
from repro.graph.generators import uniform_random_graph
from repro.graph.graphlily import GraphAcceleratorConfig, GraphTraceGenerator
from repro.sim.runner import dnn_sweep, graph_sweep


class TestMobileNet:
    def test_builds_with_depthwise_groups(self):
        m = mobilenet_v1()
        depthwise = [
            l for l in m.layers
            if isinstance(l, ConvLayer) and l.groups == l.in_channels and l.groups > 1
        ]
        assert len(depthwise) == 13

    def test_parameter_count(self):
        """MobileNet-v1 has ~4.2 M parameters."""
        params = mobilenet_v1().total_weight_bytes // 2
        assert 3.5e6 < params < 5.0e6

    def test_macs_far_below_vgg(self):
        assert mobilenet_v1().total_macs < build_model("VGG").total_macs / 20

    def test_registered_in_zoo(self):
        assert build_model("MobileNet").name == "MobileNet"

    def test_trace_and_sweep(self):
        trace = DnnTraceGenerator(mobilenet_v1(), EDGE).inference()
        assert trace.trace.total_bytes > 0
        sweep = dnn_sweep("MobileNet", "Edge")
        assert sweep.normalized_time("MGX") < sweep.normalized_time("BP")


class TestSsspTrace:
    def test_sssp_trace_runs(self):
        graph = uniform_random_graph(4096, 32768, seed=3)
        gen = GraphTraceGenerator(graph, GraphAcceleratorConfig())
        trace = gen.sssp_trace(source=0, max_iterations=6)
        assert 1 <= trace.iterations <= 6
        assert trace.trace.total_bytes > 0

    def test_sssp_sweep_matches_pr_shape(self):
        pr = graph_sweep("google-plus", "PR", iterations=3, scale_divisor=256)
        sssp = graph_sweep("google-plus", "SSSP", iterations=3, scale_divisor=256)
        assert sssp.normalized_time("BP") == pytest.approx(
            pr.normalized_time("BP"), rel=0.05
        )


class TestExtraStudies:
    def test_registry(self):
        assert set(EXTRAS) == {"spmspv", "sssp", "batch", "dataflow", "storage"}
        with pytest.raises(KeyError):
            run_extra("nope")

    def test_spmspv_overhead_stays_low(self):
        result = run_extra("spmspv", quick=True)
        assert result.summary["max_MGX"] < 1.10
        for row in result.rows:
            assert row["MGX"] < row["BP"]

    def test_sssp_study(self):
        result = run_extra("sssp", quick=True)
        for row in result.rows:
            assert row["MGX"] < row["BP"]

    def test_batch_overhead_stable(self):
        """Protection overhead is batch-stable: weights amortize but the
        feature traffic (with its higher write-side BP cost) grows in
        step, so the ratio moves only slightly."""
        result = run_extra("batch", quick=True)
        assert abs(
            result.summary["BP_batch_max"] - result.summary["BP_batch1"]
        ) < 0.05
        for row in result.rows:
            assert row["MGX"] < row["BP"]

    def test_dataflow_story_stable(self):
        result = run_extra("dataflow", quick=True)
        for row in result.rows:
            assert row["MGX"] < row["BP"]


class TestDramSingleRequestLatency:
    def test_isolated_read_latency_matches_darwin_constant(self):
        """Cross-validate the Darwin round-trip constant against the
        detailed DRAM model's isolated-read completion time."""
        from repro.dram.controller import DramRequest
        from repro.dram.model import DramModel
        from repro.genome.darwin import DarwinConfig

        model = DramModel(DarwinConfig().dram)
        sim = model.detailed()
        latency_dram_cycles = sim.service([DramRequest(0x12345 * 64)])
        t = model.config.timing
        # An isolated read to an idle bank: activate + CAS + burst.  The
        # Darwin constant adds tRP (row conflict) and controller queueing
        # on top, so it must upper-bound this.
        analytic_floor = t.rcd + t.cl + t.burst_cycles
        darwin_constant = t.rp + t.rcd + t.cl + t.burst_cycles + 20
        assert abs(latency_dram_cycles / analytic_floor - 1.0) < 0.2
        assert latency_dram_cycles < darwin_constant
