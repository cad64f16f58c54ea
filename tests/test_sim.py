"""Performance model and workload runner."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import MHZ, MIB
from repro.core.access import (
    AccessBatch,
    AccessKind,
    DataClass,
    Phase,
    Trace,
    TraceBuilder,
    read,
    write,
)
from repro.core.schemes import NoProtection, make_baseline, make_mgx
from repro.dram.model import DramConfig, DramModel
from repro.sim.perf import PerfConfig, PerformanceModel, SimResult
from repro.sim.runner import SCHEMES, dnn_sweep, graph_sweep


def _model(channels=4, crypto=0.97):
    return PerformanceModel(
        DramModel(DramConfig(channels=channels)),
        PerfConfig(accel_freq_hz=800 * MHZ, crypto_efficiency=crypto),
    )


class TestPerformanceModel:
    def test_compute_bound_phase_hides_memory(self):
        model = _model()
        phases = [Phase("p", compute_cycles=10**9,
                        accesses=[read(0, 1 * MIB)])]
        np_result = model.run(Trace.from_phases(phases), NoProtection())
        bp_result = model.run(Trace.from_phases(phases), make_baseline(256 * MIB))
        assert bp_result.total_cycles == np_result.total_cycles == 10**9

    def test_memory_bound_phase_exposes_overhead(self):
        model = _model()
        phases = [Phase("p", compute_cycles=0,
                        accesses=[read(0, 16 * MIB, DataClass.FEATURE)])]
        np_result = model.run(Trace.from_phases(phases), NoProtection())
        bp_result = model.run(Trace.from_phases(phases), make_baseline(256 * MIB))
        assert bp_result.total_cycles > 1.2 * np_result.total_cycles

    def test_crypto_engine_floor(self):
        """With negligible metadata, MGX still pays the Enc/IV engine's
        throughput tax on memory-bound phases — the paper's residual
        few percent."""
        model = _model(crypto=0.97)
        phases = [Phase("p", compute_cycles=0,
                        accesses=[read(0, 16 * MIB, DataClass.FEATURE)])]
        np_result = model.run(Trace.from_phases(phases), NoProtection())
        mgx_result = model.run(Trace.from_phases(phases), make_mgx(256 * MIB))
        ratio = mgx_result.total_cycles / np_result.total_cycles
        assert 1.02 < ratio < 1.05

    def test_crypto_disabled_at_unity(self):
        model = _model(crypto=1.0)
        phases = [Phase("p", compute_cycles=0,
                        accesses=[read(0, 16 * MIB, DataClass.FEATURE)])]
        np_result = model.run(Trace.from_phases(phases), NoProtection())
        mgx_result = model.run(Trace.from_phases(phases), make_mgx(256 * MIB))
        assert mgx_result.total_cycles / np_result.total_cycles < 1.02

    def test_phase_results_recorded(self):
        model = _model()
        phases = [
            Phase("a", compute_cycles=10**7, accesses=[read(0, 64)]),
            Phase("b", compute_cycles=0, accesses=[read(0, 1 * MIB)]),
        ]
        result = model.run(Trace.from_phases(phases),
                           NoProtection(), keep_phase_results=True)
        assert len(result.phase_results) == 2
        assert not result.phase_results[0].memory_bound
        assert result.phase_results[1].memory_bound

    def test_normalization(self):
        base = SimResult(scheme="NP", total_cycles=100.0, traffic=None)
        other = SimResult(scheme="BP", total_cycles=130.0, traffic=None)
        assert other.normalized_to(base) == pytest.approx(1.3)

    def test_normalize_zero_baseline_rejected(self):
        base = SimResult(scheme="NP", total_cycles=0.0, traffic=None)
        with pytest.raises(ConfigError):
            base.normalized_to(base)

    def test_perf_config_validation(self):
        with pytest.raises(ConfigError):
            PerfConfig(accel_freq_hz=0)
        with pytest.raises(ConfigError):
            PerfConfig(accel_freq_hz=1e9, crypto_efficiency=0.1)

    @pytest.mark.parametrize("freq", [float("nan"), float("inf")])
    def test_perf_config_rejects_non_finite_frequency(self, freq):
        with pytest.raises(ConfigError):
            PerfConfig(accel_freq_hz=freq)

    def test_phase_table_mismatch_rejected(self):
        """Names, compute cycles and offsets must describe the same
        phases, and the offsets must rise from 0 to the access count."""
        import numpy as np

        batch = AccessBatch.from_accesses([read(i * 4096, 4096)
                                           for i in range(3)])
        offsets = np.array([0, 1, 2, 3])
        with pytest.raises(ConfigError, match="phase table mismatch"):
            Trace(["p0", "p1"], [1.0, 1.0, 1.0], offsets, batch)
        with pytest.raises(ConfigError, match="phase table mismatch"):
            Trace(["p0", "p1", "p2"], [1.0] * 3, offsets[:3], batch)
        for bad in ([1, 2, 2, 3], [0, 1, 2, 2], [0, 2, 1, 3]):
            with pytest.raises(ConfigError, match="must rise from 0"):
                Trace(["p0", "p1", "p2"], [1.0] * 3, np.array(bad), batch)
        trace = Trace(["p0", "p1", "p2"], [100.0] * 3, offsets, batch)
        assert _model().run(trace, NoProtection()).traffic.total_bytes \
            == 3 * 4096

    @pytest.mark.parametrize("cycles", [float("nan"), float("inf"), -1e9, -1])
    def test_bad_compute_cycles_rejected(self, cycles):
        """Compute cycles must be finite and non-negative wherever a
        trace is built: before, a NaN phase priced to NaN total cycles
        and a negative one was accepted silently."""
        with pytest.raises(ConfigError, match="compute cycles"):
            Trace.from_phases([Phase("p", cycles, [read(0, 64)])])
        builder = TraceBuilder()
        builder.access(0, 64, AccessKind.READ)
        builder.end_phase("p", cycles)
        with pytest.raises(ConfigError, match="compute cycles"):
            builder.build()

    def test_zero_phase_trace_prices_only_the_tail(self):
        trace = Trace.from_phases([])
        assert trace.total_accesses == 0 and trace.offsets.tolist() == [0]
        result = _model().run(trace, make_baseline(256 * MIB),
                              keep_phase_results=True)
        assert result.total_cycles == 0.0 and result.phase_results == []

    def test_total_cycles_summed_in_phase_order(self):
        """``total_cycles`` is the float sum of the phases' cycles in
        phase order — pairwise summation (``np.sum``) rounds differently
        on this trace."""
        import random

        import numpy as np

        rng = random.Random(5)
        phases = [
            Phase(f"p{i}", rng.uniform(0.0, 1e6),
                  [read(rng.randrange(0, 255) * MIB, rng.randint(1, MIB))])
            for i in range(10_000)
        ]
        model = _model()
        result = model.run(Trace.from_phases(phases),
                           make_mgx(256 * MIB), keep_phase_results=True)
        cycles = [p.cycles for p in result.phase_results]
        expected = 0.0
        for value in cycles:
            expected += value
        tail = model.run(Trace.from_phases([]), make_mgx(256 * MIB)).total_cycles
        assert tail == 0.0
        assert result.total_cycles == expected
        assert float(np.sum(cycles)) != expected  # the trace discriminates
        assert all(type(p.memory_cycles) is float for p in result.phase_results)
        assert type(result.total_cycles) is float

    def test_run_resets_scheme_state(self):
        model = _model()
        scheme = make_baseline(256 * MIB)
        phases = [Phase("p", 0.0, [write(0, 1 * MIB, DataClass.FEATURE)])]
        first = model.run(Trace.from_phases(phases), scheme)
        second = model.run(Trace.from_phases(phases), scheme)
        assert second.total_cycles == pytest.approx(first.total_cycles)


class TestSweeps:
    @pytest.fixture(scope="class")
    def dnn(self):
        return dnn_sweep("AlexNet", "Cloud")

    def test_all_schemes_present(self, dnn):
        assert set(dnn.results) == set(SCHEMES)

    def test_paper_ordering_time(self, dnn):
        """The paper's central ranking: NP < MGX < MGX_VN < MGX_MAC < BP."""
        t = {s: dnn.normalized_time(s) for s in SCHEMES}
        assert 1.0 == t["NP"] < t["MGX"] < t["MGX_VN"] < t["MGX_MAC"] < t["BP"]

    def test_paper_ordering_traffic(self, dnn):
        t = {s: dnn.traffic_increase(s) for s in SCHEMES}
        assert 1.0 == t["NP"] < t["MGX"] < t["MGX_VN"] < t["MGX_MAC"] < t["BP"]

    def test_overhead_percent(self, dnn):
        assert dnn.overhead_percent("MGX") == pytest.approx(
            100 * (dnn.normalized_time("MGX") - 1), abs=1e-9
        )

    def test_mgx_band(self, dnn):
        """MGX overhead stays in the single digits (paper: ≤ 5%)."""
        assert dnn.overhead_percent("MGX") < 6.0

    def test_bp_band(self, dnn):
        """BP overhead is tens of percent (paper: 23–55% traffic)."""
        assert 15.0 < dnn.overhead_percent("BP") < 60.0

    def test_graph_sweep_ordering(self):
        sweep = graph_sweep("google-plus", "PR", iterations=2, scale_divisor=256)
        t = {s: sweep.normalized_time(s) for s in SCHEMES}
        assert t["NP"] <= t["MGX"] < t["MGX_VN"] <= t["MGX_MAC"] < t["BP"]

    def test_graph_bfs_close_to_pagerank(self):
        pr = graph_sweep("google-plus", "PR", iterations=2, scale_divisor=256)
        bfs = graph_sweep("google-plus", "BFS", iterations=2, scale_divisor=256)
        assert bfs.normalized_time("BP") == pytest.approx(
            pr.normalized_time("BP"), rel=0.05
        )

    def test_spmspv_sweep_runs(self):
        sweep = graph_sweep("google-plus", "SpMSpV", iterations=2,
                            scale_divisor=256)
        assert sweep.normalized_time("BP") > 1.0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            graph_sweep("google-plus", "Dijkstra")

    def test_training_sweep(self):
        sweep = dnn_sweep("AlexNet", "Cloud", training=True)
        assert sweep.normalized_time("BP") > 1.0
        assert sweep.results["NP"].total_traffic_bytes > (
            dnn_sweep("AlexNet", "Cloud").results["NP"].total_traffic_bytes
        )
