"""Crypto-engine derivation, storage overhead, and roofline analysis."""

import pytest

from repro.common.errors import ConfigError
from repro.core.access import DataClass, Phase, Trace, read
from repro.core.crypto_engine import CryptoEngineConfig, engine_for_dnn_cloud
from repro.dnn.accelerator import CLOUD, EDGE
from repro.dnn.models import build_model
from repro.dnn.tracegen import DnnTraceGenerator
from repro.dram.model import DramConfig, DramModel
from repro.experiments.storage import run as run_storage
from repro.sim.roofline import analyze
from repro.sim.runner import dnn_sweep


class TestCryptoEngine:
    def test_throughput_scales_with_pipes(self):
        one = CryptoEngineConfig(aes_pipes=1, mac_lanes=1)
        four = CryptoEngineConfig(aes_pipes=4, mac_lanes=4)
        assert four.bytes_per_second == 4 * one.bytes_per_second

    def test_bottleneck_is_slower_unit(self):
        lopsided = CryptoEngineConfig(aes_pipes=8, mac_lanes=2)
        assert lopsided.bytes_per_second == lopsided.mac_bytes_per_second

    def test_cloud_engine_matches_default_efficiency(self):
        """The derivation behind PerfConfig's crypto_efficiency=0.97."""
        engine = engine_for_dnn_cloud()
        efficiency = engine.efficiency_vs(DramConfig(channels=4))
        # 67.2 GB/s engine vs 76.8 GB/s peak ≈ 0.875 of *peak*, which is
        # ≈ 0.97 of *achievable* (stream efficiency × refresh).
        achievable = (
            DramConfig(channels=4).sequential_bytes_per_cycle
            * DramConfig(channels=4).timing.clock_hz
        )
        vs_achievable = engine.bytes_per_second / achievable
        assert 0.92 < vs_achievable < 1.02
        assert efficiency < 1.0

    def test_overprovisioned_engine_is_free(self):
        engine = CryptoEngineConfig(aes_pipes=64, mac_lanes=64, freq_hz=2e9)
        assert engine.efficiency_vs(DramConfig(channels=1)) == 1.0

    def test_verification_latency_positive(self):
        engine = CryptoEngineConfig()
        latency = engine.verification_latency_cycles(512)
        assert latency >= engine.mac_finalize_cycles

    def test_validation(self):
        with pytest.raises(ConfigError):
            CryptoEngineConfig(aes_pipes=0)
        with pytest.raises(ConfigError):
            CryptoEngineConfig().verification_latency_cycles(0)


class TestStorageOverhead:
    @pytest.fixture(scope="class")
    def result(self):
        return run_storage(quick=True)

    def test_bp_loses_over_a_quarter(self, result):
        assert 25.0 < result.summary["BP_pct"] < 29.0

    def test_mgx_under_two_percent(self, result):
        assert result.summary["MGX_pct"] < 2.0

    def test_ordering(self, result):
        assert (result.summary["MGX_pct"] < result.summary["MGX_VN_pct"]
                <= result.summary["BP_pct"])

    def test_mgx_needs_no_onchip_cache(self, result):
        rows = {r["scheme"]: r for r in result.rows}
        assert rows["MGX"]["onchip_bytes"] == 0
        assert rows["BP"]["onchip_bytes"] >= 32 * 1024


class TestRoofline:
    def _report(self, model_name, config):
        trace = DnnTraceGenerator(build_model(model_name), config).inference()
        return analyze(trace.trace, DramModel(config.dram),
                       config.array.freq_hz)

    def test_synthetic_classification(self):
        dram = DramModel(DramConfig(channels=4))
        phases = [
            Phase("mem", compute_cycles=0,
                  accesses=[read(0, 1 << 20, DataClass.FEATURE)]),
            Phase("cpu", compute_cycles=10**9,
                  accesses=[read(0, 64, DataClass.FEATURE)]),
        ]
        report = analyze(Trace.from_phases(phases), dram, accel_freq_hz=800e6)
        assert report.phases[0].memory_bound
        assert not report.phases[1].memory_bound
        assert report.memory_bound_phase_count == 1

    def test_bert_edge_is_compute_bound(self):
        """Explains Fig. 13's smallest Edge overhead."""
        report = self._report("BERT", EDGE)
        assert report.memory_bound_fraction_of_time < 0.4

    def test_bert_cloud_is_memory_bound(self):
        report = self._report("BERT", CLOUD)
        assert report.memory_bound_fraction_of_time > 0.6

    def test_prediction_tracks_simulation(self):
        """The first-order roofline prediction lands near the simulated
        BP overhead (within a few points)."""
        report = self._report("ResNet", CLOUD)
        sweep = dnn_sweep("ResNet", "Cloud")
        predicted = report.predicted_overhead(sweep.traffic_increase("BP"))
        simulated = sweep.normalized_time("BP")
        assert abs(predicted - simulated) < 0.08

    def test_prediction_validates_input(self):
        report = self._report("AlexNet", CLOUD)
        with pytest.raises(ConfigError):
            report.predicted_overhead(0.9)

    def test_intensity_monotone_in_compute(self):
        dram = DramModel(DramConfig(channels=4))
        phases = [
            Phase("a", compute_cycles=100, accesses=[read(0, 4096)]),
            Phase("b", compute_cycles=10_000, accesses=[read(0, 4096)]),
        ]
        report = analyze(Trace.from_phases(phases), dram, accel_freq_hz=800e6)
        assert (report.phases[1].intensity_cycles_per_byte
                > report.phases[0].intensity_cycles_per_byte)
