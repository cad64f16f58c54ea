"""Micro-benchmarks of the substrates (throughput sanity, not figures)."""

import numpy as np

from repro.common.units import MIB
from repro.core.access import DataClass, read, write
from repro.core.schemes import make_baseline, make_mgx
from repro.crypto.aes_batch import AesBatch
from repro.dram.model import DramConfig, DramModel, TrafficProfile


def test_batch_aes_throughput(benchmark):
    """Byte-sliced AES over 4,096 blocks in one call: the functional
    engines' keystream path (``batch_aes`` in the trend gate's filter)."""
    cipher = AesBatch(bytes(16))
    blocks = np.random.default_rng(0).integers(0, 256, size=(4096, 16),
                                               dtype=np.uint8)
    out = benchmark(cipher.encrypt_blocks, blocks)
    assert out.shape == blocks.shape


def test_mgx_scheme_processing_rate(benchmark):
    """MGX traffic expansion is pure arithmetic per access."""
    scheme = make_mgx(1024 * MIB)
    accesses = [read(i * 4 * MIB % (512 * MIB), 4 * MIB, DataClass.FEATURE)
                for i in range(64)]

    def run():
        scheme.reset()
        total = 0
        for access in accesses:
            total += scheme.process(access).total_bytes
        return total

    total = benchmark(run)
    assert total > 64 * 4 * MIB


def test_baseline_scheme_processing_rate(benchmark):
    """BP pays per-metadata-line cache simulation (flood fast path)."""
    scheme = make_baseline(1024 * MIB)
    accesses = [write(i * 4 * MIB % (512 * MIB), 4 * MIB, DataClass.FEATURE)
                for i in range(64)]

    def run():
        scheme.reset()
        total = 0
        for access in accesses:
            total += scheme.process(access).total_bytes
        total += scheme.finish().total_bytes
        return total

    total = benchmark(run)
    assert total > 64 * 4 * MIB


def test_detailed_dram_request_rate(benchmark):
    """Detailed DDR4 model servicing a 64 K-request random stream."""
    model = DramModel(DramConfig(channels=4))
    rng = np.random.default_rng(3)
    addresses = (rng.integers(0, 1 << 30, size=8192) & ~np.int64(63)).tolist()

    def run():
        from repro.dram.controller import DramRequest

        sim = model.detailed()
        return sim.service([DramRequest(int(a)) for a in addresses])

    cycles = benchmark(run)
    fast = model.cycles_for(TrafficProfile(scattered_bytes=8192 * 64))
    assert abs(cycles / fast - 1) < 0.15
