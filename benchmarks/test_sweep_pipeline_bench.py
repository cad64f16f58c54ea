"""Benchmarks of the batched sweep pipeline (trace reuse + vectorized pricing).

Times a full five-scheme ResNet-18 sweep with and without the trace
cache, so BENCH_* tracks the pipeline speedup.  The speedups themselves
are asserted through deterministic proxies, not wall-clock ratios: a
cached sweep rebuilds nothing, and batched pricing never falls back to
the seed per-access loop.
"""

from dataclasses import astuple

import numpy as np

from repro.common.units import MIB
from repro.core.access import AccessBatch, AccessKind, DataClass, MemAccess
from repro.core.schemes import ProtectionTraffic, make_mgx
from repro.sim.runner import (
    SCHEMES,
    TRACE_CACHE,
    dnn_sweep,
    dnn_workload,
    sweep_schemes,
)

_PROTECTED = 1024 * MIB


def _large_batch(n: int = 20000, seed: int = 0) -> AccessBatch:
    """A big mixed stream/gather batch (the shape of a production trace)."""
    rng = np.random.default_rng(seed)
    accesses = []
    for i in range(n):
        size = int(rng.integers(64, 64 * 1024))
        address = int(rng.integers(0, _PROTECTED - size))
        kind = AccessKind.WRITE if i % 3 == 0 else AccessKind.READ
        if i % 2 == 0:
            accesses.append(MemAccess(address, size, kind, DataClass.FEATURE))
        else:
            accesses.append(MemAccess(address, size, kind, DataClass.EMBEDDING,
                                      sequential=False, burst_bytes=512,
                                      spread_bytes=64 * MIB))
    return AccessBatch.from_accesses(accesses)


def test_sweep_with_trace_cache(benchmark):
    """Five-scheme ResNet sweep pricing a cached, pre-batched trace."""
    workload = dnn_workload("ResNet", "Cloud")  # cache warmed outside the timer

    def run():
        return sweep_schemes(
            workload.label,
            workload.trace.phases,
            workload.performance_model(),
            workload.protected_bytes,
            batches=workload.trace.batches,
        )

    sweep = benchmark(run)
    assert set(sweep.results) == set(SCHEMES)
    assert sweep.normalized_time("MGX") < sweep.normalized_time("BP")


def test_sweep_without_trace_cache(benchmark):
    """The seed pipeline: regenerate the trace for every sweep."""
    sweep = benchmark(lambda: dnn_sweep("ResNet", "Cloud", use_cache=False))
    assert set(sweep.results) == set(SCHEMES)


def test_trace_cache_speedup():
    """Reusing the cached sweep rebuilds nothing: no new cache misses,
    and the same traffic as regenerating it."""
    dnn_sweep("ResNet", "Cloud")  # warm the cache
    uncached = dnn_sweep("ResNet", "Cloud", use_cache=False)
    misses, hits = TRACE_CACHE.misses, TRACE_CACHE.hits
    cached = dnn_sweep("ResNet", "Cloud")
    assert TRACE_CACHE.misses == misses
    assert TRACE_CACHE.hits > hits
    for name in SCHEMES:
        assert (cached.results[name].traffic.total_bytes
                == uncached.results[name].traffic.total_bytes)


def test_vectorized_pricing_beats_per_access_loop(monkeypatch):
    """MGX batch pricing equals the seed object-at-a-time walk without
    ever taking it: ``price_batch`` makes zero ``process`` calls."""
    batch = _large_batch()
    scheme = make_mgx(_PROTECTED)
    scheme.reset()
    expected = ProtectionTraffic()
    for access in batch.to_accesses():
        expected.merge(scheme.process(access))

    calls = []
    real_process = type(scheme).process

    def counting_process(self, access):
        calls.append(access)
        return real_process(self, access)

    monkeypatch.setattr(type(scheme), "process", counting_process)
    scheme.reset()
    actual = scheme.price_batch(batch)
    assert astuple(actual) == astuple(expected)
    assert calls == []


def test_vectorized_pricing_rate(benchmark):
    """Throughput of the columnar MGX fast path on a 20 K-access batch."""
    batch = _large_batch()
    scheme = make_mgx(_PROTECTED)

    def run():
        scheme.reset()
        return scheme.price_batch(batch).total_bytes

    total = benchmark(run)
    assert total > batch.total_data_bytes
