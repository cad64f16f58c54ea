"""Benchmarks of the columnar binary trace spill codec.

Times the three legs of the cache plane's trace path — encode, cold
decode and warm mmap load through the disk tier — on a suite-shaped
trace (every quick training workload concatenated), and asserts the
format's two contracts with deterministic proxies rather than
wall-clock ratios: the binary spill is smaller than the trace's JSON
interchange form, and its decode builds zero-copy column views and not
one per-access object.
"""

from __future__ import annotations

import json

import pytest

from repro.core.access import COLUMN_DTYPES, MemAccess, Trace
from repro.sim.runner import dnn_workload
from repro.sim.spillfmt import decode_trace, encode_trace
from repro.sim.tracefile import phases_to_doc


@pytest.fixture(scope="module")
def suite_trace() -> Trace:
    """One suite-shaped trace: the quick training workloads, concatenated."""
    return Trace.from_phases(
        phase
        for name in ("ResNet", "GoogleNet", "SegNet", "MobileNet", "BERT")
        for phase in dnn_workload(name, "Cloud", training=True,
                                  use_cache=False).trace.to_phases()
    )


def test_spill_encode(benchmark, suite_trace):
    """Vectorized columnar encode; the payload must undercut the JSON
    interchange form of the same phases."""
    payload = benchmark(encode_trace, suite_trace)
    assert len(payload) < len(json.dumps(phases_to_doc(suite_trace.to_phases())))


def _count_mem_accesses(monkeypatch) -> list:
    """Record every ``MemAccess`` constructed from here on."""
    built = []
    real_init = MemAccess.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(MemAccess, "__init__", counting_init)
    return built


def test_spill_decode_cold(benchmark, suite_trace, monkeypatch):
    """Cold decode: read-only column views over the payload and zero
    ``MemAccess`` objects."""
    payload = encode_trace(suite_trace)
    decoded = benchmark(decode_trace, payload)
    assert decoded.total_accesses == suite_trace.total_accesses
    for name, _ in COLUMN_DTYPES:
        column = getattr(decoded.batch, name)
        assert not column.flags.writeable  # a view, not a copy
        assert column.base is not None
    built = _count_mem_accesses(monkeypatch)
    decoded = decode_trace(payload)
    assert decoded.names == suite_trace.names
    assert built == []


def test_spill_warm_mmap_load(benchmark, disk_cache, suite_trace):
    """Warm load through the disk tier: mmap + zero-copy column views."""
    key = ("bench-trace", "spill-warm")
    disk_cache.get_or_build(key, lambda: suite_trace)

    def warm_load():
        disk_cache.clear()  # fresh-process simulation: memory tier gone
        return disk_cache.peek(key)

    loaded = benchmark(warm_load)
    assert loaded is not None
    assert not loaded.batch.address.flags.writeable  # mmap view
    assert loaded.total_accesses == suite_trace.total_accesses
