"""Columnar binary trace spills and the one-format disk tier: a file
in a retired layout is a plain miss that GC sweeps."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access import (
    AccessKind,
    DataClass,
    MemAccess,
    Phase,
    Trace,
)
from repro.sim import gc as cache_gc
from repro.sim import spillfmt
from repro.sim.runner import (
    TraceCache,
    dnn_workload,
    payload_digest,
    spill_filename,
    split_spill_bytes,
    sweep_schemes,
)
from repro.sim.tracefile import phases_to_doc

KEY = ("dnn-trace", "AlexNet", "Cloud", False, 1)


def _trace() -> Trace:
    return dnn_workload("AlexNet", "Cloud", use_cache=False).trace


def _framed(payload: bytes) -> bytes:
    """``payload`` plus the digest trailer every spill ends with."""
    return payload + b"\n#sha256:" + payload_digest(payload).encode() + b"\n"


def _write_legacy_json(cache_dir, trace: Trace):
    """A retired-layout (JSON) trace spill for ``KEY``, validly framed,
    under the ``.bin`` name's stem."""
    legacy = cache_dir / spill_filename(KEY).replace(".bin", ".json")
    doc = {"version": 2, "phases": phases_to_doc(trace.to_phases())}
    legacy.write_bytes(_framed(json.dumps(doc).encode()))
    return legacy


def _phase_lists_equal(a: list[Phase], b: list[Phase]) -> None:
    assert [p.name for p in a] == [p.name for p in b]
    assert [p.compute_cycles for p in a] == [p.compute_cycles for p in b]
    assert [list(p.accesses) for p in a] == [list(p.accesses) for p in b]


# -- Hypothesis round-trip property -----------------------------------------

_access = st.builds(
    MemAccess,
    address=st.integers(min_value=0, max_value=2**40),
    size=st.integers(min_value=1, max_value=1 << 20),
    kind=st.sampled_from(AccessKind),
    data_class=st.sampled_from(DataClass),
    sequential=st.booleans(),
    vn=st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1)),
    burst_bytes=st.one_of(st.none(), st.integers(min_value=64, max_value=4096)),
    spread_bytes=st.one_of(st.none(),
                           st.integers(min_value=4096, max_value=1 << 24)),
)

_phase = st.builds(
    Phase,
    name=st.text(min_size=1, max_size=12),
    compute_cycles=st.one_of(
        st.integers(min_value=0, max_value=10**9),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    ),
    accesses=st.lists(_access, max_size=6),
)


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(phases=st.lists(_phase, max_size=4))
    def test_columns_round_trip_preserves_phases(self, phases):
        trace = Trace.from_phases(phases)
        _phase_lists_equal(phases, trace.to_phases())
        assert np.diff(trace.offsets).tolist() == [len(p.accesses)
                                                   for p in phases]

    @settings(max_examples=40, deadline=None)
    @given(phases=st.lists(_phase, max_size=4))
    def test_binary_encode_decode_round_trip(self, phases):
        trace = Trace.from_phases(phases)
        payload = spillfmt.encode_trace(trace)
        decoded = spillfmt.decode_trace(payload)
        _phase_lists_equal(phases, decoded.to_phases())
        # The binary form is canonical: encode is deterministic, so
        # cooperating workers write byte-identical spills.
        assert spillfmt.encode_trace(decoded) == payload


class TestCodec:
    def test_zero_copy_views_over_the_payload(self):
        trace = _trace()
        payload = spillfmt.encode_trace(trace)
        decoded = spillfmt.decode_trace(payload)
        assert decoded.total_accesses == trace.total_accesses
        assert decoded.names == trace.names
        assert decoded.offsets.tolist() == trace.offsets.tolist()
        # Column arrays are views over the (immutable) payload buffer,
        # not copies: read-only, and zero bytes of column data on load.
        for name, _ in spillfmt.COLUMN_DTYPES:
            column = getattr(decoded.batch, name)
            assert not column.flags.writeable
            assert column.base is not None

    def test_structural_validation_catches_truncation(self):
        payload = spillfmt.encode_trace(_trace())
        with pytest.raises(ValueError):
            spillfmt.decode_trace(payload[: len(payload) // 2])
        with pytest.raises(ValueError):
            spillfmt.decode_trace(b"NOTMAGIC" + payload[8:])
        with pytest.raises(ValueError):
            spillfmt.decode_trace(payload[:4])

    def test_column_dtypes_match_access_batch(self):
        batch = _trace().batch
        for name, dtype in spillfmt.COLUMN_DTYPES:
            assert np.dtype(dtype) == getattr(batch, name).dtype


class TestDiskTier:
    def test_trace_spills_as_binary_and_reloads(self, disk_cache):
        trace = _trace()
        disk_cache.get_or_build(KEY, lambda: trace)
        path = disk_cache.cache_dir / spill_filename(KEY)
        assert path.suffix == ".bin"
        assert path.exists()
        raw = path.read_bytes()
        payload, digest = split_spill_bytes(raw)
        assert digest == payload_digest(payload)
        assert bytes(payload[:8]) == spillfmt.MAGIC
        disk_cache.clear()
        restored = disk_cache.peek(KEY)
        assert restored is not None
        _phase_lists_equal(restored.to_phases(), trace.to_phases())

    def test_corrupt_binary_falls_back_then_rebuilds(self, disk_cache):
        trace = _trace()
        disk_cache.get_or_build(KEY, lambda: trace)
        path = disk_cache.cache_dir / spill_filename(KEY)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        disk_cache.clear()
        rebuilt = disk_cache.get_or_build(KEY, _trace)
        assert disk_cache.misses == 1
        assert disk_cache.corrupt_dropped == 1  # no trailer: corrupt
        _phase_lists_equal(rebuilt.to_phases(), trace.to_phases())

    def test_trailerless_json_spill_is_dropped_on_load(self, disk_cache):
        """A JSON spill without its digest trailer is corrupt, not a
        legacy spill to trust: verify flags it and the loader drops it."""
        key = ("gop-profile", "trailerless")
        path = disk_cache.cache_dir / spill_filename(key)
        path.write_text('{"version": 2, "profile": {"cycles": 1}}')
        ok, issues = cache_gc.verify_artifacts(disk_cache.cache_dir)
        assert ok == 0
        assert [(i.path, i.status) for i in issues] == [(path, "corrupt")]
        assert disk_cache.peek(key) is None
        assert disk_cache.corrupt_dropped == 1
        assert not path.exists()

    def test_warm_load_prices_identically(self, disk_cache):
        workload = dnn_workload("AlexNet", "Cloud")
        disk_cache.clear()
        warm = dnn_workload("AlexNet", "Cloud")
        assert disk_cache.disk_hits == 1
        model = workload.performance_model()
        cold_sweep = sweep_schemes(workload.label, workload.trace, model,
                                   workload.protected_bytes)
        warm_sweep = sweep_schemes(warm.label, warm.trace, model,
                                   warm.protected_bytes)
        for name, result in cold_sweep.results.items():
            assert warm_sweep.results[name].total_cycles == result.total_cycles
            assert (warm_sweep.results[name].total_traffic_bytes
                    == result.total_traffic_bytes)

    def test_stats_report_spill_counts_bytes_and_formats(self, disk_cache):
        trace = _trace()
        disk_cache.get_or_build(KEY, lambda: trace)
        stats = disk_cache.stats()
        assert stats["trace_spills"] == 1
        assert stats["trace_spill_bytes"] > 0
        assert stats["spill_bytes"] == stats["trace_spill_bytes"]


class TestGcAndVerifyMixedFormats:
    """A dir holding a trace's ``.bin`` plus a retired-layout ``.json``
    of the same key digest."""

    def _seed_mixed_dir(self, disk_cache):
        trace = _trace()
        disk_cache.get_or_build(KEY, lambda: trace)
        _write_legacy_json(disk_cache.cache_dir, trace)
        return disk_cache.cache_dir

    def test_legacy_json_under_live_key_is_a_miss_then_swept(self,
                                                            disk_cache):
        trace = _trace()
        legacy = _write_legacy_json(disk_cache.cache_dir, trace)
        assert not disk_cache.has_spill(KEY)
        assert disk_cache.peek(KEY) is None
        rebuilt = disk_cache.get_or_build(KEY, _trace)
        assert disk_cache.misses == 1
        _phase_lists_equal(rebuilt.to_phases(), trace.to_phases())
        binary = disk_cache.cache_dir / spill_filename(KEY)
        assert binary.exists() and legacy.exists()
        plan = cache_gc.plan_gc(disk_cache.cache_dir,
                                live={spill_filename(KEY)})
        assert [f.path for f in plan.delete] == [legacy]
        assert [f.path for f in plan.keep] == [binary]

    def test_unreachable_formats_both_swept(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        plan = cache_gc.plan_gc(cache_dir, live=set())
        summary = cache_gc.run_gc(plan)
        assert summary["deleted"] == 2
        assert not list(cache_dir.glob("trace-*"))

    def test_verify_passes_a_clean_mixed_dir(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        ok, issues = cache_gc.verify_artifacts(cache_dir)
        assert ok == 1
        assert [(i.path.suffix, i.status) for i in issues] == [
            (".json", "stale")]

    def test_verify_flags_flipped_byte_in_column_block(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        path = cache_dir / spill_filename(KEY)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # deep inside a column block
        path.write_bytes(bytes(data))
        ok, issues = cache_gc.verify_artifacts(cache_dir)
        assert ok == 0
        assert sorted((i.path.name, i.status) for i in issues) == [
            (path.name, "corrupt"), (path.stem + ".json", "stale")]

    def test_verify_flags_truncated_binary(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        path = cache_dir / spill_filename(KEY)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        ok, issues = cache_gc.verify_artifacts(cache_dir)
        assert ok == 0
        assert sorted((i.path.suffix, i.status) for i in issues) == [
            (".bin", "corrupt"), (".json", "stale")]


class TestKeyDigestStability:
    def test_spill_names_are_memoized(self):
        assert spill_filename(KEY) is spill_filename(KEY)

    def test_filename_digest_unchanged_from_v2(self):
        # The key→digest map is pinned to the v2 canonical string, so a
        # payload layout change never re-addresses existing cache dirs.
        import hashlib

        expected = hashlib.sha256(f"v2|{KEY!r}".encode()).hexdigest()[:32]
        assert spill_filename(KEY) == f"trace-{expected}.bin"

    def test_payload_digest_accepts_bytes_and_views(self):
        blob = b"columnar spill bytes"
        assert (payload_digest(blob)
                == payload_digest(memoryview(blob))
                == payload_digest(blob.decode()))


class TestMemoryOnlyCache:
    def test_no_cache_dir_means_no_spill_counters(self):
        cache = TraceCache()
        cache.get_or_build(KEY, _trace)
        stats = cache.stats()
        assert stats["trace_spills"] == 0
        assert "disk_spills_v3" not in stats
