"""Columnar binary trace spills (disk format v3) and v2 back-compat."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access import (
    AccessBatch,
    AccessKind,
    DataClass,
    LazyAccessList,
    MemAccess,
    Phase,
)
from repro.sim import gc as cache_gc
from repro.sim import spillfmt
from repro.sim.runner import (
    BatchedTrace,
    TraceCache,
    attach_digest,
    dnn_workload,
    encode_trace_v2,
    payload_digest,
    spill_filename,
    spill_filenames,
    split_spill_bytes,
    sweep_schemes,
)

KEY = ("dnn-trace", "AlexNet", "Cloud", False, 1)


def _trace() -> BatchedTrace:
    return dnn_workload("AlexNet", "Cloud", use_cache=False).trace


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
        cols = spillfmt.phases_to_columns(phases)
        rebuilt, batches = spillfmt.columns_to_phases(cols)
        _phase_lists_equal(phases, rebuilt)
        assert [len(b) for b in batches] == [len(p.accesses) for p in phases]

    @settings(max_examples=40, deadline=None)
    @given(phases=st.lists(_phase, max_size=4))
    def test_binary_encode_decode_round_trip(self, phases):
        trace = BatchedTrace.from_phases(phases)
        payload = spillfmt.encode_trace(trace)
        decoded = spillfmt.decode_trace(payload)
        _phase_lists_equal(phases, decoded.phases)
        # The binary form is canonical: encode is deterministic, so
        # cooperating workers write byte-identical spills.
        assert spillfmt.encode_trace(decoded) == payload


class TestCodec:
    def test_zero_copy_views_over_the_payload(self):
        trace = _trace()
        payload = spillfmt.encode_trace(trace)
        decoded = spillfmt.decode_trace(payload)
        total = sum(len(b) for b in decoded.batches)
        assert total == trace.total_accesses
        # Column arrays are views over the (immutable) payload buffer,
        # not copies: read-only, and zero bytes of column data on load.
        for batch in decoded.batches:
            assert not batch.address.flags.writeable
            assert batch.address.base is not None

    def test_lazy_phases_materialize_on_demand(self):
        trace = _trace()
        decoded = spillfmt.decode_trace(spillfmt.encode_trace(trace))
        accesses = decoded.phases[0].accesses
        assert isinstance(accesses, LazyAccessList)
        assert accesses._batch is not None  # len() must not materialize
        assert len(accesses) == len(trace.phases[0].accesses)
        assert accesses._batch is not None
        assert list(accesses) == list(trace.phases[0].accesses)
        assert accesses._batch is None  # iteration materialized it

    def test_structural_validation_catches_truncation(self):
        payload = spillfmt.encode_trace(_trace())
        with pytest.raises(ValueError):
            spillfmt.decode_trace(payload[: len(payload) // 2])
        with pytest.raises(ValueError):
            spillfmt.decode_trace(b"NOTMAGIC" + payload[8:])
        with pytest.raises(ValueError):
            spillfmt.decode_trace(payload[:4])

    def test_column_dtypes_match_access_batch(self):
        batch = AccessBatch.from_phase(_trace().phases[0])
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
        assert encode_trace_v2(restored) == encode_trace_v2(trace)

    def test_v2_spill_loads_without_rekeying(self, disk_cache):
        """A pre-migration JSON spill is found under the same key digest."""
        trace = _trace()
        names = spill_filenames(KEY)
        assert names[0].endswith(".bin") and names[1].endswith(".json")
        # Same digest in both names: v3 did not re-key the store.
        assert names[0].rsplit(".", 1)[0] == names[1].rsplit(".", 1)[0]
        legacy = disk_cache.cache_dir / names[1]
        legacy.write_text(attach_digest(encode_trace_v2(trace)))
        assert disk_cache.has_spill(KEY)
        restored = disk_cache.peek(KEY)
        assert restored is not None
        assert disk_cache.disk_hits == 1
        _phase_lists_equal(restored.phases, trace.phases)

    def test_v2_load_byte_identical_to_v3_reencode(self, disk_cache):
        """Mixed-dir invariant: the v2 payload a spill decodes from is
        exactly what its v3 re-encode decodes back to."""
        trace = _trace()
        legacy = disk_cache.cache_dir / spill_filenames(KEY)[1]
        legacy.write_text(attach_digest(encode_trace_v2(trace)))
        from_v2 = disk_cache.peek(KEY)
        from_v3 = spillfmt.decode_trace(spillfmt.encode_trace(from_v2))
        assert encode_trace_v2(from_v3) == encode_trace_v2(from_v2)
        _phase_lists_equal(from_v3.phases, from_v2.phases)

    def test_binary_spill_preferred_over_legacy(self, disk_cache):
        trace = _trace()
        disk_cache.get_or_build(KEY, lambda: trace)  # writes the .bin
        legacy = disk_cache.cache_dir / spill_filenames(KEY)[1]
        legacy.write_text(attach_digest(encode_trace_v2(trace)))
        disk_cache.clear()
        restored = disk_cache.peek(KEY)
        # Loaded from the binary spill: zero-copy views, not parsed JSON.
        assert not restored.batches[0].address.flags.writeable

    def test_corrupt_binary_falls_back_then_rebuilds(self, disk_cache):
        trace = _trace()
        reference = encode_trace_v2(trace)
        disk_cache.get_or_build(KEY, lambda: trace)
        path = disk_cache.cache_dir / spill_filename(KEY)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        disk_cache.clear()
        rebuilt = disk_cache.get_or_build(KEY, _trace)
        assert disk_cache.misses == 1
        assert encode_trace_v2(rebuilt) == reference

    def test_warm_load_prices_identically(self, disk_cache):
        workload = dnn_workload("AlexNet", "Cloud")
        disk_cache.clear()
        warm = dnn_workload("AlexNet", "Cloud")
        assert disk_cache.disk_hits == 1
        model = workload.performance_model()
        cold_sweep = sweep_schemes(workload.label, workload.trace.phases,
                                   model, workload.protected_bytes,
                                   batches=workload.trace.batches)
        warm_sweep = sweep_schemes(warm.label, warm.trace.phases, model,
                                   warm.protected_bytes,
                                   batches=warm.trace.batches)
        for name, result in cold_sweep.results.items():
            assert warm_sweep.results[name].total_cycles == result.total_cycles
            assert (warm_sweep.results[name].total_traffic_bytes
                    == result.total_traffic_bytes)

    def test_stats_report_spill_counts_bytes_and_formats(self, disk_cache):
        trace = _trace()
        disk_cache.get_or_build(KEY, lambda: trace)
        legacy = disk_cache.cache_dir / spill_filenames(KEY)[1]
        legacy.write_text(attach_digest(encode_trace_v2(trace)))
        stats = disk_cache.stats()
        assert stats["trace_spills"] == 1
        assert stats["trace_spill_bytes"] > 0
        assert stats["spill_bytes"] == stats["trace_spill_bytes"]
        assert stats["disk_spills_v3"] == 1
        assert stats["disk_spills_v2"] == 1


class TestGcAndVerifyMixedFormats:
    def _seed_mixed_dir(self, disk_cache):
        trace = _trace()
        disk_cache.get_or_build(KEY, lambda: trace)
        legacy = disk_cache.cache_dir / spill_filenames(KEY)[1]
        legacy.write_text(attach_digest(encode_trace_v2(trace)))
        return disk_cache.cache_dir

    def test_scan_sees_both_formats(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        artifacts = cache_gc.scan_artifacts(cache_dir)
        assert sorted(a.format_version for a in artifacts) == [2, 3]
        assert all(a.kind == "trace" for a in artifacts)

    def test_both_formats_reachable_under_live_key(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        live = set(spill_filenames(KEY))
        plan = cache_gc.plan_gc(cache_dir, live=live)
        assert plan.delete == []
        assert len(plan.keep) == 2

    def test_unreachable_formats_both_swept(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        plan = cache_gc.plan_gc(cache_dir, live=set())
        summary = cache_gc.run_gc(plan)
        assert summary["deleted"] == 2
        assert not list(cache_dir.glob("trace-*"))

    def test_verify_passes_a_clean_mixed_dir(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        ok, issues = cache_gc.verify_artifacts(cache_dir)
        assert (ok, issues) == (2, [])

    def test_verify_flags_flipped_byte_in_column_block(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        path = cache_dir / spill_filename(KEY)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # deep inside a column block
        path.write_bytes(bytes(data))
        ok, issues = cache_gc.verify_artifacts(cache_dir)
        assert ok == 1
        assert [(i.path.name, i.status) for i in issues] == [
            (path.name, "corrupt")]

    def test_verify_flags_truncated_binary(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        path = cache_dir / spill_filename(KEY)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        ok, issues = cache_gc.verify_artifacts(cache_dir)
        assert ok == 1
        assert [i.status for i in issues] == ["corrupt"]

    def test_cache_stats_format_census(self, disk_cache):
        cache_dir = self._seed_mixed_dir(disk_cache)
        stats = cache_gc.cache_stats(cache_dir, live=set(spill_filenames(KEY)))
        assert stats["kinds"]["trace"] == {
            "files": 2, "bytes": stats["total_bytes"], "v2": 1, "v3": 1}
        assert stats["format_v2"] == 1
        assert stats["format_v3"] == 1
        assert stats["reachable"] == 2


class TestKeyDigestStability:
    def test_spill_names_are_memoized(self):
        assert spill_filenames(KEY) is spill_filenames(KEY)

    def test_filename_digest_unchanged_from_v2(self):
        # The key→digest map is pinned to the v2 canonical string; the
        # v3 payload migration must not re-address existing cache dirs.
        import hashlib

        expected = hashlib.sha256(f"v2|{KEY!r}".encode()).hexdigest()[:32]
        assert spill_filename(KEY) == f"trace-{expected}.bin"

    def test_payload_digest_accepts_bytes_and_views(self):
        blob = b"columnar spill bytes"
        assert (payload_digest(blob)
                == payload_digest(memoryview(blob))
                == payload_digest(blob.decode()))

    def test_doc_digest_accepts_bytes(self):
        from repro.sim.tracefile import doc_digest

        assert doc_digest(b"abc") == doc_digest("abc")


class TestExternalTraceStore:
    def test_pickles_as_plain_phases(self):
        import pickle

        trace = _trace()
        decoded = spillfmt.decode_trace(spillfmt.encode_trace(trace))
        clone = pickle.loads(pickle.dumps(decoded.phases))
        assert all(type(p.accesses) is list for p in clone)
        _phase_lists_equal(clone, trace.phases)


class TestMemoryOnlyCache:
    def test_no_cache_dir_means_no_spill_counters(self):
        cache = TraceCache()
        cache.get_or_build(KEY, _trace)
        stats = cache.stats()
        assert stats["trace_spills"] == 0
        assert "disk_spills_v3" not in stats
