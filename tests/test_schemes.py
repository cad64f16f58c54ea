"""Protection timing engines: BP, MGX and the two ablations.

These tests pin down the arithmetic the whole evaluation rests on: how
many metadata bytes each scheme moves for a given access pattern.
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import MIB
from repro.core.access import DataClass, read, write
from repro.core.schemes import (
    FINE_MAC_POLICY,
    MGX_MAC_POLICY,
    CounterModeProtection,
    MacPolicy,
    NoProtection,
    ProtectionTraffic,
    make_baseline,
    make_mgx,
    make_mgx_mac,
    make_mgx_vn,
    scheme_suite,
)

_PROTECTED = 256 * MIB


def _total(scheme, *accesses):
    traffic = ProtectionTraffic()
    for access in accesses:
        traffic.merge(scheme.process(access))
    traffic.merge(scheme.finish())
    return traffic


class TestNoProtection:
    def test_data_only(self):
        t = _total(NoProtection(), read(0, 4096))
        assert t.total_bytes == 4096
        assert t.metadata_bytes == 0

    def test_scattered_classified(self):
        np_scheme = NoProtection()
        t = np_scheme.process(read(0, 4096, sequential=False))
        assert t.data_scat == 4096
        assert t.data_seq == 0


class TestMgxArithmetic:
    def test_streaming_read_overhead_is_1_56_pct(self):
        """512-B MACs: one 64-B MAC line per 4 KiB of data (§VI-A)."""
        mgx = make_mgx(_PROTECTED)
        t = _total(mgx, read(0, 16 * MIB, DataClass.FEATURE))
        assert t.mac_bytes == 16 * MIB // 4096 * 64
        assert t.vn_bytes == 0
        assert t.tree_bytes == 0
        overhead = t.total_bytes / (16 * MIB) - 1
        assert overhead == pytest.approx(0.015625)

    def test_write_same_cost_as_read(self):
        """MGX regenerates MACs on-chip: writes stream them out once."""
        mgx = make_mgx(_PROTECTED)
        r = _total(make_mgx(_PROTECTED), read(0, 1 * MIB, DataClass.FEATURE))
        w = _total(mgx, write(0, 1 * MIB, DataClass.FEATURE))
        assert w.mac_bytes == r.mac_bytes

    def test_partial_granule_read_amplifies(self):
        """Reading 256 B under a 512-B MAC verifies the whole granule."""
        mgx = make_mgx(_PROTECTED)
        t = mgx.process(read(0, 256, DataClass.FEATURE))
        assert t.data_bytes == 512

    def test_aligned_read_no_amplification(self):
        mgx = make_mgx(_PROTECTED)
        t = mgx.process(read(0, 512, DataClass.FEATURE))
        assert t.data_bytes == 512

    def test_embedding_override_keeps_64b_macs(self):
        """DLRM gathers keep fine-grained MACs (§VI-A)."""
        mgx = make_mgx(_PROTECTED)
        t = mgx.process(
            read(0, 512 * 100, DataClass.EMBEDDING, sequential=False,
                 burst_bytes=512, spread_bytes=64 * MIB)
        )
        # One MAC line per 512-B row (8 MACs of its 8 blocks).
        assert t.mac_bytes == 100 * 64

    def test_adjacency_one_mac_per_tile(self):
        """Graph adjacency: a single MAC covers the whole tile (§V-B)."""
        mgx = make_mgx(_PROTECTED)
        t = mgx.process(read(0, 3 * MIB + 192, DataClass.ADJACENCY))
        assert t.mac_bytes == 64
        assert t.data_bytes == 3 * MIB + 192  # no amplification

    def test_no_onchip_metadata_state(self):
        assert make_mgx(_PROTECTED).onchip_state_bytes == 0

    def test_metadata_storage_is_macs_only(self):
        mgx = make_mgx(_PROTECTED)
        bp = make_baseline(_PROTECTED)
        assert mgx.metadata_storage_bytes < bp.metadata_storage_bytes


class TestMgxVnArithmetic:
    def test_streaming_read_overhead_is_12_5_pct(self):
        """64-B MACs without stored VNs: exactly 1/8 extra traffic."""
        s = make_mgx_vn(_PROTECTED)
        t = _total(s, read(0, 8 * MIB, DataClass.FEATURE))
        assert t.total_bytes / (8 * MIB) == pytest.approx(1.125)
        assert t.vn_bytes == 0


class TestBaselineArithmetic:
    def test_streaming_read_components(self):
        """BP read: 12.5% MAC + 12.5% VN + ~1.8% tree."""
        bp = make_baseline(_PROTECTED)
        size = 16 * MIB
        t = _total(bp, read(0, size, DataClass.FEATURE))
        assert t.mac_bytes == size // 8
        assert t.vn_bytes == size // 8
        assert 0.01 < t.tree_bytes / size < 0.03

    def test_streaming_write_costs_more_than_read(self):
        """Write VN/MAC lines are read-modify-write + written back."""
        r = _total(make_baseline(_PROTECTED), read(0, 4 * MIB, DataClass.FEATURE))
        w = _total(make_baseline(_PROTECTED), write(0, 4 * MIB, DataClass.FEATURE))
        assert w.total_bytes > r.total_bytes

    def test_vn_exceeds_mac_overhead(self):
        """Fig. 3's observation: VN+tree traffic > MAC traffic."""
        bp = make_baseline(_PROTECTED)
        t = _total(bp, read(0, 16 * MIB, DataClass.FEATURE))
        assert t.vn_bytes + t.tree_bytes > t.mac_bytes

    def test_cache_captures_temporal_reuse(self):
        """Re-reading a small buffer hits the metadata cache."""
        bp = make_baseline(_PROTECTED)
        first = bp.process(read(0, 8192, DataClass.FEATURE))
        second = bp.process(read(0, 8192, DataClass.FEATURE))
        assert second.metadata_bytes < first.metadata_bytes

    def test_scattered_gather_walks_tree_deep(self):
        """Random gathers over a big spread miss several tree levels
        (the DLRM effect)."""
        bp = make_baseline(16 * 1024 * MIB)
        t = bp.process(
            read(0, 512 * 1000, DataClass.EMBEDDING, sequential=False,
                 burst_bytes=512, spread_bytes=4 * 1024 * MIB)
        )
        assert t.tree_bytes > t.vn_bytes  # multiple nodes per VN line

    def test_small_spread_gather_stays_cached(self):
        """Hot embedding rows re-read within a cache-resident spread only
        pay cold misses (first touches), not one miss per lookup."""
        bp = make_baseline(_PROTECTED)
        t = bp.process(
            read(0, 512 * 1000, DataClass.EMBEDDING, sequential=False,
                 burst_bytes=512, spread_bytes=64 * 1024)
        )
        # 64 KiB spread = 128 VN lines: at most 128 cold misses.
        assert t.vn_bytes <= 128 * 64

    def test_requires_cache(self):
        with pytest.raises(ConfigError):
            CounterModeProtection("X", vn_onchip=False, mac_policy=FINE_MAC_POLICY,
                                  protected_bytes=_PROTECTED, cache_bytes=0)

    def test_out_of_range_access_rejected(self):
        bp = make_baseline(1 * MIB)
        with pytest.raises(ConfigError):
            bp.process(read(1 * MIB - 64, 128))

    def test_onchip_state_is_cache_plus_root(self):
        assert make_baseline(_PROTECTED).onchip_state_bytes == 32 * 1024 + 32


class TestFloodPathConsistency:
    """The closed-form flood shortcut must agree with the exact LRU loop."""

    def _measure(self, cache_bytes, size, kind):
        scheme = CounterModeProtection(
            "t", vn_onchip=False, mac_policy=FINE_MAC_POLICY,
            protected_bytes=_PROTECTED, cache_bytes=cache_bytes,
        )
        access = read(0, size) if kind == "read" else write(0, size)
        t = scheme.process(access)
        t.merge(scheme.finish())
        return t

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_flood_matches_exact_within_tolerance(self, kind):
        size = 4 * MIB
        # Small cache → flood path; big cache → exact per-line path.
        flood = self._measure(2 * 1024, size, kind)
        exact = self._measure(64 * 1024 * 1024, size, kind)
        # VN fetch volume identical; total within 15% (the flood path
        # writes back dirty lines immediately rather than at finish()).
        assert flood.vn_bytes >= exact.vn_bytes * 0.9
        assert abs(flood.total_bytes / exact.total_bytes - 1) < 0.15


class TestVariantOrdering:
    def test_traffic_ordering_matches_paper(self):
        """NP < MGX < MGX_VN < MGX_MAC < BP for streaming writes+reads."""
        totals = {}
        for name, scheme in scheme_suite(_PROTECTED).items():
            t = _total(scheme, read(0, 4 * MIB, DataClass.FEATURE),
                       write(8 * MIB, 4 * MIB, DataClass.FEATURE))
            totals[name] = t.total_bytes
        assert totals["NP"] < totals["MGX"] < totals["MGX_VN"]
        assert totals["MGX_VN"] < totals["MGX_MAC"] < totals["BP"]

    def test_mgx_mac_between(self):
        """Coarse MACs + stored VNs: VN cost dominates its total."""
        s = make_mgx_mac(_PROTECTED)
        t = _total(s, read(0, 8 * MIB, DataClass.FEATURE))
        assert t.vn_bytes > t.mac_bytes


class TestTnpuComparison:
    def test_tnpu_like_equals_mgx_vn_point(self):
        """§VIII: TNPU is tree-free with fine MACs — the MGX_VN point."""
        from repro.core.schemes import make_tnpu_like

        tnpu = make_tnpu_like(_PROTECTED)
        mgx_vn = make_mgx_vn(_PROTECTED)
        access = read(0, 4 * MIB, DataClass.FEATURE)
        assert tnpu.process(access).total_bytes == mgx_vn.process(access).total_bytes
        assert tnpu.name == "TNPU-like"

    def test_mgx_beats_tnpu_via_coarse_macs(self):
        """The paper's delta over TNPU comes from coarse-grained MACs."""
        from repro.core.schemes import make_tnpu_like

        access = read(0, 4 * MIB, DataClass.FEATURE)
        tnpu = make_tnpu_like(_PROTECTED).process(access).total_bytes
        mgx = make_mgx(_PROTECTED).process(access).total_bytes
        assert mgx < tnpu


class TestMacPolicy:
    def test_defaults(self):
        assert MGX_MAC_POLICY.granularity_for(read(0, 4096, DataClass.FEATURE)) == 512
        assert MGX_MAC_POLICY.granularity_for(read(0, 4096, DataClass.EMBEDDING)) == 64
        assert FINE_MAC_POLICY.granularity_for(read(0, 4096, DataClass.FEATURE)) == 64

    def test_invalid_granularity(self):
        """Granularities are validated when the policy is built, before
        any access is priced."""
        with pytest.raises(ConfigError):
            MacPolicy(default=100)

    @pytest.mark.parametrize("policy", [
        {"default": 0},
        {"default": -64},
        {"overrides": {DataClass.EMBEDDING: 96}},
        {"overrides": {DataClass.EMBEDDING: 0}},
    ])
    def test_non_positive_or_unaligned_granularity_rejected(self, policy):
        """Zero and negative granularities used to price nonsense (or
        divide by zero in the per-access walk only)."""
        with pytest.raises(ConfigError, match="positive multiple of 64"):
            MacPolicy(**policy)

    def test_reset_clears_cache_and_stats(self):
        bp = make_baseline(_PROTECTED)
        bp.process(read(0, 1 * MIB))
        bp.reset()
        assert bp.stats.get("accesses") == 0
        t = bp.process(read(0, 1 * MIB))
        assert t.vn_bytes > 0  # cold again


class TestTrafficStructure:
    def test_to_profile_split(self):
        t = ProtectionTraffic(data_seq=100, data_scat=50, mac_seq=10, tree_scat=5)
        profile = t.to_profile()
        assert profile.sequential_bytes == 110
        assert profile.scattered_bytes == 55

    def test_merge(self):
        a = ProtectionTraffic(data_seq=1, vn_seq=2)
        a.merge(ProtectionTraffic(data_seq=3, vn_scat=4))
        assert a.data_bytes == 4
        assert a.vn_bytes == 6

    def test_finish_idempotent(self):
        bp = make_baseline(_PROTECTED)
        bp.process(write(0, 1 * MIB, DataClass.FEATURE))
        first = bp.finish().total_bytes
        second = bp.finish().total_bytes
        assert second == 0 or second <= first
