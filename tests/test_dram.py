"""DRAM substrate: timing grades, address map, bank FSM, fast-vs-detailed."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.dram.address_map import AddressMap
from repro.dram.bank import BankState
from repro.dram.controller import DramRequest
from repro.dram.model import DramConfig, DramModel, TrafficProfile
from repro.dram.timing import DDR4_2400, DDR4_3200, timing_for


class TestTiming:
    def test_lookup(self):
        assert timing_for("DDR4-2400") is DDR4_2400
        assert timing_for("DDR4-3200") is DDR4_3200

    def test_unknown_grade(self):
        with pytest.raises(ConfigError):
            timing_for("DDR5-9999")

    def test_row_cycle(self):
        assert DDR4_2400.rc == DDR4_2400.ras + DDR4_2400.rp

    def test_refresh_efficiency_below_one(self):
        assert 0.9 < DDR4_2400.refresh_efficiency < 1.0

    def test_peak_bytes_per_cycle(self):
        # 64-bit bus, double data rate: 16 bytes per controller cycle.
        assert DDR4_2400.bytes_per_cycle == 16


class TestAddressMap:
    def test_block_interleaves_channels(self):
        amap = AddressMap(channels=4, ranks=1, banks=16, row_bytes=2048)
        channels = [amap.decode(i * 64).channel for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_row_walk_within_channel(self):
        amap = AddressMap(channels=1, ranks=1, banks=16, row_bytes=2048)
        # 2048-byte row = 32 blocks; block 31 and 32 are different rows
        # only after all banks cycle -- same bank revisits after
        # banks * blocks_per_row blocks.
        first = amap.decode(0)
        same_row_last = amap.decode(31 * 64)
        assert first.row == same_row_last.row
        assert first.bank == same_row_last.bank

    def test_decode_encode_roundtrip_concrete(self):
        amap = AddressMap(channels=2, ranks=2, banks=8, row_bytes=1024)
        for addr in (0, 64, 4096, 123456 * 64):
            assert amap.encode(amap.decode(addr)) == addr

    @given(st.integers(min_value=0, max_value=(1 << 34) - 1))
    @settings(max_examples=50, deadline=None)
    def test_decode_encode_roundtrip_property(self, block_index):
        amap = AddressMap(channels=4, ranks=1, banks=16, row_bytes=2048)
        address = block_index * 64
        assert amap.encode(amap.decode(address)) == address

    def test_non_pow2_rejected(self):
        with pytest.raises(ConfigError):
            AddressMap(channels=3, ranks=1, banks=16, row_bytes=2048)

    def test_row_smaller_than_block_rejected(self):
        with pytest.raises(ConfigError):
            AddressMap(channels=1, ranks=1, banks=1, row_bytes=32)


class TestBankState:
    def test_first_access_is_miss(self):
        bank = BankState(DDR4_2400)
        issue, hit = bank.access(row=5, at=0)
        assert not hit
        assert issue >= DDR4_2400.rcd

    def test_second_access_same_row_hits(self):
        bank = BankState(DDR4_2400)
        bank.access(row=5, at=0)
        issue, hit = bank.access(row=5, at=0)
        assert hit

    def test_row_conflict_pays_precharge(self):
        bank = BankState(DDR4_2400)
        first, _ = bank.access(row=5, at=0)
        second, hit = bank.access(row=9, at=0)
        assert not hit
        # Must wait tRAS from activate, then tRP + tRCD.
        assert second >= DDR4_2400.ras + DDR4_2400.rp + DDR4_2400.rcd

    def test_ccd_spacing(self):
        bank = BankState(DDR4_2400)
        a, _ = bank.access(row=1, at=0)
        b, _ = bank.access(row=1, at=0)
        assert b - a >= DDR4_2400.ccd

    def test_hit_miss_counters(self):
        bank = BankState(DDR4_2400)
        bank.access(1, 0)
        bank.access(1, 0)
        bank.access(2, 0)
        assert bank.hits == 1
        assert bank.misses == 2


class TestDramConfig:
    @pytest.mark.parametrize("field", ["channels", "ranks", "banks",
                                       "row_bytes"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_geometry_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            DramConfig(**{field: value})


class TestDramModel:
    def test_peak_bandwidth(self):
        assert DramModel(DramConfig(channels=4)).config.peak_bandwidth_gbs == (
            pytest.approx(76.8)
        )

    def test_sequential_faster_than_scattered(self):
        m = DramModel()
        seq = m.cycles_for(TrafficProfile(sequential_bytes=1 << 20))
        scat = m.cycles_for(TrafficProfile(scattered_bytes=1 << 20))
        assert scat > seq

    def test_cycles_scale_linearly(self):
        m = DramModel()
        one = m.cycles_for(TrafficProfile(sequential_bytes=1 << 20))
        two = m.cycles_for(TrafficProfile(sequential_bytes=2 << 20))
        assert two == pytest.approx(2 * one)

    def test_channels_scale_bandwidth(self):
        one = DramModel(DramConfig(channels=1))
        four = DramModel(DramConfig(channels=4))
        t1 = one.cycles_for(TrafficProfile(sequential_bytes=1 << 20))
        t4 = four.cycles_for(TrafficProfile(sequential_bytes=1 << 20))
        assert t1 == pytest.approx(4 * t4)

    def test_fast_path_matches_detailed_sequential(self):
        """The analytic streaming rate is within 5% of the detailed model."""
        m = DramModel(DramConfig(channels=4))
        detailed = m.detailed_cycles_for_range(0, 1 << 20)
        fast = m.cycles_for(TrafficProfile(sequential_bytes=1 << 20))
        assert abs(detailed / fast - 1.0) < 0.05

    def test_fast_path_matches_detailed_scattered(self):
        """The analytic scattered rate is within 10% of the detailed model."""
        m = DramModel(DramConfig(channels=4))
        rng = random.Random(7)
        requests = [
            DramRequest(rng.randrange(0, 1 << 30) & ~63) for _ in range(4096)
        ]
        sim = m.detailed()
        detailed = sim.service(requests)
        fast = m.cycles_for(TrafficProfile(scattered_bytes=4096 * 64))
        assert abs(detailed / fast - 1.0) < 0.10

    def test_detailed_row_hit_rate_streaming(self):
        m = DramModel(DramConfig(channels=1))
        sim = m.detailed()
        sim.service([DramRequest(i * 64) for i in range(1024)])
        assert sim.row_hit_rate > 0.9

    def test_seconds_for(self):
        m = DramModel()
        profile = TrafficProfile(sequential_bytes=1 << 20)
        assert m.seconds_for(profile) == pytest.approx(
            m.cycles_for(profile) / m.config.timing.clock_hz
        )

    def test_profile_merge_and_scale(self):
        p = TrafficProfile(sequential_bytes=100, scattered_bytes=50)
        p.add(TrafficProfile(sequential_bytes=10, scattered_bytes=5))
        assert p.total_bytes == 165
        assert p.scaled(2.0).sequential_bytes == 220

    def test_write_requests_counted(self):
        m = DramModel(DramConfig(channels=1))
        sim = m.detailed()
        sim.service([DramRequest(i * 64, is_write=(i % 2 == 0)) for i in range(64)])
        assert sim.stats.get("write_requests") == 32
        assert sim.stats.get("read_requests") == 32

    def test_bad_stream_efficiency(self):
        with pytest.raises(ConfigError):
            DramConfig(stream_efficiency=0.2)
