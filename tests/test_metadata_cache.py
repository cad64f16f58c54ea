"""Metadata cache: LRU, write-back, write-allocate (§VI-A baseline)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.core.metadata_cache import MetadataCache


class TestBasics:
    def test_first_access_misses(self):
        assert not MetadataCache(1024).access(0).hit

    def test_second_access_hits(self):
        c = MetadataCache(1024)
        c.access(0)
        assert c.access(0).hit

    def test_line_granularity(self):
        c = MetadataCache(1024)
        c.access(0)
        assert c.access(63).hit       # same 64-byte line
        assert not c.access(64).hit   # next line

    def test_capacity_lines(self):
        assert MetadataCache(32 * 1024).capacity_lines == 512

    def test_bad_capacity(self):
        with pytest.raises(ConfigError):
            MetadataCache(100)  # not a multiple of 64
        with pytest.raises(ConfigError):
            MetadataCache(0)


class TestLru:
    def test_eviction_order_is_lru(self):
        c = MetadataCache(2 * 64)
        c.access(0)
        c.access(64)
        c.access(0)        # 0 becomes MRU
        c.access(128)      # evicts 64 (LRU), not 0
        assert c.contains(0)
        assert not c.contains(64)

    def test_working_set_within_capacity_all_hits(self):
        c = MetadataCache(8 * 64)
        for addr in range(0, 8 * 64, 64):
            c.access(addr)
        for _ in range(3):
            for addr in range(0, 8 * 64, 64):
                assert c.access(addr).hit

    def test_streaming_larger_than_capacity_all_misses(self):
        c = MetadataCache(4 * 64)
        for round_ in range(2):
            for addr in range(0, 16 * 64, 64):
                assert not c.access(addr).hit


class TestWriteBack:
    def test_clean_eviction_no_writeback(self):
        c = MetadataCache(1 * 64)
        c.access(0, dirty=False)
        outcome = c.access(64)
        assert outcome.writeback_address is None

    def test_dirty_eviction_writes_back(self):
        c = MetadataCache(1 * 64)
        c.access(0, dirty=True)
        outcome = c.access(64)
        assert outcome.writeback_address == 0

    def test_dirty_sticks_until_eviction(self):
        c = MetadataCache(2 * 64)
        c.access(0, dirty=True)
        c.access(0, dirty=False)  # re-access clean must not clear dirty
        c.access(64)
        outcome = c.access(128)   # evicts 0
        assert outcome.writeback_address == 0

    def test_flush_returns_dirty_lines(self):
        c = MetadataCache(4 * 64)
        c.access(0, dirty=True)
        c.access(64, dirty=False)
        c.access(128, dirty=True)
        dirty = c.flush()
        assert sorted(dirty) == [0, 128]
        assert len(c) == 0


class TestStats:
    def test_hit_rate(self):
        c = MetadataCache(1024)
        c.access(0)
        c.access(0)
        c.access(0)
        assert c.hit_rate == pytest.approx(2 / 3)

    def test_writeback_counter(self):
        c = MetadataCache(64)
        c.access(0, dirty=True)
        c.access(64, dirty=True)
        c.access(128, dirty=True)
        assert c.stats.get("writebacks") == 2


class TestAgainstReferenceModel:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                              st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_lru(self, accesses):
        """Exhaustive check against a straightforward LRU list model."""
        capacity = 4
        cache = MetadataCache(capacity * 64)
        reference: list[tuple[int, bool]] = []  # (line, dirty), index 0 = LRU
        for line, dirty in accesses:
            addr = line * 64
            outcome = cache.access(addr, dirty=dirty)
            entry = next((e for e in reference if e[0] == line), None)
            if entry is not None:
                assert outcome.hit
                reference.remove(entry)
                reference.append((line, entry[1] or dirty))
                assert outcome.writeback_address is None
            else:
                assert not outcome.hit
                expected_wb = None
                if len(reference) >= capacity:
                    victim = reference.pop(0)
                    if victim[1]:
                        expected_wb = victim[0] * 64
                reference.append((line, dirty))
                assert outcome.writeback_address == expected_wb

