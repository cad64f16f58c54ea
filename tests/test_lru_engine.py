"""Python LRU engine ≡ ``MetadataCache`` per-line semantics, per backend.

The python engine walks every run line by line over one ``OrderedDict``,
as ``MetadataCache.access`` does; the compiled engine runs the same
steps in C over a tombstone ring.  Both must be *event- and state-identical* to
the sequential ``MetadataCache.access`` walk with write-back chains.
The Hypothesis models here drive both models with the same randomized
streams — including tiny caches where every run evicts, and dirty runs
whose chains climb a two- or three-level parent geometry — and require
identical miss/writeback/parent-miss event lists, identical LRU state
(order and dirty bits), and identical hit/miss/writeback counters after
every probe.

Every model test drives the engines' one pricing entry point,
``probe_run_batch`` (consecutive-line probes are one-row batches, see
:func:`probe_range`), once per available *backend* (``python`` always;
``native`` whenever the compiled engine builds), so the pure-Python
reference and the C implementation are pinned to the same ground truth
— and, transitively, to each other.  Both backends take the tree-parent
geometry as the same :class:`TreeGeometry` region table; the reference
drivers use plain parent callables, pinned equal to the tables.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.core.engine_backend import (
    TreeGeometry,
    create_engine,
    native_available,
    native_error,
)
from repro.core import lru_native
from repro.core.lru_engine import FLOOD_MAC, FLOOD_VN, EventSink, LruEngine
from repro.core.lru_native import NativeLruEngine
from repro.core.metadata_cache import MetadataCache

LINE = 64


def _parent_two_level(address):
    """Lines below 4 KiB have parents packed 8:1 above it."""
    if address < 64 * LINE:
        return 64 * LINE + ((address // LINE) // 8) * LINE
    return None


def _parent_three_level(address):
    """A deeper geometry: 4:1 twice, so chains can cascade."""
    if address < 64 * LINE:
        return 64 * LINE + ((address // LINE) // 4) * LINE
    if address < 80 * LINE:
        return 80 * LINE + (((address - 64 * LINE) // LINE) // 4) * LINE
    return None


#: The reference drivers' parent oracles.
GEOMETRIES = {"none": None, "two": _parent_two_level, "three": _parent_three_level}

#: The same geometries as flat region tables — the form both engine
#: backends take.  ``test_geometry_tables_match_callables`` pins the two
#: representations to each other.
GEOMETRY_TABLES = {
    "none": TreeGeometry((), LINE),
    "two": TreeGeometry(((0, 64 * LINE, 64 * LINE, 8),), LINE),
    "three": TreeGeometry(
        ((0, 64 * LINE, 64 * LINE, 4), (64 * LINE, 80 * LINE, 80 * LINE, 4)),
        LINE,
    ),
}

#: Engine backends under test: the Python reference always, the compiled
#: engine whenever a working C toolchain is available.
BACKENDS = ("python",) + (("native",) if native_available() else ())

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native engine unavailable: {native_error()}",
)


def make_engine(backend, capacity, geometry="none"):
    """One engine on the requested backend over a named test geometry."""
    return create_engine(capacity, line_bytes=LINE,
                         geometry=GEOMETRY_TABLES[geometry], backend=backend)


def test_backends_expose_exactly_the_pricing_surface():
    """Both engine classes' public callables are the three calls a
    pricing session makes, so neither surface regrows on one side."""
    for cls in (LruEngine, NativeLruEngine):
        public = sorted(attr for attr, value in vars(cls).items()
                        if not attr.startswith("_") and callable(value))
        assert public == ["export_state", "load_state", "probe_run_batch"], \
            cls.__name__


def test_geometry_tables_match_callables():
    for name, parent_of in GEOMETRIES.items():
        table = GEOMETRY_TABLES[name]
        for line in range(120):
            address = line * LINE
            expected = parent_of(address) if parent_of else None
            assert table.parent_of(address) == expected, (name, address)


def _drive_reference(cache, start_line, n_lines, dirty, parent_of):
    """Per-line ``access`` walk with chain following (the ground truth)."""
    misses, writebacks, parent_misses = [], [], []
    for index in range(start_line, start_line + n_lines):
        outcome = cache.access(index * LINE, dirty=dirty)
        if not outcome.hit:
            misses.append(index * LINE)
        queue = ([outcome.writeback_address]
                 if outcome.writeback_address is not None else [])
        while queue:
            address = queue.pop()
            writebacks.append(address)
            parent = parent_of(address) if parent_of else None
            if parent is None:
                continue
            parent_outcome = cache.access(parent, dirty=True)
            if not parent_outcome.hit:
                parent_misses.append(parent)
            if parent_outcome.writeback_address is not None:
                queue.append(parent_outcome.writeback_address)
    return misses, writebacks, parent_misses


def _drive_reference_runs(cache, rows, parent_of):
    """Ground truth for ``probe_run_batch``: per row, access the MAC
    range then the VN range per line, then climb the tree level by
    level from the row's missed VN lines (deduped parents, probed
    clean, chains followed) until a level fully hits.  A row's optional
    seventh field holds its flood flags: a flooded range is not accessed
    — the cache is flushed instead, its dirty lines becoming the row's
    writebacks — and a flooded VN range is not walked.  Also returns
    the per-row event end offsets (misses, writebacks, parent misses)."""
    misses, writebacks, parent_misses, ends = [], [], [], []
    for mac_first, mac_n, vn_first, vn_n, dirty, walk, *flags in rows:
        flood = flags[0] if flags else 0
        row_misses = []
        for first, count, flood_bit in ((mac_first, mac_n, FLOOD_MAC),
                                        (vn_first, vn_n, FLOOD_VN)):
            if flood & flood_bit:
                writebacks += cache.flush()
                continue
            m, w, p = _drive_reference(cache, first // LINE, count, dirty,
                                       parent_of)
            row_misses += m
            misses += m
            writebacks += w
            parent_misses += p
        wave = ([line for line in row_misses if line >= vn_first]
                if walk and not flood & FLOOD_VN else [])
        while wave:
            parents = []
            for line in wave:
                parent = parent_of(line) if parent_of else None
                if parent is not None and \
                        (not parents or parents[-1] != parent):
                    parents.append(parent)
            wave = []
            for line in parents:
                m, w, p = _drive_reference(cache, line // LINE, 1, False,
                                           parent_of)
                misses += m
                writebacks += w
                parent_misses += p
                wave += m
        ends.append([len(misses), len(writebacks), len(parent_misses)])
    return misses, writebacks, parent_misses, ends


def _run_batch_columns(rows):
    """The seven run columns of ``rows`` (flood flags default to 0)."""
    columns = np.array([(*row, 0)[:7] for row in rows],
                       dtype=np.int64).reshape(-1, 7).T
    return (columns[0], columns[1], columns[2], columns[3],
            columns[4].astype(bool), columns[5].astype(bool),
            columns[6].astype(np.uint8))


_FLOOD_FLAGS = st.sampled_from([0, 0, 0, FLOOD_MAC, FLOOD_VN,
                                FLOOD_MAC | FLOOD_VN])


def probe_range(engine, first, n, dirty, sink):
    """Probe ``n`` consecutive lines from address ``first``: a one-row
    ``probe_run_batch`` with an unflooded MAC range only."""
    engine.probe_run_batch(
        *_run_batch_columns([(first, n, 0, 0, dirty, False)]), sink)


def _assert_state_equal(engine, cache):
    assert engine.export_state() == list(cache.contents().items())


@pytest.mark.parametrize("backend", BACKENDS)
class TestModelEquivalence:
    """Randomized streams: engine events/state/stats ≡ sequential walk."""

    @given(
        segments=st.lists(
            st.tuples(st.integers(min_value=0, max_value=79),
                      st.integers(min_value=1, max_value=14),
                      st.booleans()),
            min_size=1, max_size=50,
        ),
        capacity=st.sampled_from([1, 2, 3, 4, 8, 16]),
        geometry=st.sampled_from(sorted(GEOMETRIES)),
    )
    @settings(max_examples=120, deadline=None)
    def test_probe_stream_matches_access_walk(self, backend, segments,
                                              capacity, geometry):
        parent_of = GEOMETRIES[geometry]
        cache = MetadataCache(capacity * LINE)
        engine = make_engine(backend, capacity, geometry)
        for start, n_lines, dirty in segments:
            expected = _drive_reference(cache, start, n_lines, dirty, parent_of)
            sink = EventSink()
            probe_range(engine, start * LINE, n_lines, dirty, sink)
            assert sink.drain_misses().tolist() == expected[0]
            assert sink.drain_writebacks().tolist() == expected[1]
            assert sink.drain_parent_misses().tolist() == expected[2]
            _assert_state_equal(engine, cache)

    @given(
        rows=st.lists(
            st.tuples(st.integers(min_value=0, max_value=8),
                      st.integers(min_value=0, max_value=6),
                      st.integers(min_value=16, max_value=40),
                      st.integers(min_value=1, max_value=10),
                      st.booleans(),
                      st.booleans(),
                      _FLOOD_FLAGS),
            min_size=1, max_size=25,
        ),
        capacity=st.sampled_from([2, 4, 8]),
        geometry=st.sampled_from(sorted(GEOMETRIES)),
        head=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_run_batch_matches_access_walk(self, backend, rows, capacity,
                                           geometry, head):
        """Whole batches of fused MAC/VN runs with tree walks and flood
        rows ≡ the per-line walk with flushes, across geometries — and
        each row's events end where the walk's do, even in a sink that
        already holds events."""
        parent_of = GEOMETRIES[geometry]
        cache = MetadataCache(capacity * LINE)
        engine = make_engine(backend, capacity, geometry)
        byte_rows = [(mac_start * LINE, mac_n, vn_start * LINE, vn_n,
                      dirty, walk, flood)
                     for mac_start, mac_n, vn_start, vn_n, dirty, walk, flood
                     in rows]
        # The first ``head`` rows go in an earlier call on the same sink.
        sink = EventSink()
        engine.probe_run_batch(*_run_batch_columns(byte_rows[:head]), sink)
        ends = engine.probe_run_batch(*_run_batch_columns(byte_rows[head:]),
                                      sink)
        expected = _drive_reference_runs(cache, byte_rows, parent_of)
        assert sink.drain_misses().tolist() == expected[0]
        assert sink.drain_writebacks().tolist() == expected[1]
        assert sink.drain_parent_misses().tolist() == expected[2]
        assert ends.tolist() == expected[3][head:]
        assert (sink.hits, sink.miss_count, sink.writeback_count) == \
            (cache.stats.get("hits"), cache.stats.get("misses"),
             cache.stats.get("writebacks"))
        _assert_state_equal(engine, cache)

    def test_overlapping_ranges_match_access_walk(self, backend):
        """A row whose MAC range runs into its VN range probes the shared
        lines twice, as the per-line walk does: the second probe hits."""
        capacity = 2
        cache = MetadataCache(capacity * LINE)
        engine = make_engine(backend, capacity, "two")
        rows = [(0, 17, 16 * LINE, 1, False, False),
                (8 * LINE, 12, 16 * LINE, 4, True, False),
                (12 * LINE, 6, 10 * LINE, 9, False, False)]
        sink = EventSink()
        ends = engine.probe_run_batch(*_run_batch_columns(rows), sink)
        expected = _drive_reference_runs(cache, rows, _parent_two_level)
        assert sink.drain_misses().tolist() == expected[0]
        assert sink.drain_writebacks().tolist() == expected[1]
        assert sink.drain_parent_misses().tolist() == expected[2]
        assert ends.tolist() == expected[3]
        assert (sink.hits, sink.miss_count, sink.writeback_count) == \
            (cache.stats.get("hits"), cache.stats.get("misses"),
             cache.stats.get("writebacks"))
        _assert_state_equal(engine, cache)

    def test_stats_counters_match(self, backend):
        """hit/miss/writeback counters track the reference exactly."""
        cache = MetadataCache(4 * LINE)
        engine = make_engine(backend, 4, "two")
        sink = EventSink()
        for start, n_lines, dirty in [(0, 8, True), (2, 6, False),
                                      (60, 10, True), (0, 8, True)]:
            _drive_reference(cache, start, n_lines, dirty, _parent_two_level)
            probe_range(engine, start * LINE, n_lines, dirty, sink)
        assert sink.hits == cache.stats.get("hits")
        assert sink.miss_count == cache.stats.get("misses")
        assert sink.writeback_count == cache.stats.get("writebacks")

    def test_forced_flood_runs_match(self, backend):
        """Cache-sized clean runs: every line misses, residents wash out."""
        capacity = 4
        cache = MetadataCache(capacity * LINE)
        engine = make_engine(backend, capacity, "three")
        sink = EventSink()
        # Dirty warm-up, then repeated clean floods over fresh ranges.
        for start, n_lines, dirty in [(0, 6, True), (0, 16, False),
                                      (16, 16, False), (0, 32, False)]:
            expected = _drive_reference(cache, start, n_lines, dirty,
                                        _parent_three_level)
            probe_range(engine, start * LINE, n_lines, dirty, sink)
            assert sink.drain_misses().tolist() == expected[0]
            assert sink.drain_writebacks().tolist() == expected[1]
            assert sink.drain_parent_misses().tolist() == expected[2]
            _assert_state_equal(engine, cache)

    def test_forced_chain_thrash_matches(self, backend):
        """A write stream larger than a tiny cache: every eviction is a
        dirty line whose chain touches the parent level."""
        capacity = 8
        cache = MetadataCache(capacity * LINE)
        engine = make_engine(backend, capacity, "two")
        sink = EventSink()
        for _ in range(4):
            for start in (0, 24, 48):
                expected = _drive_reference(cache, start, 16, True,
                                            _parent_two_level)
                probe_range(engine, start * LINE, 16, True, sink)
                assert sink.drain_writebacks().tolist() == expected[1]
                assert sink.drain_parent_misses().tolist() == expected[2]
        _assert_state_equal(engine, cache)


@needs_native
class TestBackendParity:
    """Python and native engines, driven side by side, never diverge."""

    def test_cross_backend_state_round_trip(self):
        """State exported from one backend loads into the other."""
        python = make_engine("python", 4, "two")
        native = make_engine("native", 4, "two")
        sink = EventSink()
        probe_range(python, 0, 3, True, sink)
        state = python.export_state()
        native.load_state(dict(state))
        assert native.export_state() == state
        # A flood row flushes the adopted lines: all three dirty.
        native.probe_run_batch(
            *_run_batch_columns([(0, 0, 0, 0, False, False, FLOOD_MAC)]),
            sink)
        assert sink.drain_writebacks().tolist() == [0, LINE, 2 * LINE]
        assert native.export_state() == []

    def test_event_buffer_pause_resume(self):
        """Runs far larger than the native event buffers stay exact."""
        capacity = 8
        python = make_engine("python", capacity, "two")
        native = make_engine("native", capacity, "two")
        native._ev_cap = 16  # force many pause/resume round trips
        for dirty in (True, True, False):
            sink_py, sink_nat = EventSink(), EventSink()
            probe_range(python, 0, 60, dirty, sink_py)
            probe_range(native, 0, 60, dirty, sink_nat)
            assert sink_py.drain_misses().tolist() == \
                sink_nat.drain_misses().tolist()
            assert sink_py.drain_writebacks().tolist() == \
                sink_nat.drain_writebacks().tolist()
            assert sink_py.drain_parent_misses().tolist() == \
                sink_nat.drain_parent_misses().tolist()
            assert python.export_state() == native.export_state()

    @given(
        rows=st.lists(
            st.tuples(st.integers(min_value=0, max_value=8),
                      st.integers(min_value=0, max_value=6),
                      st.integers(min_value=16, max_value=40),
                      st.integers(min_value=1, max_value=10),
                      st.booleans(),
                      st.booleans(),
                      _FLOOD_FLAGS),
            min_size=1, max_size=25,
        ),
        capacity=st.sampled_from([2, 4, 8]),
        geometry=st.sampled_from(sorted(GEOMETRIES)),
        ev_cap=st.sampled_from([1, 2, 3, 16384]),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_batch_parity(self, rows, capacity, geometry, ev_cap):
        """Run batches with flood rows: identical events, per-row end
        offsets, counters and state on both backends, with the native
        event buffers small enough to pause mid-probe, mid-chain,
        mid-walk and mid-flush."""
        python = make_engine("python", capacity, geometry)
        native = make_engine("native", capacity, geometry)
        native._ev_cap = ev_cap
        byte_rows = [(mac_start * LINE, mac_n, vn_start * LINE, vn_n,
                      dirty, walk, flood)
                     for mac_start, mac_n, vn_start, vn_n, dirty, walk, flood
                     in rows]
        columns = _run_batch_columns(byte_rows)
        sink_py, sink_nat = EventSink(), EventSink()
        ends_py = python.probe_run_batch(*columns, sink_py)
        ends_nat = native.probe_run_batch(*columns, sink_nat)
        assert ends_py.tolist() == ends_nat.tolist()
        assert sink_py.drain_misses().tolist() == \
            sink_nat.drain_misses().tolist()
        assert sink_py.drain_writebacks().tolist() == \
            sink_nat.drain_writebacks().tolist()
        assert sink_py.drain_parent_misses().tolist() == \
            sink_nat.drain_parent_misses().tolist()
        assert (sink_py.hits, sink_py.miss_count,
                sink_py.writeback_count) == \
            (sink_nat.hits, sink_nat.miss_count, sink_nat.writeback_count)
        assert python.export_state() == native.export_state()

    def test_run_batch_pauses_mid_flush(self):
        """A flood row's flush of more dirty lines than the native
        writeback buffer holds pauses inside the flush and resumes at
        the next dirty slot: same writebacks, ends and state as the
        python engine and the per-line reference."""
        capacity = 8
        cache = MetadataCache(capacity * LINE)
        python = make_engine("python", capacity, "three")
        native = make_engine("native", capacity, "three")
        native._ev_cap = 3  # the 8-line dirty flush needs 3 pauses
        rows = [(0, 8, 0, 0, True, False, 0),          # fill dirty
                (0, 0, 16 * LINE, 4, False, True, FLOOD_MAC),
                (8 * LINE, 8, 0, 0, True, False, 0),   # dirty again
                (0, 2, 24 * LINE, 6, False, True, FLOOD_VN),
                (0, 3, 32 * LINE, 5, True, True, 0)]
        expected = _drive_reference_runs(cache, rows, _parent_three_level)
        columns = _run_batch_columns(rows)
        sink_py, sink_nat = EventSink(), EventSink()
        ends_py = python.probe_run_batch(*columns, sink_py)
        ends_nat = native.probe_run_batch(*columns, sink_nat)
        assert ends_py.tolist() == ends_nat.tolist() == expected[3]
        for sink in (sink_py, sink_nat):
            assert sink.drain_misses().tolist() == expected[0]
            assert sink.drain_writebacks().tolist() == expected[1]
            assert sink.drain_parent_misses().tolist() == expected[2]
        assert expected[3][1][1] - expected[3][0][1] == 8  # flushed 8 lines
        assert python.export_state() == native.export_state()
        _assert_state_equal(native, cache)

    def test_run_batch_pause_resume(self):
        """Run batches far larger than the native event buffers pause,
        drain, and resume mid-row without losing a single event."""
        capacity = 8
        python = make_engine("python", capacity, "three")
        native = make_engine("native", capacity, "three")
        native._ev_cap = 16  # force pauses inside probes AND walks
        rows = []
        for round_index in range(6):
            mac_start = (round_index * 3) % 8
            vn_start = 16 + (round_index * 7) % 24
            rows.append((mac_start * LINE, 6, vn_start * LINE, 10,
                         round_index % 2 == 0, True))
        columns = _run_batch_columns(rows)
        sink_py, sink_nat = EventSink(), EventSink()
        python.probe_run_batch(*columns, sink_py)
        native.probe_run_batch(*columns, sink_nat)
        assert sink_py.drain_misses().tolist() == \
            sink_nat.drain_misses().tolist()
        assert sink_py.drain_writebacks().tolist() == \
            sink_nat.drain_writebacks().tolist()
        assert sink_py.drain_parent_misses().tolist() == \
            sink_nat.drain_parent_misses().tolist()
        assert (sink_py.hits, sink_py.miss_count,
                sink_py.writeback_count) == \
            (sink_nat.hits, sink_nat.miss_count, sink_nat.writeback_count)
        assert python.export_state() == native.export_state()

    def test_native_ring_compaction_preserves_state(self):
        """Drive the native ring far past its slack to force compaction."""
        capacity = 4
        cache = MetadataCache(capacity * LINE)
        engine = make_engine("native", capacity, "two")
        sink = EventSink()
        rounds = int(engine._hdr[2]) // 2 + 200  # > ring size touches
        for round_index in range(rounds):
            start = (round_index * 3) % 60
            _drive_reference(cache, start, 4, bool(round_index % 2),
                             _parent_two_level)
            probe_range(engine, start * LINE, 4, bool(round_index % 2),
                        sink)
        _assert_state_equal(engine, cache)
        assert sink.miss_count == cache.stats.get("misses")

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ConfigError):
            NativeLruEngine(0)
        engine = make_engine("native", 4)
        with pytest.raises(ConfigError):
            engine.load_state({line * LINE: False for line in range(5)})


def test_native_wrapper_raises_on_a_pause_without_progress(monkeypatch):
    """A library whose pauses move neither the resume cursor, the
    parked chain victim nor the ring is an error naming the row, not an
    endless re-entry (the stub fails the test on a fourth call)."""
    calls = []

    class StalledLibrary:
        def lru_runs(self, *args):
            calls.append(args)
            if len(calls) > 3:
                raise AssertionError("wrapper re-entered a stalled library")
            return 0  # paused, and nothing moved

    monkeypatch.setattr(lru_native, "native_library", StalledLibrary)
    engine = NativeLruEngine(4, line_bytes=LINE)
    with pytest.raises(RuntimeError, match="no progress at row 0"):
        probe_range(engine, 0, 2, True, EventSink())
    assert len(calls) == 2


@pytest.mark.parametrize("backend", BACKENDS)
class TestStateAndSink:
    def test_state_round_trip(self, backend):
        engine = make_engine(backend, 4)
        sink = EventSink()
        probe_range(engine, 0, 3, True, sink)
        state = engine.export_state()
        assert state == [(0, True), (LINE, True), (2 * LINE, True)]
        other = make_engine(backend, 4)
        other.load_state(dict(state))
        assert other.export_state() == state

    def test_flush_returns_dirty_in_recency_order(self, backend):
        """A flood row's writebacks are the dirty residents in recency
        order, and the cache is empty after it."""
        engine = make_engine(backend, 4)
        sink = EventSink()
        probe_range(engine, 2 * LINE, 1, True, sink)
        probe_range(engine, 0, 2, True, sink)
        probe_range(engine, 3 * LINE, 1, False, sink)
        ends = engine.probe_run_batch(
            *_run_batch_columns([(0, 0, 0, 0, False, False, FLOOD_MAC)]),
            sink)
        assert sink.drain_writebacks().tolist() == [2 * LINE, 0, LINE]
        assert ends.tolist() == [[4, 3, 0]]
        assert engine.export_state() == []

    @pytest.mark.parametrize("lines", [5, 4 + NativeLruEngine._RING_SLACK + 1])
    def test_load_state_rejects_more_lines_than_capacity(self, backend,
                                                         lines):
        """An over-full state is a ``ConfigError`` before any engine
        state changes (it used to be adopted, or written past the native
        ring)."""
        engine = make_engine(backend, 4)
        probe_range(engine, 0, 2, True, EventSink())
        before = engine.export_state()
        with pytest.raises(ConfigError,
                           match=f"{lines} lines supplied for a 4-line"):
            engine.load_state({line * LINE: False for line in range(lines)})
        assert engine.export_state() == before


class TestSinkMachinery:
    def test_sink_drain_batches_scalars_and_arrays(self):
        """Chunks drain as one array in arrival order, and the running
        count answers ``len()``."""
        sink = EventSink()
        sink.misses.append(np.array([3], dtype=np.int64))
        sink.misses.append(np.array([7, 9], dtype=np.int64))
        sink.misses.append(np.array([11], dtype=np.int64))
        assert len(sink.misses) == 4
        assert sink.drain_misses().tolist() == [3, 7, 9, 11]
        assert len(sink.misses) == 0 and not sink.misses
        assert sink.drain_misses().tolist() == []

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ConfigError):
            LruEngine(0)
        engine = LruEngine(4)
        with pytest.raises(ConfigError):
            engine.load_state({line * LINE: False for line in range(5)})

    def test_long_stream_matches_access_walk(self):
        """Thousands of short overlapping runs, alternately dirty and
        clean: state and miss count still match the per-line walk."""
        capacity = 4
        cache = MetadataCache(capacity * LINE)
        engine = make_engine("python", capacity, "two")
        sink = EventSink()
        for round_index in range(3000):
            start = (round_index * 3) % 60
            _drive_reference(cache, start, 4, bool(round_index % 2),
                             _parent_two_level)
            probe_range(engine, start * LINE, 4, bool(round_index % 2),
                        sink)
        _assert_state_equal(engine, cache)
        assert sink.miss_count == cache.stats.get("misses")
