"""ctypes wrapper around the compiled LRU engine (``_lru_native.c``).

:class:`NativeLruEngine` exposes the same pricing surface as
:class:`~repro.core.lru_engine.LruEngine` — ``load_state`` /
``probe_run_batch`` / ``export_state`` — but the per-line work
(touches, evictions, write-back chains, tree walks and flood flushes)
runs inside the shared library.  All state lives in NumPy arrays owned
here and passed to C as raw pointers, so state import/export stays
vectorized Python while the hot loop is machine code.

``probe_run_batch`` prices a ``price`` call's whole column of run rows
in one ``lru_runs`` call: C executes every row in order and stores each
row's running event counts as it finishes it, so the scheme attributes
every event to its row without a second pass.  Events go to three fixed
buffers; whenever one fills, C *pauses* (returning 0, parking a
mid-flight chain victim in the header) and the wrapper drains the
buffers into the :class:`~repro.core.lru_engine.EventSink` and resumes,
so arbitrarily long columns price in bounded memory with event order
preserved exactly.  A pause that moves neither the resume cursor, the
parked victim nor the ring is a :class:`RuntimeError`, not an endless
loop.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.common.units import CACHE_BLOCK
from repro.core.engine_backend import (
    TreeGeometry,
    engine_geometry,
    native_library,
)
from repro.core.lru_engine import FLOOD_VN, EventSink, check_state_fits

_NIL = -1
#: Header slots (mirrors the H_* enum in ``_lru_native.c``); the ring's
#: head and tail sit between ``_H_PENDING`` and ``_H_COUNT``.
_H_HITS, _H_PENDING, _H_COUNT, _H_SIZE = 4, 7, 10, 12


def _pow2_at_least(n: int) -> int:
    size = 16
    while size < n:
        size *= 2
    return size


class NativeLruEngine:
    """Exact LRU over line streams, scalar core compiled to native code."""

    backend_name = "native"

    #: Ring slack beyond capacity before an in-place compaction.
    _RING_SLACK = 8192

    def __init__(self, capacity_lines: int, line_bytes: int = CACHE_BLOCK,
                 geometry: TreeGeometry | None = None) -> None:
        if capacity_lines <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity_lines}")
        self.geometry = engine_geometry(geometry, line_bytes)
        self._lib = native_library()
        self.capacity_lines = capacity_lines
        self.line_bytes = line_bytes
        ring = capacity_lines + self._RING_SLACK
        table = _pow2_at_least(4 * capacity_lines)
        self._hdr = np.zeros(_H_SIZE, dtype=np.int64)
        self._hdr[:4] = (capacity_lines, line_bytes, ring, table)
        self._hdr[_H_PENDING] = _NIL
        self._ring_lines = np.zeros(ring, dtype=np.int64)
        self._ring_dirty = np.zeros(ring, dtype=np.uint8)
        self._ring_valid = np.zeros(ring, dtype=np.uint8)
        self._keys = np.full(table, _NIL, dtype=np.int64)
        self._vals = np.zeros(table, dtype=np.int64)
        self._geom = self.geometry.encode()
        self._state_args = tuple(
            int(a.ctypes.data)
            for a in (self._hdr, self._ring_lines, self._ring_dirty,
                      self._ring_valid, self._keys, self._vals, self._geom)
        )
        cap = max(16384, 2 * capacity_lines + 1024)
        self._ev_cap = cap
        self._miss_buf = np.empty(cap, dtype=np.int64)
        self._wb_buf = np.empty(cap, dtype=np.int64)
        self._pm_buf = np.empty(cap, dtype=np.int64)
        self._fills = np.zeros(3, dtype=np.int64)
        self._ev_args = (int(self._miss_buf.ctypes.data),
                         int(self._wb_buf.ctypes.data),
                         int(self._pm_buf.ctypes.data),
                         int(self._fills.ctypes.data))
        #: Walk scratch (wave/next buffers), grown on demand; waves only
        #: ever shrink, so "holds the seeds" bounds the whole walk.
        self._wave_buf = np.empty(0, dtype=np.int64)
        self._next_buf = np.empty(0, dtype=np.int64)
        self._rstate = np.zeros(11, dtype=np.int64)

    def load_state(self, lines: dict) -> None:
        """Adopt a cache's ``{line: dirty}`` contents, LRU first."""
        n = check_state_fits(lines, self.capacity_lines)
        flat_l = np.fromiter(lines.keys(), np.int64, n)
        flat_d = np.fromiter(lines.values(), np.uint8, n)
        self._lib.lru_load(*self._state_args, int(flat_l.ctypes.data),
                           int(flat_d.ctypes.data), n)

    def export_state(self) -> list[tuple[int, bool]]:
        """``(line, dirty)`` pairs in recency order (LRU first)."""
        out_lines = np.empty(self.capacity_lines, dtype=np.int64)
        out_dirty = np.empty(self.capacity_lines, dtype=bool)
        n = int(self._lib.lru_export(*self._state_args,
                                     int(out_lines.ctypes.data),
                                     int(out_dirty.ctypes.data)))
        return list(zip(out_lines[:n].tolist(), out_dirty[:n].tolist()))

    def _drain_events(self, sink: EventSink) -> None:
        """Copy one pause's events out of the C buffers."""
        n_miss, n_wb, n_pm = self._fills.tolist()
        if n_miss:
            sink.misses.append(self._miss_buf[:n_miss].copy())
        if n_wb:
            sink.writebacks.append(self._wb_buf[:n_wb].copy())
        if n_pm:
            sink.parent_misses.append(self._pm_buf[:n_pm].copy())

    def probe_run_batch(self, mac_first: np.ndarray, mac_count: np.ndarray,
                        vn_first: np.ndarray, vn_count: np.ndarray,
                        dirty: np.ndarray, walk: np.ndarray,
                        flood: np.ndarray, sink: EventSink) -> np.ndarray:
        """Price a column of fused MAC/VN runs, floods and tree walks
        included; returns the per-row event end offsets.

        One ``lru_runs`` call per column (plus pause/resume round
        trips, mid-flush included): the run columns cross the boundary
        once, and every probe, flush, chain and walk of every row
        happens inside the library, which records each row's running
        event counts as it finishes the row.  Event- and state-identical
        to the Python engine's ``probe_run_batch``.
        """
        n_runs = len(mac_count)
        ends = np.empty((n_runs, 3), dtype=np.int64)
        if n_runs == 0:
            return ends
        mac_first = np.ascontiguousarray(mac_first, dtype=np.int64)
        mac_count = np.ascontiguousarray(mac_count, dtype=np.int64)
        vn_first = np.ascontiguousarray(vn_first, dtype=np.int64)
        vn_count = np.ascontiguousarray(vn_count, dtype=np.int64)
        dirty8 = np.ascontiguousarray(dirty, dtype=np.uint8)
        walk8 = np.ascontiguousarray(walk, dtype=np.uint8)
        flood8 = np.ascontiguousarray(flood, dtype=np.uint8)
        # A flooded VN range collects no walk seeds.
        seeds = int(np.where(flood8 & FLOOD_VN, 0, vn_count).max())
        if len(self._wave_buf) < seeds:
            size = _pow2_at_least(seeds)
            self._wave_buf = np.empty(size, dtype=np.int64)
            self._next_buf = np.empty(size, dtype=np.int64)
        rstate = self._rstate
        rstate[:] = 0
        hdr = self._hdr
        before = hdr[_H_HITS:_H_PENDING].tolist()
        base = (len(sink.misses), len(sink.writebacks),
                len(sink.parent_misses))
        fills = self._fills
        runs = self._lib.lru_runs
        run_args = self._state_args + (
            mac_first.ctypes.data, mac_count.ctypes.data,
            vn_first.ctypes.data, vn_count.ctypes.data,
            dirty8.ctypes.data, walk8.ctypes.data, flood8.ctypes.data,
            n_runs, self._wave_buf.ctypes.data, self._next_buf.ctypes.data,
            rstate.ctypes.data, ends.ctypes.data,
        ) + self._ev_args + (self._ev_cap,)
        stalled = None
        while True:
            fills[:] = 0
            done = runs(*run_args)
            self._drain_events(sink)
            if done:
                break
            # Every pause moves the resume cursor, the parked chain
            # victim or the ring (a walk's next level can repeat the
            # cursor, but its probes append to the ring); one that
            # moves none of them would repeat forever.
            pause = rstate[:8].tobytes() + hdr[_H_PENDING:_H_COUNT].tobytes()
            if pause == stalled:
                raise RuntimeError(
                    f"native engine made no progress at row {int(rstate[0])}")
            stalled = pause
        hits, misses, writebacks = hdr[_H_HITS:_H_PENDING].tolist()
        sink.hits += hits - before[0]
        sink.miss_count += misses - before[1]
        sink.writeback_count += writebacks - before[2]
        ends += base
        return ends
