"""ctypes wrapper around the compiled LRU engine (``_lru_native.c``).

:class:`NativeLruEngine` exposes the same pricing surface as
:class:`~repro.core.lru_engine.LruEngine` — ``load_state`` /
``export_state`` / ``flush`` / ``probe_lines`` / ``probe_range`` /
``walk_tree`` / ``probe_run_batch`` — but the per-line work (touches,
evictions, write-back chains) runs inside the shared library.  All
state lives in NumPy arrays owned here and passed to C as raw pointers,
so state import/export stays vectorized Python while the hot loop is
machine code.

Event delivery is chunked: C appends misses / writebacks / parent
misses to three fixed buffers and *pauses* (returning the resume index,
parking a mid-flight chain victim in the header) whenever one fills;
the wrapper drains each pause's chunks into the
:class:`~repro.core.lru_engine.EventSink` and resumes, so arbitrarily
long runs price in bounded memory with event order preserved exactly.

``probe_run_batch`` is the pricing sessions' one call per trace chunk:
``lru_runs`` executes every row in order — probes, write-back chains,
tree walks, and the flushes of flood rows (which can pause mid-flush
too) — and stores each row's running event counts as it finishes it,
so the scheme attributes every event to its row without a second pass.
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
from repro.core.lru_engine import FLOOD_VN, EventSink

_NIL = -1
#: Header slots (mirrors the layout comment in ``_lru_native.c``).
_H_HITS, _H_MISSES, _H_WRITEBACKS, _H_PENDING = 5, 6, 7, 8


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
                 ways: int | None = None,
                 geometry: TreeGeometry | None = None) -> None:
        if capacity_lines <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity_lines}")
        if ways is not None and (ways <= 0 or capacity_lines % ways != 0):
            raise ConfigError(f"ways ({ways}) must divide {capacity_lines}")
        self.geometry = engine_geometry(geometry, line_bytes)
        self._lib = native_library()
        self.capacity_lines = capacity_lines
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = 1 if ways is None else capacity_lines // ways
        self.set_capacity = capacity_lines if ways is None else ways
        slack = self._RING_SLACK if self.n_sets == 1 else max(
            64, self._RING_SLACK // self.n_sets
        )
        ring = self.set_capacity + slack
        table = _pow2_at_least(4 * self.set_capacity)
        self._hdr = np.array(
            [self.n_sets, self.set_capacity, line_bytes, ring, table,
             0, 0, 0, _NIL],
            dtype=np.int64,
        )
        self._heads = np.zeros(self.n_sets, dtype=np.int64)
        self._tails = np.zeros(self.n_sets, dtype=np.int64)
        self._counts = np.zeros(self.n_sets, dtype=np.int64)
        self._useds = np.zeros(self.n_sets, dtype=np.int64)
        self._ring_lines = np.zeros(self.n_sets * ring, dtype=np.int64)
        self._ring_dirty = np.zeros(self.n_sets * ring, dtype=np.uint8)
        self._ring_valid = np.zeros(self.n_sets * ring, dtype=np.uint8)
        self._keys = np.full(self.n_sets * table, _NIL, dtype=np.int64)
        self._vals = np.zeros(self.n_sets * table, dtype=np.int64)
        self._geom = self.geometry.encode()
        self._state_args = tuple(
            int(a.ctypes.data)
            for a in (self._hdr, self._heads, self._tails, self._counts,
                      self._useds, self._ring_lines, self._ring_dirty,
                      self._ring_valid, self._keys, self._vals, self._geom)
        )
        cap = max(16384, 2 * self.set_capacity + 1024)
        self._ev_cap = cap
        self._miss_buf = np.empty(cap, dtype=np.int64)
        self._wb_buf = np.empty(cap, dtype=np.int64)
        self._pm_buf = np.empty(cap, dtype=np.int64)
        self._fills = np.zeros(3, dtype=np.int64)
        self._ev_args = (int(self._miss_buf.ctypes.data),
                         int(self._wb_buf.ctypes.data),
                         int(self._pm_buf.ctypes.data),
                         int(self._fills.ctypes.data))
        #: Bound methods/constants hoisted out of the probe hot path —
        #: per-call attribute traffic is measurable on cold suite runs.
        self._probe = self._lib.lru_probe
        self._probe_range = self._lib.lru_probe_range
        self._walk = self._lib.lru_walk
        self._runs = self._lib.lru_runs
        #: Walk scratch (wave/next buffers), grown on demand; waves only
        #: ever shrink, so "holds the seeds" bounds the whole walk.
        self._wave_buf = np.empty(0, dtype=np.int64)
        self._next_buf = np.empty(0, dtype=np.int64)
        self._wstate = np.zeros(4, dtype=np.int64)
        self._rstate = np.zeros(12, dtype=np.int64)

    # -- state import/export -------------------------------------------
    def load_state(self, sets: list) -> None:
        """Adopt a cache's per-set ``{line: dirty}`` contents, LRU first."""
        if len(sets) != self.n_sets:
            raise ConfigError(
                f"{len(sets)} sets supplied for a {self.n_sets}-set engine"
            )
        offsets = np.zeros(self.n_sets + 1, dtype=np.int64)
        chunks_l: list[np.ndarray] = []
        chunks_d: list[np.ndarray] = []
        total = 0
        for index, lines in enumerate(sets):
            n = len(lines)
            chunks_l.append(np.fromiter(lines.keys(), np.int64, n))
            chunks_d.append(np.fromiter(lines.values(), np.uint8, n))
            total += n
            offsets[index + 1] = total
        flat_l = np.concatenate(chunks_l) if total else np.empty(0, np.int64)
        flat_d = np.concatenate(chunks_d) if total else np.empty(0, np.uint8)
        flat_l = np.ascontiguousarray(flat_l, dtype=np.int64)
        flat_d = np.ascontiguousarray(flat_d, dtype=np.uint8)
        self._lib.lru_load(*self._state_args, int(flat_l.ctypes.data),
                           int(flat_d.ctypes.data), int(offsets.ctypes.data))

    def export_state(self) -> list[list[tuple[int, bool]]]:
        """Per-set ``(line, dirty)`` pairs in recency order (LRU first)."""
        cap = self.capacity_lines
        out_lines = np.empty(cap, dtype=np.int64)
        out_dirty = np.empty(cap, dtype=np.uint8)
        set_counts = np.empty(self.n_sets, dtype=np.int64)
        self._lib.lru_export(*self._state_args, int(out_lines.ctypes.data),
                             int(out_dirty.ctypes.data),
                             int(set_counts.ctypes.data))
        out: list[list[tuple[int, bool]]] = []
        start = 0
        for index in range(self.n_sets):
            stop = start + int(set_counts[index])
            out.append([(int(line), bool(dirty)) for line, dirty in
                        zip(out_lines[start:stop], out_dirty[start:stop])])
            start = stop
        return out

    def flush(self) -> np.ndarray:
        """Evict everything; returns dirty line addresses in recency order."""
        out = np.empty(self.capacity_lines, dtype=np.int64)
        count = int(self._lib.lru_flush(*self._state_args,
                                        int(out.ctypes.data)))
        return out[:count].copy()

    def __len__(self) -> int:
        return int(self._counts.sum())

    def contains(self, line: int) -> bool:
        return bool(self._lib.lru_contains(*self._state_args, int(line)))

    # -- probing --------------------------------------------------------
    def _drain_events(self, sink: EventSink,
                      miss_sink: list | None = None) -> None:
        """Copy one pause's event chunks out of the C buffers."""
        n_miss, n_wb, n_pm = self._fills.tolist()
        if n_miss:
            chunk = self._miss_buf[:n_miss].copy()
            sink.misses.append(chunk)
            if miss_sink is not None:
                miss_sink.append(chunk)
        if n_wb:
            sink.writebacks.append(self._wb_buf[:n_wb].copy())
        if n_pm:
            sink.parent_misses.append(self._pm_buf[:n_pm].copy())

    def _apply_counts(self, sink: EventSink, before: list) -> None:
        """Fold the header counters' delta since ``before`` into the sink."""
        hits1, misses1, writebacks1 = self._hdr[_H_HITS:_H_PENDING].tolist()
        sink.hits += hits1 - before[0]
        sink.miss_count += misses1 - before[1]
        sink.writeback_count += writebacks1 - before[2]

    def _ensure_scratch(self, n: int) -> None:
        if len(self._wave_buf) < n:
            size = _pow2_at_least(n)
            self._wave_buf = np.empty(size, dtype=np.int64)
            self._next_buf = np.empty(size, dtype=np.int64)

    def probe_lines(self, lines: np.ndarray, dirty: bool, sink: EventSink,
                    miss_sink: list | None = None) -> None:
        """Touch ``lines`` (distinct, ascending) in order, chains included.

        Event- and state-identical to the Python engine's
        :meth:`~repro.core.lru_engine.LruEngine.probe_lines`.
        """
        n = len(lines)
        if n == 0:
            return
        run = np.ascontiguousarray(lines, dtype=np.int64)
        hdr = self._hdr
        before = hdr[_H_HITS:_H_PENDING].tolist()
        fills = self._fills
        probe = self._probe
        run_args = self._state_args + (run.ctypes.data, n)
        tail_args = self._ev_args + (self._ev_cap,)
        dirty_flag = 1 if dirty else 0
        index = 0
        while True:
            fills[:] = 0
            index = probe(*run_args, index, dirty_flag, *tail_args)
            self._drain_events(sink, miss_sink)
            if index >= n and hdr[_H_PENDING] == _NIL:
                break
        self._apply_counts(sink, before)

    def probe_range(self, base_line: int, n_lines: int, dirty: bool,
                    sink: EventSink, miss_sink: list | None = None) -> None:
        """Touch ``n_lines`` consecutive lines starting at ``base_line``.

        Runs entirely inside the library (``lru_probe_range``): no line
        array is materialized on either side of the boundary.
        """
        if n_lines <= 0:
            return
        hdr = self._hdr
        before = hdr[_H_HITS:_H_PENDING].tolist()
        fills = self._fills
        probe = self._probe_range
        run_args = self._state_args + (int(base_line), int(n_lines))
        tail_args = self._ev_args + (self._ev_cap,)
        dirty_flag = 1 if dirty else 0
        index = 0
        while True:
            fills[:] = 0
            index = probe(*run_args, index, dirty_flag, *tail_args)
            self._drain_events(sink, miss_sink)
            if index >= n_lines and hdr[_H_PENDING] == _NIL:
                break
        self._apply_counts(sink, before)

    # -- whole-walk and run-batch entry points --------------------------
    def walk_tree(self, seed_lines: np.ndarray, sink: EventSink,
                  flood: bool = False) -> None:
        """Climb the integrity tree from missed leaves in one call.

        Event- and state-identical to the Python engine's
        :meth:`~repro.core.lru_engine.LruEngine.walk_tree`; ``flood``
        needs no special path here — the compiled per-level probe *is*
        the bulk replace — so both flavours share ``lru_walk``.
        """
        n = len(seed_lines)
        if n == 0:
            return
        self._ensure_scratch(n)
        wave = self._wave_buf
        wave[:n] = seed_lines
        wstate = self._wstate
        wstate[:] = 0
        wstate[1] = n
        hdr = self._hdr
        before = hdr[_H_HITS:_H_PENDING].tolist()
        fills = self._fills
        walk = self._walk
        walk_args = self._state_args + (
            wave.ctypes.data, self._next_buf.ctypes.data, wstate.ctypes.data,
        )
        tail_args = self._ev_args + (self._ev_cap,)
        while True:
            fills[:] = 0
            done = walk(*walk_args, *tail_args)
            self._drain_events(sink)
            if done:
                break
        self._apply_counts(sink, before)

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
        seeds = np.where(flood8 & FLOOD_VN, 0, vn_count)
        self._ensure_scratch(max(1, int(seeds.max())))
        rstate = self._rstate
        rstate[:] = 0
        hdr = self._hdr
        before = hdr[_H_HITS:_H_PENDING].tolist()
        base = (len(sink.misses), len(sink.writebacks),
                len(sink.parent_misses))
        fills = self._fills
        runs = self._runs
        run_args = self._state_args + (
            mac_first.ctypes.data, mac_count.ctypes.data,
            vn_first.ctypes.data, vn_count.ctypes.data,
            dirty8.ctypes.data, walk8.ctypes.data, flood8.ctypes.data,
            n_runs, self._wave_buf.ctypes.data, self._next_buf.ctypes.data,
            rstate.ctypes.data, ends.ctypes.data,
        )
        tail_args = self._ev_args + (self._ev_cap,)
        while True:
            fills[:] = 0
            done = runs(*run_args, *tail_args)
            self._drain_events(sink)
            if done:
                break
        self._apply_counts(sink, before)
        ends += base
        return ends
