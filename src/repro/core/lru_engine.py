"""Reuse-distance LRU engine: one-pass columnar metadata-cache pricing.

The cached/tree protection schemes (BP, MGX_MAC) are order-dependent
through a small on-chip LRU cache of 64-byte metadata lines.  Replaying
every sequential run line-by-line in Python dominated the cold suite, so
this engine prices the *entire* metadata-line access stream of a trace
as NumPy columns in one pass per (trace, scheme).

The stream decomposes into *runs* of distinct ascending lines (the
stream buffer guarantees a sequential transfer touches each MAC/VN line
exactly once, in order).  For a run, the engine works at *stretch*
granularity instead of line granularity:

* membership of the run's lines is resolved in bulk against the
  resident set;
* a maximal stretch of misses whose evictions are all *clean* is priced
  with a handful of array operations — the victims are the next
  least-recently-used residents in recency (ring) order, because a
  reuse-free miss stretch through an LRU is a pure conveyor: insert at
  MRU, evict at LRU, and nothing in between can rescue a victim;
* the stretch is *split* exactly at the events that perturb the
  conveyor — a dirty eviction (whose write-back chain climbs the
  integrity tree, touching and possibly evicting further lines) and a
  resident line being touched (rescued to MRU) — which are handled
  event-by-event before bulk processing resumes.

The recency order lives in a tombstone ring: ``_lines``/``_dirty``
arrays indexed ``head..tail`` hold residents from LRU to MRU, a line's
slot is tombstoned (``_valid[slot] = False``) when the line is touched
again, and a dict maps resident lines to their current slot.  Bulk
appends and bulk evictions are array slices; the ring is compacted in
O(capacity) when it fills.  The observable state is exactly that of
the fully-associative :class:`~repro.core.metadata_cache.MetadataCache`
(one ``OrderedDict``), imported and exported losslessly, and the
per-line semantics — LRU, write-back, write-allocate, dirty-eviction
chains — are pinned state- and event-identical to
:meth:`MetadataCache.access` by the Hypothesis models in
``tests/test_lru_engine.py`` and ``tests/test_metadata_cache.py``.

The public surface is what a pricing session calls: ``load_state``,
``probe_run_batch`` and ``export_state``; everything else is the
machinery behind ``probe_run_batch``.

Tree parents come from the C engine's own
:class:`~repro.core.engine_backend.TreeGeometry`: one region gather per
victim window or walk wave, one lookup per chain step.  Runs and walk
waves of at most ``_SCALAR_RUN`` lines go event by event; a walk
finishes line by line once its wave is that short, as C's ``walk_tick``
does.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.common.errors import ConfigError
from repro.common.units import CACHE_BLOCK
from repro.core.engine_backend import TreeGeometry, engine_geometry

_EMPTY = np.empty(0, dtype=np.int64)

#: Initial scalar-scratch size of an event category (doubles as needed).
_SCRATCH_MIN = 64

#: ``probe_run_batch`` flood flags: the row's MAC / VN range is at least
#: cache-sized, so the engine flushes instead of probing it.
FLOOD_MAC = 1
FLOOD_VN = 2


def check_state_fits(lines: dict, capacity_lines: int) -> int:
    """The line count of a ``load_state`` input; more lines than the
    engine holds is a :class:`ConfigError`."""
    n = len(lines)
    if n > capacity_lines:
        raise ConfigError(
            f"{n} lines supplied for a {capacity_lines}-line engine"
        )
    return n


def dedup_ascending(values: np.ndarray) -> np.ndarray:
    """Drop adjacent duplicates of an already-ascending column."""
    if len(values) <= 1:
        return values
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def drain_chunks(chunks: list) -> np.ndarray:
    """Concatenate a plain chunk list (arrays and/or ints) and reset it.

    The walk-level miss sinks (``run_misses`` lists) still collect a mix
    of scalar chain events and bulk array slices; this keeps the old
    scalar-batching drain for them.
    """
    if not chunks:
        return np.empty(0, dtype=np.int64)
    if len(chunks) == 1 and isinstance(chunks[0], np.ndarray):
        only = chunks[0]
        chunks.clear()
        return only.astype(np.int64, copy=False)
    arrays: list[np.ndarray] = []
    scalars: list[int] = []
    for chunk in chunks:
        if isinstance(chunk, np.ndarray):
            if scalars:
                arrays.append(np.array(scalars, dtype=np.int64))
                scalars = []
            arrays.append(chunk)
        else:
            scalars.append(chunk)
    if scalars:
        arrays.append(np.array(scalars, dtype=np.int64))
    chunks.clear()
    if len(arrays) == 1:
        return arrays[0].astype(np.int64, copy=False)
    return np.concatenate(arrays)


class _EventChunks:
    """One event category: array chunks plus a growable scalar scratch.

    Chain events arrive one line at a time; instead of boxing each into
    a Python list and re-boxing on every drain, scalars land in a
    preallocated int64 scratch buffer (doubled when full) that is cut
    into a chunk only when an array chunk arrives or the category
    drains.  A running count answers ``len()`` in O(1): run batches read
    it after every row to record the row's event end offsets.
    """

    __slots__ = ("_chunks", "_scratch", "_fill", "_count")

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._scratch = np.empty(_SCRATCH_MIN, dtype=np.int64)
        self._fill = 0
        self._count = 0

    def push(self, value: int) -> None:
        """Append one scalar event."""
        fill = self._fill
        scratch = self._scratch
        if fill == len(scratch):
            grown = np.empty(2 * len(scratch), dtype=np.int64)
            grown[:fill] = scratch
            self._scratch = scratch = grown
        scratch[fill] = value
        self._fill = fill + 1
        self._count += 1

    def append(self, array: np.ndarray) -> None:
        """Append one bulk chunk (keeps order relative to scalars)."""
        if self._fill:
            self._cut_scratch()
        self._chunks.append(array)
        self._count += len(array)

    def _cut_scratch(self) -> None:
        self._chunks.append(self._scratch[:self._fill].copy())
        self._fill = 0

    def __bool__(self) -> bool:
        return self._count > 0

    def __len__(self) -> int:
        return self._count

    def drain(self) -> np.ndarray:
        """Concatenate everything into one int64 array and reset."""
        if self._fill:
            self._cut_scratch()
        chunks = self._chunks
        self._count = 0
        if not chunks:
            return np.empty(0, dtype=np.int64)
        self._chunks = []
        if len(chunks) == 1:
            return chunks[0].astype(np.int64, copy=False)
        return np.concatenate(chunks)


class EventSink:
    """Collects the engine's cache events as chunks of line addresses.

    Events arrive either as NumPy slices (bulk stretches, via
    ``append``) or as Python scalars (chain steps, via ``push``); each
    category keeps arrival order.  ``drain_*`` concatenates a category
    into one int64 array and resets it, which is how the pricing layer
    routes a whole batch's events with a few vectorized operations
    instead of one Python call per event.

    Categories follow the outcomes of the per-line
    :meth:`~repro.core.metadata_cache.MetadataCache.access` walk:

    ``misses``
        probed lines that were not resident (fetched with the stream);
    ``writebacks``
        dirty lines evicted by the stream or its chains (scattered);
    ``parent_misses``
        tree ancestors that missed while a write-back chain updated the
        parents of evicted dirty lines (scattered).

    Integrity-tree walk misses need no category of their own: the walk
    probes tree-node lines through the same stream path, so its misses
    land in ``misses`` and route by address.
    """

    __slots__ = ("misses", "writebacks", "parent_misses",
                 "hits", "miss_count", "writeback_count")

    def __init__(self) -> None:
        self.misses = _EventChunks()
        self.writebacks = _EventChunks()
        self.parent_misses = _EventChunks()
        #: Aggregate counters feeding the cache's hit/miss/writeback stats.
        self.hits = 0
        self.miss_count = 0
        self.writeback_count = 0

    def drain_misses(self) -> np.ndarray:
        return self.misses.drain()

    def drain_writebacks(self) -> np.ndarray:
        return self.writebacks.drain()

    def drain_parent_misses(self) -> np.ndarray:
        return self.parent_misses.drain()


class _RunContext:
    """Pending-line tracker for one run.

    ``resident[k]`` predicts whether run position ``k`` will hit.  The
    prediction changes while the run streams: an eviction of a
    not-yet-touched run line *demotes* it (it will miss), and a chain
    that inserts a run line *promotes* it (it will hit).  ``pending``
    counts upcoming hits so pure-miss runs skip the rescheduling scans.
    The run's lines ascend, so a line's position is a binary search:
    ``bisect`` over ``line_list`` for one line, ``searchsorted`` over
    ``lines`` for a column.
    """

    __slots__ = ("lines", "line_list", "resident", "pending", "position",
                 "promoted")

    def __init__(self, lines: np.ndarray, line_list: list,
                 resident: np.ndarray) -> None:
        self.lines = lines
        self.line_list = line_list
        self.resident = resident
        self.pending = int(resident.sum())
        self.position = 0
        self.promoted = False

    def _position_of(self, line: int) -> int | None:
        position = bisect_left(self.line_list, line)
        if position < len(self.line_list) and self.line_list[position] == line:
            return position
        return None

    def demote(self, line: int) -> None:
        position = self._position_of(line)
        if position is not None and position >= self.position \
                and self.resident[position]:
            self.resident[position] = False
            self.pending -= 1

    def demote_array(self, lines: np.ndarray) -> None:
        """:meth:`demote` each of ``lines`` (distinct evicted lines)."""
        if self.pending == 0 or len(lines) == 0:
            return
        run = self.lines
        positions = np.minimum(np.searchsorted(run, lines), len(run) - 1)
        positions = positions[(run[positions] == lines)
                              & (positions >= self.position)]
        positions = positions[self.resident[positions]]
        if len(positions):
            self.resident[positions] = False
            self.pending -= len(positions)

    def promote(self, line: int) -> None:
        position = self._position_of(line)
        if position is not None and position > self.position \
                and not self.resident[position]:
            self.resident[position] = True
            self.pending += 1
            self.promoted = True


class LruEngine:
    """Exact LRU over columnar line streams (see module docstring).

    Arguments are :class:`~repro.core.lru_native.NativeLruEngine`'s:
    ``capacity_lines`` resident lines of ``line_bytes``, with
    ``geometry`` (same line size; ``None`` for none) giving each line's
    integrity-tree parent.
    """

    backend_name = "python"

    #: Ring slack beyond capacity before a compaction pass.
    _RING_SLACK = 8192
    #: Runs and tree-walk waves at most this long are priced event by
    #: event — the bulk paths' fixed setup costs more than a few exact
    #: per-line events.
    _SCALAR_RUN = 24

    def __init__(self, capacity_lines: int, line_bytes: int = CACHE_BLOCK,
                 geometry: TreeGeometry | None = None) -> None:
        if capacity_lines <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity_lines}")
        self.capacity_lines = capacity_lines
        self.line_bytes = line_bytes
        self.geometry = engine_geometry(geometry, line_bytes)
        #: Parent of one line (``None``: no stored parent).
        self._parent = self.geometry.parent_of
        self._last_victim: int | None = None
        self._last_evicted: int | None = None
        size = capacity_lines + self._RING_SLACK
        #: Tombstone ring of resident lines, LRU..MRU order.
        self._lines = np.zeros(size, dtype=np.int64)
        self._dirty = np.zeros(size, dtype=bool)
        self._valid = np.zeros(size, dtype=bool)
        self._head = 0
        self._tail = 0
        #: Bumped by every compaction: cached ring-slot indices (the
        #: miss-stretch victim window) are only valid within one epoch.
        self._epoch = 0
        #: Resident line -> current ring slot.
        self._slot: dict[int, int] = {}

    # -- state import/export -------------------------------------------
    def load_state(self, lines: dict) -> None:
        """Adopt a cache's ``{line: dirty}`` contents, LRU first."""
        n = check_state_fits(lines, self.capacity_lines)
        self._valid[:] = False
        self._lines[:n] = np.fromiter(lines.keys(), np.int64, n)
        self._dirty[:n] = np.fromiter(lines.values(), bool, n)
        self._valid[:n] = True
        self._slot = dict(zip(lines, range(n)))
        self._head = 0
        self._tail = n

    def export_state(self) -> list[tuple[int, bool]]:
        """``(line, dirty)`` pairs in recency order (LRU first)."""
        window = slice(self._head, self._tail)
        mask = self._valid[window]
        return list(zip(self._lines[window][mask].tolist(),
                        self._dirty[window][mask].tolist()))

    def _flush_into(self, sink: EventSink) -> None:
        """A run batch's flood: evict everything, the dirty lines (in
        recency order) becoming writebacks."""
        window = slice(self._head, self._tail)
        dirty_lines = self._lines[window][self._valid[window]
                                          & self._dirty[window]]
        self._valid[window] = False
        self._head = self._tail = 0
        self._slot.clear()
        if len(dirty_lines):
            sink.writebacks.append(dirty_lines)
            sink.writeback_count += len(dirty_lines)

    # -- internals ------------------------------------------------------
    def _parents_of(self, lines: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """Tree parents (-1 for none) of a victim window's dirty entries.

        Only dirty victims ever need their parent (clean evictions do
        not chain), so clean positions stay at -1.
        """
        parents = np.full(len(lines), -1, dtype=np.int64)
        if flags.any():
            parents[flags] = self.geometry.parents(lines[flags])
        return parents

    def _compact(self) -> None:
        """Squeeze tombstones out of the ring (O(capacity))."""
        self._epoch += 1
        window = slice(self._head, self._tail)
        mask = self._valid[window]
        lines = self._lines[window][mask].copy()
        dirty = self._dirty[window][mask].copy()
        n = len(lines)
        self._lines[:n] = lines
        self._dirty[:n] = dirty
        self._valid[:] = False
        self._valid[:n] = True
        self._head = 0
        self._tail = n
        self._slot.update(zip(lines.tolist(), range(n)))

    def _room(self, needed: int) -> None:
        if self._tail + needed > len(self._lines):
            self._compact()

    # -- scalar core (single accesses, chains) --------------------------
    def _touch(self, line: int, dirty: bool) -> bool:
        """One ``MetadataCache.access`` without chain following.

        Returns True on hit.  On a miss the line is allocated; if that
        evicted a dirty victim it is left in ``_last_victim`` for the
        caller to chain on (``None`` otherwise).
        """
        slot = self._slot
        lines_buf = self._lines
        dirty_buf = self._dirty
        valid = self._valid
        position = slot.get(line)
        victim = evicted = None
        if position is not None:
            dirty = dirty or bool(dirty_buf[position])
            valid[position] = False
        elif len(slot) >= self.capacity_lines:
            head = self._head
            while not valid[head]:
                head += 1
            evicted = int(lines_buf[head])
            if dirty_buf[head]:
                victim = evicted
            valid[head] = False
            self._head = head + 1
            del slot[evicted]
        self._room(1)
        tail = self._tail
        lines_buf[tail] = line
        dirty_buf[tail] = dirty
        valid[tail] = True
        slot[line] = tail
        self._tail = tail + 1
        self._last_victim = victim
        self._last_evicted = evicted
        return position is not None

    def _access(self, line: int, dirty: bool, sink: EventSink,
                miss_sink: list | None = None,
                context: _RunContext | None = None) -> bool:
        """One access with chain following; returns True on hit."""
        if self._touch(line, dirty):
            sink.hits += 1
            return True
        sink.miss_count += 1
        sink.misses.push(line)
        if miss_sink is not None:
            miss_sink.append(line)
        if context is not None and self._last_evicted is not None:
            context.demote(self._last_evicted)
        victim = self._last_victim
        if victim is not None:
            self._chain(victim, sink, context)
        return False

    def _chain(self, victim: int, sink: EventSink,
               context: _RunContext | None) -> None:
        """Write back ``victim`` and update its ancestors, iteratively.

        Mirrors ``MetadataCache._follow_chain``: each evicted dirty line
        is written back and its parent accessed dirty, which can itself
        miss and evict — the chain runs to completion before the stream
        resumes.  ``context`` lets a chain that evicts (or inserts) a
        not-yet-touched run line re-schedule it.
        """
        while True:
            sink.writebacks.push(victim)
            sink.writeback_count += 1
            parent = self._parent(victim)
            if parent is None:
                return
            hit = self._touch(parent, True)
            if context is not None:
                context.promote(parent)
            if hit:
                sink.hits += 1
                return
            sink.miss_count += 1
            sink.parent_misses.push(parent)
            if context is not None and self._last_evicted is not None:
                context.demote(self._last_evicted)
            victim = self._last_victim
            if victim is None:
                return

    # -- bulk run processing --------------------------------------------
    def _probe_lines(self, lines: np.ndarray, dirty: bool, sink: EventSink,
                     miss_sink: list | None = None) -> None:
        """Touch ``lines`` (distinct, ascending) in order, chains included.

        Semantically identical to one :meth:`MetadataCache.access` per
        line with every dirty eviction's write-back chain followed
        before the next line.  Misses are appended to ``sink.misses``
        (and ``miss_sink`` when given — the integrity-tree walk collects
        a run's miss list there without re-scanning the sink).
        """
        n = len(lines)
        if n == 0:
            return
        if n <= self._SCALAR_RUN:
            # Too short for the bulk machinery to pay for itself
            # (integrity-tree walks are mostly a handful of parent
            # nodes): exact event-by-event walk.
            for line in lines.tolist():
                self._access(line, dirty, sink, miss_sink)
            return
        slot = self._slot
        line_list = lines.tolist()
        resident = np.fromiter(map(slot.__contains__, line_list), bool, n)
        if resident.all():
            self._bulk_touch_resident(lines, line_list, dirty, sink)
            return
        context = _RunContext(lines, line_list, resident)
        while context.position < n:
            position = context.position
            if resident[position]:
                if self._access(line_list[position], dirty, sink, miss_sink,
                                context):
                    context.pending -= 1
                context.position = position + 1
                continue
            # Maximal stretch of predicted misses [position, stop).
            if context.pending == 0:
                stop = n
            else:
                rest = resident[position:]
                stop = position + int(np.argmax(rest)) if rest.any() else n
                if stop == position:  # defensive; pending said otherwise
                    stop = position + 1
            self._miss_stretch(line_list, lines, stop, dirty, sink,
                               miss_sink, context)

    def _miss_stretch(self, line_list: list, lines: np.ndarray, stop: int,
                      dirty: bool, sink: EventSink, miss_sink: list | None,
                      context: _RunContext) -> None:
        """Process the whole miss stretch [context.position, stop).

        The conveyor's upcoming victims are scanned from the ring *once*
        (per exhaustion); maximal streaks of clean evictions are bulk
        priced, and each dirty blocker is handled as one scalar event —
        its write-back chain tombstones whatever residents it touches,
        which the victim window detects by skipping stale slots, so no
        rescanning is needed until the window runs out.
        """
        slot = self._slot
        valid = self._valid
        window: np.ndarray = _EMPTY
        flags: np.ndarray = _EMPTY
        dirty_idx: list = []
        # Built at a window's first dirty streak: the clean victims'
        # window indices, the victims' parents and where they change.
        clean_idx: list | None = None
        window_parent: list = []
        parent_breaks: list = []
        cursor = 0
        dpos = 0
        epoch = self._epoch
        while context.position < stop:
            start = context.position
            free = self.capacity_lines - len(slot)
            count = stop - start
            if epoch != self._epoch:
                # A compaction moved every resident: the cached window's
                # ring-slot indices are meaningless — rescan.
                window = _EMPTY
                cursor = 0
                epoch = self._epoch
            if count <= free:
                self._bulk_insert(line_list, lines, start, stop, dirty, sink,
                                  miss_sink)
                context.position = stop
                return
            if cursor >= len(window):
                # (Re)scan the upcoming victims in ring order, with
                # their dirty bits resolved in bulk.
                head, tail = self._head, self._tail
                window = np.nonzero(valid[head:tail])[0][:count - free] + head
                flags = self._dirty[window]
                dirty_idx = flags.nonzero()[0].tolist()
                clean_idx = None
                cursor = 0
                dpos = 0
            # The next still-valid dirty blocker at or after the cursor.
            dpos = bisect_left(dirty_idx, cursor, dpos)
            while dpos < len(dirty_idx) and not valid[window[dirty_idx[dpos]]]:
                dpos += 1
            blocker = dirty_idx[dpos] if dpos < len(dirty_idx) else len(window)
            # Clean conveyor prefix: everything up to the blocker that
            # is still valid (chains may have rescued entries since the
            # scan — rescued slots are tombstoned and drop out here).
            candidates = window[cursor:blocker]
            candidates = candidates[valid[candidates]]
            bulk_inserts = min(count, free + len(candidates))
            if bulk_inserts > 0:
                evict_count = max(0, bulk_inserts - free)
                if evict_count:
                    evicted = candidates[:evict_count]
                    evicted_lines = self._lines[evicted]
                    valid[evicted] = False
                    self._head = int(evicted[-1]) + 1
                    for line in evicted_lines.tolist():
                        del slot[line]
                    context.demote_array(evicted_lines)
                self._bulk_insert(line_list, lines, start,
                                  start + bulk_inserts, dirty, sink, miss_sink)
                context.position = start + bulk_inserts
                cursor = blocker
                if context.position == stop:
                    return
                if blocker >= len(window) or epoch != self._epoch:
                    # Window exhausted — or the insert compacted the
                    # ring, invalidating every cached slot index.
                    continue
                start = context.position
                count = stop - start
            elif blocker >= len(window):
                # Nothing clean left and no blocker: every remaining
                # window entry went stale — force a rescan.
                cursor = len(window)
                continue
            cursor = blocker
            # A dirty-victim streak blocks the conveyor.  Consecutive
            # dirty victims overwhelmingly share integrity-tree parents
            # group-wise (the tree is ``arity``-ary and victims pop in
            # line order); when every group's parent is already resident
            # each write-back just re-touches it — no chain events — so
            # the whole streak prices in bulk, event-order exact.  The
            # streak runs to the first clean or stale victim: the
            # window's dirty run from the cursor bounds it, and one
            # vectorized validity check ends it.
            if clean_idx is None:
                clean_idx = (~flags).nonzero()[0].tolist()
                parents = self._parents_of(self._lines[window], flags)
                window_parent = parents.tolist()
                parent_breaks = ((parents[1:] != parents[:-1]).nonzero()[0]
                                 + 1).tolist()
                parent_breaks.append(len(window))
            run = bisect_left(clean_idx, cursor)
            bound = min(clean_idx[run] if run < len(clean_idx) else len(window),
                        cursor + count)
            alive = valid[window[cursor:bound]]
            streak_end = bound if alive.all() else cursor + int(alive.argmin())
            # Split the streak into same-parent groups and validate that
            # each parent is resident *outside* the streak (a parent
            # inside it would be rescued mid-stream); truncate at the
            # first group that needs the event-by-event machinery.
            groups: list = []
            seen: set = set()
            last_slot = int(window[streak_end - 1])
            index = cursor
            while index < streak_end:
                parent = window_parent[index]
                group_end = min(
                    parent_breaks[bisect_right(parent_breaks, index)],
                    streak_end)
                if parent != -1:
                    parent_slot = slot.get(parent)
                    if (parent_slot is None or parent in seen
                            or parent_slot <= last_slot):
                        streak_end = index
                        break
                    seen.add(parent)
                groups.append((index, group_end, parent))
                index = group_end
            if not groups:
                # First group already needs the slow path: one eviction
                # event-by-event, chain and all.
                self._access(line_list[start], dirty, sink, miss_sink,
                             context)
                context.position = start + 1
                if context.promoted:
                    # The chain inserted a line this stretch had
                    # scheduled as a miss — hand back to re-clip.
                    context.promoted = False
                    return
                continue
            size = streak_end - cursor
            popped = window[cursor:streak_end]
            popped_lines = self._lines[popped]
            valid[popped] = False
            self._head = int(popped[-1]) + 1
            for line in popped_lines.tolist():
                del slot[line]
            context.demote_array(popped_lines)
            sink.writebacks.append(popped_lines)
            sink.writeback_count += size
            self._streak_insert(line_list, lines, start, size, dirty, groups,
                                cursor, sink, miss_sink)
            context.position = start + size
            cursor = streak_end

    def _streak_insert(self, line_list: list, lines: np.ndarray, start: int,
                       size: int, dirty: bool, groups: list, cursor: int,
                       sink: EventSink, miss_sink: list | None) -> None:
        """Insert a dirty streak's misses with parents spliced in.

        The reference interleave is ``insert line, write back victim,
        touch parent`` per line; its net ring effect is each group's
        lines in order with the group's (re-touched, now dirty) parent
        right after them.  The whole streak appends in two masked array
        writes, and every parent re-touch is a guaranteed hit — exactly
        ``group size`` hits per parented group, no chain events.
        """
        parented = [group for group in groups if group[2] != -1]
        total = size + len(parented)
        self._room(total)
        slot = self._slot
        valid = self._valid
        tail = self._tail
        chunk = lines[start:start + size]
        lines_buf = self._lines[tail:tail + total]
        dirty_buf = self._dirty[tail:tail + total]
        mask = np.ones(total, dtype=bool)
        hits = 0
        for order, (group_start, group_end, parent) in enumerate(parented):
            position = group_end - cursor + order
            mask[position] = False
            valid[slot[parent]] = False
            lines_buf[position] = parent
            dirty_buf[position] = True
            slot[parent] = tail + position
            hits += group_end - group_start
        lines_buf[mask] = chunk
        dirty_buf[mask] = dirty
        slot.update(zip(line_list[start:start + size],
                        (np.flatnonzero(mask) + tail).tolist()))
        valid[tail:tail + total] = True
        self._tail = tail + total
        sink.miss_count += size
        sink.misses.append(chunk)
        if miss_sink is not None:
            miss_sink.append(chunk)
        sink.hits += hits

    def _bulk_insert(self, line_list: list, lines: np.ndarray, start: int,
                     stop: int, dirty: bool, sink: EventSink,
                     miss_sink: list | None) -> None:
        """Append lines [start, stop) as misses (no evictions needed)."""
        count = stop - start
        if count <= 0:
            return
        self._room(count)
        tail = self._tail
        chunk = lines[start:stop]
        self._lines[tail:tail + count] = chunk
        self._dirty[tail:tail + count] = dirty
        self._valid[tail:tail + count] = True
        self._tail = tail + count
        self._slot.update(zip(line_list[start:stop], range(tail, tail + count)))
        sink.miss_count += count
        sink.misses.append(chunk)
        if miss_sink is not None:
            miss_sink.append(chunk)

    def _bulk_touch_resident(self, lines: np.ndarray, line_list: list,
                             dirty: bool, sink: EventSink) -> None:
        """Every line resident: pure recency (and dirty-bit) refresh."""
        n = len(lines)
        self._room(n)
        slot = self._slot
        old = np.fromiter(map(slot.__getitem__, line_list), np.int64, n)
        tail = self._tail
        if dirty:
            self._dirty[tail:tail + n] = True
        else:
            self._dirty[tail:tail + n] = self._dirty[old]
        self._valid[old] = False
        self._lines[tail:tail + n] = lines
        self._valid[tail:tail + n] = True
        for offset, line in enumerate(line_list):
            slot[line] = tail + offset
        self._tail = tail + n
        sink.hits += n

    def _probe_range(self, base_line: int, n_lines: int, dirty: bool,
                     sink: EventSink, miss_sink: list | None = None) -> None:
        """Touch ``n_lines`` consecutive lines starting at ``base_line``."""
        lines = base_line + self.line_bytes * np.arange(n_lines, dtype=np.int64)
        self._probe_lines(lines, dirty, sink, miss_sink)

    # -- tree walks and run batches -------------------------------------
    def _parent_wave(self, lines: np.ndarray) -> np.ndarray:
        """Deduped stored parents of an ascending node-address column.

        The parent mapping is monotone within a tree level, so adjacent
        deduplication of the ascending input equals global dedup — one
        wave is exactly one level's unique touched parents.
        """
        parents = self.geometry.parents(lines)
        return dedup_ascending(parents[parents != -1])

    def _walk_tree(self, seed_lines: np.ndarray, sink: EventSink,
                   flood: bool = False) -> None:
        """Climb the integrity tree from missed leaves in one call.

        ``seed_lines`` are the node addresses (distinct, ascending) that
        missed at the level below.  Each wave probes the deduped stored
        parents of the previous wave's *misses* clean, so the walk stops
        at the first fully-cached level and terminates at the top stored
        level (whose parent is the on-chip root) — event- and
        state-identical to one ``_probe_lines`` call per level over the
        missed nodes' unique parents.

        ``flood=True`` is the closed form for a flood-adjacent run
        (caller-checked: the resident set is exactly the run's clean
        tail below the tree region): no level probe can hit, chain, or
        stop early, so the waves are pure parent arithmetic and the
        whole walk is one bulk :meth:`_flood_clean` replace.

        Waves longer than ``_SCALAR_RUN`` go through :meth:`_probe_lines`;
        waves only shrink, so once one is that short the rest of the
        walk runs line by line.
        """
        wave = self._parent_wave(seed_lines)
        if flood:
            chunks: list[np.ndarray] = []
            while len(wave):
                chunks.append(wave)
                wave = self._parent_wave(wave)
            if chunks:
                self._flood_clean(np.concatenate(chunks), sink)
            return
        while len(wave) > self._SCALAR_RUN:
            level_misses: list = []
            self._probe_lines(wave, False, sink, level_misses)
            if not level_misses:
                return
            wave = self._parent_wave(drain_chunks(level_misses))
        # Short waves, line by line as C's ``walk_tick``: each node is
        # touched clean, chains included, and a miss appends its parent
        # unless it repeats the last one appended (misses ascend and the
        # parent map is monotone within a level: that is the dedup).
        wave = wave.tolist()
        while wave:
            parents: list = []
            for line in wave:
                if not self._access(line, False, sink):
                    parent = self._parent(line)
                    if parent is not None and (not parents
                                               or parents[-1] != parent):
                        parents.append(parent)
            wave = parents

    def probe_run_batch(self, mac_first: np.ndarray, mac_count: np.ndarray,
                        vn_first: np.ndarray, vn_count: np.ndarray,
                        dirty: np.ndarray, walk: np.ndarray,
                        flood: np.ndarray, sink: EventSink) -> np.ndarray:
        """Price a column of fused MAC/VN runs, floods and tree walks
        included; returns the per-row event end offsets.

        Row ``k`` describes one sequential access: ``mac_count[k]``
        consecutive MAC lines from address ``mac_first[k]`` fused with
        ``vn_count[k]`` consecutive VN lines from ``vn_first[k]`` into
        one ascending run (the VN region sits above the MAC region),
        probed dirty when ``dirty[k]``; when ``walk[k]``, the run's
        missed VN lines then climb the tree via :meth:`_walk_tree`.
        ``flood[k]`` (bits :data:`FLOOD_MAC`, :data:`FLOOD_VN`) marks a
        range at least as large as the cache: instead of probing it the
        engine flushes, the dirty lines becoming the row's writebacks,
        and a flooded VN range skips the walk (the MAC range is probed
        or flushed first).  Event- and state-identical to probing run by
        run in row order.

        Row ``k`` of the returned ``(rows, 3)`` array holds the sink's
        miss, writeback and parent-miss counts once row ``k`` is done,
        so each row's events are the slices between consecutive ends.
        """
        n_runs = len(mac_count)
        mac_first_l = mac_first.tolist()
        mac_count_l = mac_count.tolist()
        vn_first_l = vn_first.tolist()
        vn_count_l = vn_count.tolist()
        dirty_l = np.asarray(dirty, dtype=bool).tolist()
        walk_l = np.asarray(walk, dtype=bool).tolist()
        flood_l = np.asarray(flood, dtype=np.uint8).tolist()
        misses, writebacks, parent_misses = (
            sink.misses, sink.writebacks, sink.parent_misses)
        ends: list[tuple[int, int, int]] = []
        for k in range(n_runs):
            flags = flood_l[k]
            mac_lines = mac_count_l[k]
            if flags & FLOOD_MAC:
                self._flush_into(sink)
                mac_lines = 0
            vn_lines = 0 if flags & FLOOD_VN else vn_count_l[k]
            self._probe_run(mac_first_l[k], mac_lines, vn_first_l[k],
                            vn_lines, dirty_l[k], walk_l[k], sink)
            if flags & FLOOD_VN:
                self._flush_into(sink)
            ends.append((len(misses), len(writebacks), len(parent_misses)))
        return np.array(ends, dtype=np.int64).reshape(n_runs, 3)

    def _probe_run(self, mac_first: int, mac_lines: int, vn_first: int,
                   vn_lines: int, run_dirty: bool, walk: bool,
                   sink: EventSink) -> None:
        """One row of :meth:`probe_run_batch` past its floods."""
        if not vn_lines:
            if mac_lines:
                self._probe_range(mac_first, mac_lines, run_dirty, sink)
            return
        line_bytes = self.line_bytes
        run_misses: list | None = [] if walk else None
        n_run = mac_lines + vn_lines
        writebacks_before = sink.writeback_count
        if mac_lines:
            lines = np.empty(n_run, dtype=np.int64)
            lines[:mac_lines] = np.arange(
                mac_first, mac_first + mac_lines * line_bytes,
                line_bytes, dtype=np.int64,
            )
            lines[mac_lines:] = np.arange(
                vn_first, vn_first + vn_lines * line_bytes,
                line_bytes, dtype=np.int64,
            )
            self._probe_lines(lines, run_dirty, sink, run_misses)
        else:
            self._probe_range(vn_first, vn_lines, run_dirty, sink,
                              run_misses)
        if run_misses:
            miss_lines = drain_chunks(run_misses)
            # Flood-adjacent guard: a clean cache-sized (or larger)
            # run that missed everywhere and chained nowhere has
            # displaced the whole resident set with clean run lines
            # below the tree region, so the walk's outcome is
            # closed-form (every level misses in full).
            flood = (
                not run_dirty
                and n_run >= self.capacity_lines
                and sink.writeback_count == writebacks_before
                and len(miss_lines) == n_run
            )
            seeds = miss_lines[miss_lines >= vn_first]
            if len(seeds):
                self._walk_tree(seeds, sink, flood=flood)

    # -- closed-form flood paths ----------------------------------------
    def _flood_clean(self, lines: np.ndarray, sink: EventSink) -> None:
        """Closed-form all-miss clean probe: one bulk ring replacement.

        Preconditions (caller-checked by :meth:`_probe_run`'s
        flood-adjacent guard before :meth:`_walk_tree` takes this path):
        no resident line dirty, and none of ``lines``
        (distinct, ascending) resident.  Under them the probe is a pure
        conveyor — every line misses and every eviction is clean — so
        the per-line machinery of :meth:`_probe_lines` collapses to a
        bulk LRU-window eviction plus one bulk append, event- and
        state-identical to probing line by line.
        """
        n = len(lines)
        if n == 0:
            return
        slot = self._slot
        cap = self.capacity_lines
        if n >= cap:
            # The stream displaces everything, itself included: only the
            # last ``cap`` lines survive the conveyor.
            window = slice(self._head, self._tail)
            self._valid[window] = False
            slot.clear()
            self._epoch += 1
            chunk = lines[n - cap:]
            self._lines[:cap] = chunk
            self._dirty[:cap] = False
            self._valid[:cap] = True
            self._head = 0
            self._tail = cap
            slot.update(zip(chunk.tolist(), range(cap)))
        else:
            evict = len(slot) + n - cap
            if evict > 0:
                head, tail = self._head, self._tail
                window = np.nonzero(self._valid[head:tail])[0][:evict] + head
                for line in self._lines[window].tolist():
                    del slot[line]
                self._valid[window] = False
                self._head = int(window[-1]) + 1
            self._room(n)
            tail = self._tail
            self._lines[tail:tail + n] = lines
            self._dirty[tail:tail + n] = False
            self._valid[tail:tail + n] = True
            slot.update(zip(lines.tolist(), range(tail, tail + n)))
            self._tail = tail + n
        sink.miss_count += n
        sink.misses.append(lines)
