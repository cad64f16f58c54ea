"""Python LRU engine: the metadata cache as one recency-ordered dict.

The cached/tree protection schemes (BP, MGX_MAC) are order-dependent
through a small on-chip LRU cache of 64-byte metadata lines.  This
engine prices a trace's whole column of sequential runs in one
``probe_run_batch`` call by walking every run line by line over one
``OrderedDict`` ``{line: dirty}`` in recency order (LRU first) — the
structure :meth:`~repro.core.metadata_cache.MetadataCache.access` uses,
and the same steps: a hit refreshes the line (and its dirty bit), a
miss allocates it and evicts the least recently used line, and a dirty
victim's write-back chain climbs the integrity tree before the next
line is probed.  The per-line semantics and the exported state are
pinned event- and state-identical to ``MetadataCache.access`` by the
Hypothesis models in ``tests/test_lru_engine.py`` and
``tests/test_metadata_cache.py``, on this engine and on the compiled
:class:`~repro.core.lru_native.NativeLruEngine` alike.

The public surface is what a pricing session calls: ``load_state``,
``probe_run_batch`` and ``export_state``.  Tree parents come from the C
engine's own :class:`~repro.core.engine_backend.TreeGeometry`: one
``parent_of`` per chain step, and ``parents`` for each walk wave.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import compress

import numpy as np

from repro.common.errors import ConfigError
from repro.common.units import CACHE_BLOCK
from repro.core.engine_backend import TreeGeometry, engine_geometry

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


class _EventChunks:
    """One event category: int64 array chunks in arrival order, with a
    running count that answers ``len()`` in O(1)."""

    __slots__ = ("_chunks", "_count")

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._count = 0

    def append(self, array: np.ndarray) -> None:
        """Append one chunk of events."""
        self._chunks.append(array)
        self._count += len(array)

    def __bool__(self) -> bool:
        return self._count > 0

    def __len__(self) -> int:
        return self._count

    def drain(self) -> np.ndarray:
        """Concatenate everything into one int64 array and reset."""
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

    Each ``probe_run_batch`` call appends one int64 array per category
    (the native engine one per event-buffer drain); each category keeps
    arrival order.  ``drain_*`` concatenates a category into one int64
    array and resets it, which is how the pricing layer routes a whole
    batch's events with a few vectorized operations instead of one
    Python call per event.

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


class LruEngine:
    """Exact LRU over run columns, walked line by line (see the module
    docstring).

    Arguments are :class:`~repro.core.lru_native.NativeLruEngine`'s:
    ``capacity_lines`` resident lines of ``line_bytes``, with
    ``geometry`` (same line size; ``None`` for none) giving each line's
    integrity-tree parent.
    """

    backend_name = "python"

    def __init__(self, capacity_lines: int, line_bytes: int = CACHE_BLOCK,
                 geometry: TreeGeometry | None = None) -> None:
        if capacity_lines <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity_lines}")
        self.capacity_lines = capacity_lines
        self.line_bytes = line_bytes
        self.geometry = engine_geometry(geometry, line_bytes)
        self._parent_of = self.geometry.parent_of
        #: Resident ``{line: dirty}`` in recency order, LRU first.
        self._lines: OrderedDict[int, bool] = OrderedDict()

    def load_state(self, lines: dict) -> None:
        """Adopt a cache's ``{line: dirty}`` contents, LRU first."""
        check_state_fits(lines, self.capacity_lines)
        self._lines = OrderedDict(lines)

    def export_state(self) -> list[tuple[int, bool]]:
        """``(line, dirty)`` pairs in recency order (LRU first)."""
        return list(self._lines.items())

    def probe_run_batch(self, mac_first: np.ndarray, mac_count: np.ndarray,
                        vn_first: np.ndarray, vn_count: np.ndarray,
                        dirty: np.ndarray, walk: np.ndarray,
                        flood: np.ndarray, sink: EventSink) -> np.ndarray:
        """Price a column of fused MAC/VN runs, floods and tree walks
        included; returns the per-row event end offsets.

        Row ``k`` describes one sequential access: ``mac_count[k]``
        consecutive MAC lines from address ``mac_first[k]``, then
        ``vn_count[k]`` consecutive VN lines from ``vn_first[k]``, each
        range probed in address order, dirty when ``dirty[k]``; when
        ``walk[k]``, the VN range's misses then climb the tree
        (:meth:`_walk`).
        ``flood[k]`` (bits :data:`FLOOD_MAC`, :data:`FLOOD_VN`) marks a
        range at least as large as the cache: instead of probing it the
        engine flushes, the dirty lines becoming the row's writebacks,
        and a flooded VN range skips the walk (the MAC range is probed
        or flushed first).

        Row ``k`` of the returned ``(rows, 3)`` array holds the sink's
        miss, writeback and parent-miss counts once row ``k`` is done,
        so each row's events are the slices between consecutive ends.
        """
        line_bytes = self.line_bytes
        misses: list[int] = []
        writebacks: list[int] = []
        parent_misses: list[int] = []
        events = (misses, writebacks, parent_misses)
        ends: list[tuple[int, int, int]] = []
        hits = 0
        rows = zip(mac_first.tolist(), mac_count.tolist(), vn_first.tolist(),
                   vn_count.tolist(), np.asarray(dirty, dtype=bool).tolist(),
                   np.asarray(walk, dtype=bool).tolist(),
                   np.asarray(flood, dtype=np.uint8).tolist())
        for mac_at, mac_n, vn_at, vn_n, run_dirty, run_walk, flags in rows:
            if flags & FLOOD_MAC:
                self._flush(writebacks)
                mac_n = 0
            if flags & FLOOD_VN:
                vn_n = 0
            if mac_n:
                hits += self._probe(
                    range(mac_at, mac_at + mac_n * line_bytes, line_bytes),
                    run_dirty, events)
            start = len(misses)
            if vn_n:
                vn = range(vn_at, vn_at + vn_n * line_bytes, line_bytes)
                hits += self._probe(vn, run_dirty, events)
                if run_walk:
                    hits += self._walk(vn, start, events)
            if flags & FLOOD_VN:
                self._flush(writebacks)
            ends.append((len(misses), len(writebacks), len(parent_misses)))
        offsets = np.array(ends, dtype=np.int64).reshape(len(ends), 3)
        offsets += (len(sink.misses), len(sink.writebacks),
                    len(sink.parent_misses))
        for chunks, lines in zip((sink.misses, sink.writebacks,
                                  sink.parent_misses), events):
            if lines:
                chunks.append(np.fromiter(lines, np.int64, len(lines)))
        sink.hits += hits
        sink.miss_count += len(misses) + len(parent_misses)
        sink.writeback_count += len(writebacks)
        return offsets

    def _flush(self, writebacks: list) -> None:
        """A flood: evict everything, the dirty lines (in recency order)
        becoming writebacks."""
        lines = self._lines
        writebacks.extend(compress(lines.keys(), lines.values()))
        lines.clear()

    def _walk(self, level, start: int, events: tuple) -> int:
        """Climb the integrity tree from the misses of ``level``, the
        row's VN range (probed from ``events[0][start]`` on), as C's
        ``walk_tick`` does; returns the hits.

        Each wave is :meth:`TreeGeometry.parents` of the previous level's
        misses, probed clean; the walk ends at the first level that
        fully hits, or above the top stored level.  A level that missed
        throughout is its own misses, so a range stays a range.
        """
        misses = events[0]
        parents = self.geometry.parents
        hits = 0
        while True:
            if len(misses) - start == len(level):
                wave = parents(level)
            else:
                wave = parents(misses[start:])
            if not wave:
                return hits
            start = len(misses)
            hits += self._probe(wave, False, events)
            level = wave

    def _probe(self, lines, dirty: bool, events: tuple) -> int:
        """Touch ``lines`` in order; returns the hits.  Misses append to
        ``events[0]``.

        A dirty victim's write-back chain runs before the next line, as
        ``MetadataCache._follow_chain`` does: the victim is written back
        and its parent touched dirty; a missing parent is a parent miss,
        inserted at the cost of the LRU line, and the chain goes on while
        that line is dirty.
        """
        cache = self._lines
        misses, writebacks, parent_misses = events
        popitem = cache.popitem
        move_to_end = cache.move_to_end
        miss = misses.append
        parent_of = self._parent_of
        room = self.capacity_lines - len(cache)
        hits = 0
        for line in lines:
            if line in cache:
                if dirty:
                    cache[line] = True
                move_to_end(line)
                hits += 1
                continue
            miss(line)
            cache[line] = dirty
            if room:
                room -= 1
                continue
            victim, victim_dirty = popitem(False)
            while victim_dirty:
                writebacks.append(victim)
                parent = parent_of(victim)
                if parent is None:
                    break
                if parent in cache:
                    cache[parent] = True
                    move_to_end(parent)
                    hits += 1
                    break
                parent_misses.append(parent)
                cache[parent] = True
                victim, victim_dirty = popitem(False)
        return hits
