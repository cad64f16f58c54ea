"""On-chip metadata cache for the baseline protection scheme.

The baseline (Intel-MEE-like) engine keeps recently used VN lines, MAC
lines and integrity-tree nodes in a small on-chip cache — 32 KB in the
paper's configuration — with LRU replacement, write-back and
write-allocate policies (§VI-A).  MGX deliberately has no such cache.

The model is a plain LRU over 64-byte line addresses.  ``access`` returns
whether the line hit and, on a miss that evicts a dirty line, the address
that must be written back.  The protection engine translates those
outcomes into DRAM traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.stats import StatsGroup
from repro.common.units import CACHE_BLOCK


@dataclass(frozen=True)
class CacheOutcome:
    """Result of one cache access."""

    hit: bool
    writeback_address: int | None = None


class MetadataCache:
    """Fully-associative write-back, write-allocate LRU cache of 64-byte
    metadata lines."""

    def __init__(self, capacity_bytes: int = 32 * 1024,
                 line_bytes: int = CACHE_BLOCK) -> None:
        if capacity_bytes <= 0 or capacity_bytes % line_bytes != 0:
            raise ConfigError(
                f"cache capacity {capacity_bytes} must be a positive multiple "
                f"of the line size {line_bytes}"
            )
        self.capacity_lines = capacity_bytes // line_bytes
        self.line_bytes = line_bytes
        #: line_address -> dirty flag; ordering is recency (LRU first).
        self._lines: "OrderedDict[int, bool]" = OrderedDict()
        self.stats = StatsGroup("metadata_cache")

    def _align(self, address: int) -> int:
        return address - (address % self.line_bytes)

    def access(self, address: int, dirty: bool = False) -> CacheOutcome:
        """Touch the line containing ``address``; allocate on miss.

        ``dirty`` marks the line modified (a VN increment or MAC update);
        dirty lines cost a writeback when evicted.
        """
        line = self._align(address)
        lines = self._lines
        if line in lines:
            lines[line] = lines[line] or dirty
            lines.move_to_end(line)
            self.stats.add("hits")
            return CacheOutcome(hit=True)

        self.stats.add("misses")
        writeback = None
        if len(lines) >= self.capacity_lines:
            victim, victim_dirty = lines.popitem(last=False)
            if victim_dirty:
                writeback = victim
                self.stats.add("writebacks")
        lines[line] = dirty
        return CacheOutcome(hit=False, writeback_address=writeback)

    def contains(self, address: int) -> bool:
        """Non-mutating lookup (no recency update); used by tests."""
        return self._align(address) in self._lines

    def contents(self) -> "OrderedDict[int, bool]":
        """The ``{line: dirty}`` map, recency-ordered (LRU first).

        This is the state the reuse-distance engine loads before pricing
        a trace; treat it as read-only.
        """
        return self._lines

    def set_contents(self, pairs: list) -> None:
        """Replace the cache contents (stats untouched) with ``(line,
        dirty)`` pairs in recency order — the engine's exported state
        after a priced trace."""
        self._lines = OrderedDict(pairs)

    def flush(self) -> list[int]:
        """Evict everything, returning dirty line addresses (end of run)."""
        dirty = [line for line, d in self._lines.items() if d]
        self._lines.clear()
        # Count only real events, like the engine's ``add_counts``.
        self.stats.add_counts({"writebacks": len(dirty)})
        return dirty

    @property
    def hit_rate(self) -> float:
        total = self.stats.get("hits") + self.stats.get("misses")
        return self.stats.get("hits") / total if total else 0.0

    def __len__(self) -> int:
        return len(self._lines)
