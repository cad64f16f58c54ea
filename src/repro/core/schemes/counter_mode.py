"""Counter-mode protection engine covering the paper's design space.

One configurable engine, :class:`CounterModeProtection`, covers the whole
design space of the paper:

=============  ==========  ===============  =========  =====================
scheme         VN source   MAC granularity  VN tree    metadata cache
=============  ==========  ===============  =========  =====================
``BP``         DRAM        64 B             8-ary      32 KB LRU write-back
``MGX``        on-chip     512 B (†)        none       none
``MGX_VN``     on-chip     64 B             none       none
``MGX_MAC``    DRAM        512 B (†)        8-ary      32 KB LRU write-back
=============  ==========  ===============  =========  =====================

(†) per-class overrides: embedding tables keep 64-B MACs because DLRM
gathers individual rows (§VI-A); graph adjacency tiles use one MAC per
tile (§V-B); GACT uses fine-grained MACs because tiles load from
effectively random offsets (§VII-A).

Modelling notes
---------------
* All DRAM transfers occur in 64-byte bursts: a metadata miss costs a
  full line even if only 8 bytes of it are needed.
* Within one block transfer the engine holds the current metadata line in
  a stream buffer, so a sequential transfer never refetches the same MAC
  or VN line — this is why MGX needs no metadata cache.
* Stored-VN misses walk the integrity tree towards the root, stopping at
  the first cached ancestor (the standard Bonsai-style optimization); a
  dirty line evicted from the metadata cache updates its parent, which
  can itself miss and evict — the model follows that chain.

Batch pricing
-------------
Every batch is priced through :meth:`CounterModeProtection.
pricing_session`.  On-chip-VN configurations without a metadata cache
are *stateless*: the traffic of an access is a pure function of the
access, so their session evaluates the same arithmetic as
:meth:`~CounterModeProtection.process` over whole NumPy columns at once.

Cached/tree configurations (BP, MGX_MAC) are order-dependent through the
LRU metadata cache — but only their *sequential* accesses mutate it:
gathers and per-access-MAC transfers price with closed-form arithmetic
that never touches LRU state.  Their session therefore decomposes each
priced batch — in ``perf.run``, the whole trace — into its pure
component (data amplification, gather MAC/VN/tree costs — evaluated as
NumPy columns) and the ordered sequence of *sequential runs*, and hands
the runs — each touching its metadata lines exactly once in ascending
order, per the stream-buffer guarantee — to the
:class:`~repro.core.lru_engine.LruEngine` in one ``probe_run_batch``
call, integrity-tree walks and write-back chains included.  A MAC or VN
range at least as large as the cache is a *flood* row: the engine
flushes instead of probing it, in row order, and its bytes are closed
form (every line misses).  The engine reports where each row's events
end, so per-phase traffic is a cumulative sum over per-access columns.
Sessions are pinned byte-for-byte, per phase, against the per-access
walk by ``tests/test_batch_pricing.py``, and the engine against
:meth:`MetadataCache.access` by ``tests/test_lru_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigError
from repro.common.stats import StatsGroup
from repro.common.units import CACHE_BLOCK, ceil_div, round_up
from repro.core.access import DATA_CLASSES, AccessBatch, DataClass, MemAccess
from repro.core.engine_backend import TreeGeometry, create_engine
from repro.core.lru_engine import FLOOD_MAC, FLOOD_VN, EventSink, LruEngine
from repro.core.merkle import TreeLayout
from repro.core.metadata_cache import MetadataCache
from repro.core.schemes.base import (
    _DATA_SEQ,
    _ENTRIES_PER_LINE,
    _MAC_SCAT,
    _MAC_SEQ,
    _TREE_SCAT,
    _TREE_SEQ,
    _VN_SCAT,
    _VN_SEQ,
    ENTRY_BYTES,
    TRAFFIC_FIELDS,
    PhaseTraffic,
    PricingSession,
    ProtectionScheme,
    ProtectionTraffic,
    _add_data,
    _burst_bytes,
    _is_stream,
    phase_sums,
    split_by_stream,
    stream_mask,
)


@dataclass(frozen=True)
class MacPolicy:
    """MAC granularity selection (§III-C, §V-B, §VI-A).

    ``default`` applies to bulk tensors; per-class overrides capture the
    paper's exceptions.  ``per_access`` classes get exactly one MAC per
    block transfer (the graph adjacency "one MAC per tile" scheme).
    """

    default: int = 512
    overrides: dict[DataClass, int] = field(default_factory=dict)
    per_access: frozenset[DataClass] = frozenset()

    def __post_init__(self) -> None:
        for gran in (self.default, *self.overrides.values()):
            if gran <= 0 or gran % CACHE_BLOCK != 0:
                raise ConfigError(
                    f"MAC granularity must be a positive multiple of "
                    f"{CACHE_BLOCK}, got {gran}"
                )

    def granularity_for(self, access: MemAccess) -> int:
        if access.data_class in self.per_access:
            # One MAC covering the entire transfer.
            return max(access.size, CACHE_BLOCK)
        return self.overrides.get(access.data_class, self.default)


#: The paper's MGX configuration: 512-B MACs except fine-grained
#: embeddings (DLRM) and genome data (GACT); one MAC per adjacency tile.
MGX_MAC_POLICY = MacPolicy(
    default=512,
    overrides={
        DataClass.EMBEDDING: 64,
        DataClass.SEQUENCE: 64,
        DataClass.TRACEBACK: 64,
    },
    per_access=frozenset({DataClass.ADJACENCY}),
)

#: Uniform fine-grained MACs (the baseline and the MGX_VN ablation).
FINE_MAC_POLICY = MacPolicy(default=64)


class CounterModeProtection(ProtectionScheme):
    """Counter-mode encryption + MAC integrity with configurable metadata.

    Parameters
    ----------
    vn_onchip:
        True — version numbers come from on-chip kernel state (MGX); no
        VN storage, no integrity tree.
        False — one VN entry per 64-B block lives in DRAM, protected by
        an 8-ary tree with an on-chip root (the conventional scheme).
    mac_policy:
        MAC granularity selection per data class.
    cache_bytes:
        Metadata cache capacity (0 disables it; the cache is required
        when ``vn_onchip`` is False).
    protected_bytes:
        Size of the protected data region; determines metadata layout and
        tree depth.
    """

    def __init__(
        self,
        name: str,
        vn_onchip: bool,
        mac_policy: MacPolicy,
        protected_bytes: int,
        cache_bytes: int = 0,
        tree_arity: int = 8,
    ) -> None:
        if protected_bytes <= 0:
            raise ConfigError("protected_bytes must be positive")
        if not vn_onchip and cache_bytes <= 0:
            raise ConfigError("stored-VN schemes require a metadata cache")
        self.name = name
        self.vn_onchip = vn_onchip
        self.mac_policy = mac_policy
        self.protected_bytes = protected_bytes
        self.cache_bytes = cache_bytes
        self.stats = StatsGroup(name)

        # ---- metadata address layout -------------------------------------
        data_blocks = ceil_div(protected_bytes, CACHE_BLOCK)
        self._mac_base = round_up(protected_bytes, CACHE_BLOCK)
        mac_region = round_up(data_blocks * ENTRY_BYTES, CACHE_BLOCK)
        self._vn_base = self._mac_base + mac_region
        vn_region = round_up(data_blocks * ENTRY_BYTES, CACHE_BLOCK)
        self._tree_base = self._vn_base + vn_region
        self._vn_lines = max(1, vn_region // CACHE_BLOCK)
        self._tree = (
            TreeLayout(self._vn_lines, arity=tree_arity, base_address=self._tree_base)
            if not vn_onchip
            else None
        )
        self._cache = MetadataCache(cache_bytes) if cache_bytes else None
        #: Reuse-distance engine for batched pricing; created lazily on
        #: the ``REPRO_ENGINE``-selected backend and kept across resets
        #: (its tree-parent tables depend only on the metadata layout,
        #: which is fixed per scheme instance).
        self._engine = None
        #: Compiled region table for the engine, memoized alongside it.
        self._geometry_memo = None
        self._finished = False

    # ------------------------------------------------------------------
    def reset(self) -> None:
        if self._cache is not None:
            self._cache = MetadataCache(self.cache_bytes)
        self.stats.reset()
        self._finished = False

    @property
    def cache(self) -> MetadataCache | None:
        return self._cache

    @property
    def tree_layout(self) -> TreeLayout | None:
        return self._tree

    @property
    def onchip_state_bytes(self) -> int:
        root = 32 if not self.vn_onchip else 0
        return self.cache_bytes + root

    @property
    def metadata_storage_bytes(self) -> int:
        """DRAM consumed by metadata (MACs always; VNs + tree when stored).

        On-chip-VN schemes store one MAC entry per default-granularity
        granule (per-class overrides only re-shape small sub-tables);
        stored-VN schemes use the fine-grained layout plus the tree.
        """
        if self.vn_onchip:
            return ceil_div(self.protected_bytes, self.mac_policy.default) * ENTRY_BYTES
        assert self._tree is not None
        mac = self._vn_base - self._mac_base
        return mac + (self._tree_base - self._vn_base) + self._tree.total_bytes

    # ------------------------------------------------------------------
    def process(self, access: MemAccess) -> ProtectionTraffic:
        if access.end > self.protected_bytes:
            raise ConfigError(
                f"access [{access.address:#x},{access.end:#x}) beyond protected "
                f"region of {self.protected_bytes:#x} bytes"
            )
        traffic = ProtectionTraffic()
        self._process_data_and_mac(access, traffic)
        if not self.vn_onchip:
            self._process_stored_vns(access, traffic)
        self._account(access, traffic)
        return traffic

    def finish(self) -> ProtectionTraffic:
        """Flush the metadata cache: every dirty line becomes a writeback."""
        traffic = ProtectionTraffic()
        if self._cache is not None and not self._finished:
            for line in self._cache.flush():
                self._route_metadata(traffic, line, CACHE_BLOCK, sequential=False)
        self._finished = True
        self.stats.add("writeback_bytes", traffic.metadata_bytes)
        return traffic

    # ------------------------------------------------------------------
    def _batch_columns(self, batch: AccessBatch) -> "_BatchColumns":
        """Vectorized per-access pricing columns shared by both batch paths.

        Mirrors the scalar path exactly, branch for branch, in int64:
        per-access-MAC classes, sequential granule spans, and gathered
        bursts each follow the same formulas, so every derived column is
        equal to what the per-access walk computes access by access.
        """
        address, size = batch.address, batch.size
        end = address + size
        over = end > self.protected_bytes
        if over.any():
            i = int(np.argmax(over))
            raise ConfigError(
                f"access [{int(address[i]):#x},{int(end[i]):#x}) beyond protected "
                f"region of {self.protected_bytes:#x} bytes"
            )
        is_write = batch.is_write
        seq = batch.sequential
        stream = stream_mask(batch)
        gran_of_code, per_access_code = self._gran_tables()
        gran = gran_of_code[batch.data_class]
        per_access = per_access_code[batch.data_class]

        # Sequential spans: whole granules are verified, partial reads
        # amplify; MAC lines are the span of 8-byte entries.
        first = address // gran
        last = (end - 1) // gran
        n_granules = last - first + 1
        seq_amp = np.where(is_write, 0, n_granules * gran - size)
        seq_mac_lines = (
            (last * ENTRY_BYTES) // CACHE_BLOCK - (first * ENTRY_BYTES) // CACHE_BLOCK + 1
        )
        seq_mac = seq_mac_lines * CACHE_BLOCK

        burst = np.where(batch.burst_bytes > 0, batch.burst_bytes, CACHE_BLOCK)
        n_bursts = np.maximum(1, size // burst)
        if seq.all():
            # No gathers: skip the per-burst columns (their values are
            # never selected) — most DNN batches are purely sequential.
            gather_mac = np.zeros(len(batch), dtype=np.int64)
            data = size + np.where(per_access, 0, seq_amp)
        else:
            # Gathers: each burst verifies whole granules and fetches its
            # own (contiguous) MAC entries.
            granules_per_burst = -(-burst // gran)
            gather_amp = np.where(
                is_write, 0, np.maximum(0, n_bursts * granules_per_burst * gran - size)
            )
            lines_per_burst = -(-granules_per_burst // _ENTRIES_PER_LINE)
            gather_mac = n_bursts * lines_per_burst * CACHE_BLOCK
            data = size + np.where(per_access, 0, np.where(seq, seq_amp, gather_amp))
        return _BatchColumns(
            end=end, is_write=is_write, seq=seq, stream=stream,
            per_access=per_access, first=first, last=last,
            seq_mac=seq_mac, burst=burst, n_bursts=n_bursts,
            gather_mac=gather_mac, data=data,
        )

    def _gran_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached per-class-code (granularity, per-access) tables.

        The policy is immutable (and validated on construction), so the
        tables are computed once per scheme.
        """
        tables = getattr(self, "_gran_tables_cache", None)
        if tables is None:
            gran_of_code = np.full(len(DATA_CLASSES), CACHE_BLOCK, dtype=np.int64)
            per_access_code = np.zeros(len(DATA_CLASSES), dtype=np.bool_)
            for code, data_class in enumerate(DATA_CLASSES):
                if data_class in self.mac_policy.per_access:
                    per_access_code[code] = True
                else:
                    gran_of_code[code] = self.mac_policy.overrides.get(
                        data_class, self.mac_policy.default
                    )
            tables = (gran_of_code, per_access_code)
            self._gran_tables_cache = tables
        return tables

    def _price_batch_stateless(self, batch: AccessBatch,
                               phase_offsets: np.ndarray) -> PhaseTraffic:
        """Columnar evaluation of :meth:`_process_data_and_mac`."""
        cols = self._batch_columns(batch)
        mac = np.where(
            cols.per_access, CACHE_BLOCK,
            np.where(cols.seq, cols.seq_mac, cols.gather_mac),
        )
        per_access = self._pure_columns(cols, mac)
        traffic = PhaseTraffic(phase_sums(per_access, phase_offsets))
        self._account_batch(batch, traffic.total())
        return traffic

    def _pure_columns(self, cols: "_BatchColumns",
                      mac: np.ndarray) -> np.ndarray:
        """Per-access traffic table of the data and ``mac`` columns,
        split by stream."""
        per_access = np.zeros((len(cols.data), len(TRAFFIC_FIELDS)),
                              dtype=np.int64)
        split_by_stream(per_access, _DATA_SEQ, cols.data, cols.stream)
        split_by_stream(per_access, _MAC_SEQ, mac, cols.stream)
        return per_access

    def pricing_session(self) -> PricingSession:
        """Stateless columnar pricing without a cache; otherwise one
        reuse-distance engine pass over the session's metadata-line
        stream (:class:`_EngineSession`)."""
        if self._cache is None:
            return PricingSession(self)
        return _EngineSession(self)

    def _lru_engine(self):
        assert self._cache is not None
        if self._engine is None:
            self._engine = create_engine(
                self._cache.capacity_lines,
                line_bytes=self._cache.line_bytes,
                geometry=self._tree_geometry(),
            )
        return self._engine

    @property
    def engine_backend(self) -> str:
        """Which LRU-engine backend prices this scheme's runs."""
        if self._cache is None:
            return "none"
        return self._lru_engine().backend_name

    def _tree_geometry(self) -> TreeGeometry:
        """The metadata layout's parent function as a flat region table.

        Encodes exactly :meth:`_parent_of` (pinned equal by
        ``tests/test_engine_backend.py``): the VN region maps to level-1
        tree nodes, each stored level below the top to the next, and MAC
        lines / the top stored level (whose parent is the on-chip root)
        fall in no region.  It is the only parent description the
        pricing engine gets, on either backend.  Memoized per scheme
        instance, so repeated ``pricing_session()`` opens stop
        rebuilding it.
        """
        if self._geometry_memo is not None:
            return self._geometry_memo
        regions: list[tuple[int, int, int, int]] = []
        tree = self._tree
        if tree is not None and tree.stored_levels >= 1:
            regions.append((self._vn_base, self._tree_base,
                            tree.level_base(1), tree.arity))
            for level in range(1, tree.stored_levels):
                base = tree.level_base(level)
                end = base + tree.level_sizes[level - 1] * CACHE_BLOCK
                regions.append((base, end, tree.level_base(level + 1),
                                tree.arity))
        memo = TreeGeometry(tuple(regions), CACHE_BLOCK)
        self._geometry_memo = memo
        return memo

    def _price_batch_engine(self, batch: AccessBatch,
                            phase_offsets: np.ndarray, engine: LruEngine,
                            sink: EventSink) -> PhaseTraffic:
        """Engine-backed per-phase pricing for cached/tree configurations.

        Pure components — data amplification, per-access MACs, gather
        MAC/VN/tree costs — are NumPy columns (gathers never mutate the
        LRU cache, so hoisting them out of order is exact).  The
        sequential runs go through the reuse-distance engine in one
        call.  Every cost lands in a per-access table row, so per-phase
        traffic is one cumulative sum at the phase offsets.
        """
        cols = self._batch_columns(batch)
        # Pure MAC component: per-access classes move one line per
        # transfer; gathers fetch per-burst MAC lines without caching.
        pure_mac = np.where(
            cols.per_access, CACHE_BLOCK, np.where(cols.seq, 0, cols.gather_mac)
        )
        per_access = self._pure_columns(cols, pure_mac)
        if not self.vn_onchip:
            self._price_vn_gathers(batch, cols, per_access)
        seq_index = np.nonzero(cols.seq)[0]
        if len(seq_index):
            self._price_runs(batch, cols, seq_index, engine, sink, per_access)
        traffic = PhaseTraffic(phase_sums(per_access, phase_offsets))
        self._account_batch(batch, traffic.total())
        return traffic

    def _price_runs(self, batch: AccessBatch, cols: "_BatchColumns",
                    seq_index: np.ndarray, engine: LruEngine,
                    sink: EventSink, per_access: np.ndarray) -> None:
        """Price the batch's sequential runs through the LRU engine.

        Each sequential access contributes one run of MAC lines (unless
        its class is per-access) and, under stored VNs, one run of VN
        lines followed by the integrity-tree walk of its missed leaves —
        in batch order, exactly as the per-access walk would.  The runs
        are packed as columns (first line, length, dirty, walk, flood)
        and handed to the engine in one
        :meth:`LruEngine.probe_run_batch` call.  A range at least as
        large as the cache is flagged as a flood, the threshold
        :meth:`_mac_segment`/:meth:`_vn_segment` use: the engine flushes
        instead of probing it, and its stream bytes are closed form
        here — every line misses (and, written, goes back out), and a
        VN flood sweeps ``ceil(n / arity^k)`` level-``k`` tree nodes.
        The engine's per-row event end offsets route every miss and
        writeback to its row's entry in ``per_access``.
        """
        capacity = self._cache.capacity_lines
        line_bytes = CACHE_BLOCK
        n = len(seq_index)
        first_idx = (self._mac_base + cols.first * ENTRY_BYTES) // line_bytes
        last_idx = (self._mac_base + cols.last * ENTRY_BYTES) // line_bytes
        mac_count = np.where(cols.per_access, 0,
                             last_idx - first_idx + 1)[seq_index]
        mac_first = first_idx[seq_index] * line_bytes
        stored = not self.vn_onchip
        if stored:
            vn_first_idx = (
                (batch.address // line_bytes) // _ENTRIES_PER_LINE
            )[seq_index]
            vn_last_idx = (
                ((cols.end - 1) // line_bytes) // _ENTRIES_PER_LINE
            )[seq_index]
            vn_count = vn_last_idx - vn_first_idx + 1
            vn_first = self._vn_base + vn_first_idx * line_bytes
            walk = np.ones(n, dtype=bool)
        else:
            vn_count = np.zeros(n, dtype=np.int64)
            vn_first = np.zeros(n, dtype=np.int64)
            walk = np.zeros(n, dtype=bool)
        dirty = cols.is_write[seq_index]
        mac_flood = mac_count >= capacity
        vn_flood = vn_count >= capacity
        flood = (mac_flood * FLOOD_MAC + vn_flood * FLOOD_VN).astype(np.uint8)
        ends = engine.probe_run_batch(mac_first, mac_count, vn_first,
                                      vn_count, dirty, walk, flood, sink)
        rows = np.zeros((n, len(TRAFFIC_FIELDS)), dtype=np.int64)
        stream_bytes = np.where(dirty, 2, 1) * CACHE_BLOCK
        rows[:, _MAC_SEQ] = np.where(mac_flood, mac_count * stream_bytes, 0)
        rows[:, _VN_SEQ] = np.where(vn_flood, vn_count * stream_bytes, 0)
        if vn_flood.any():
            rows[:, _TREE_SEQ] = np.where(
                vn_flood, self._flood_tree_nodes(vn_count) * stream_bytes, 0)
        # The sink held no events before this call, so the row ends
        # index straight into the drained arrays.  Stream misses (probed MAC/VN lines and walked tree nodes)
        # fetch with the stream; write-backs and the ancestor misses of
        # their chains land at effectively random addresses, so both are
        # scattered — exactly as the per-line walk routed them, with the
        # mac/vn/tree split recovered from the metadata address layout.
        self._route_row_events(rows, _MAC_SEQ, sink.drain_misses(), ends[:, 0])
        self._route_row_events(rows, _MAC_SCAT, sink.drain_writebacks(),
                               ends[:, 1])
        rows[:, _TREE_SCAT] += CACHE_BLOCK * np.diff(ends[:, 2], prepend=0)
        sink.drain_parent_misses()
        per_access[seq_index] += rows

    def _route_row_events(self, rows: np.ndarray, mac_column: int,
                          lines: np.ndarray, row_ends: np.ndarray) -> None:
        """Add each row's events (``lines[row_ends[k-1]:row_ends[k]]``)
        to its mac/vn/tree columns (``mac_column`` and every second
        column after it), by address."""
        if not len(lines):
            return
        bounds = np.concatenate(([0], row_ends))
        # Events before each bound that lie below the VN / tree region.
        below_vn = np.diff(np.searchsorted(
            np.flatnonzero(lines < self._vn_base), bounds))
        below_tree = np.diff(np.searchsorted(
            np.flatnonzero(lines < self._tree_base), bounds))
        events = np.diff(bounds)
        rows[:, mac_column] += below_vn * CACHE_BLOCK
        rows[:, mac_column + 2] += (below_tree - below_vn) * CACHE_BLOCK
        rows[:, mac_column + 4] += (events - below_tree) * CACHE_BLOCK

    def _flood_tree_nodes(self, n_lines: np.ndarray) -> np.ndarray:
        """Tree nodes a VN flood of ``n_lines`` lines sweeps (the
        vectorized level loop of :meth:`_vn_flood`)."""
        assert self._tree is not None
        nodes = np.zeros(len(n_lines), dtype=np.int64)
        remaining = n_lines.copy()
        active = np.ones(len(n_lines), dtype=bool)
        for _level in range(self._tree.stored_levels):
            remaining = -(-remaining // self._tree.arity)
            nodes += np.where(active, remaining, 0)
            active &= remaining != 1
            if not active.any():
                break
        return nodes

    def _price_vn_gathers(self, batch: AccessBatch, cols: "_BatchColumns",
                          per_access: np.ndarray) -> None:
        """Vectorized :meth:`_vn_gather` over the batch's gather rows."""
        assert self._cache is not None and self._tree is not None
        gather = ~cols.seq
        if not gather.any():
            return
        data_per_line = _ENTRIES_PER_LINE * CACHE_BLOCK
        spread = np.where(batch.spread_bytes > 0, batch.spread_bytes, batch.size)
        spread_lines = np.maximum(1, -(-spread // data_per_line))
        lines_per_burst = np.maximum(1, -(-cols.burst // data_per_line))
        hot_lines = self._cache.capacity_lines // 4
        per_burst = cols.n_bursts * lines_per_burst
        vn_misses = np.where(
            spread_lines <= hot_lines, np.minimum(per_burst, spread_lines), per_burst
        )
        factor = np.where(cols.is_write, 2, 1)
        per_access[:, _VN_SCAT] += np.where(
            gather, factor * vn_misses * CACHE_BLOCK, 0)

        # Tree walk: levels small enough to be cache-hot stop the walk.
        # Only gather rows participate — sequential rows would otherwise
        # keep the loop alive for levels whose results are discarded.
        nodes = spread_lines.copy()
        fetches = np.zeros(len(batch), dtype=np.int64)
        active = gather.copy()
        for _level in range(self._tree.stored_levels):
            nodes = -(-nodes // self._tree.arity)
            active &= nodes > hot_lines
            if not active.any():
                break
            fetches += np.where(active, np.minimum(cols.n_bursts, nodes), 0)
        per_access[:, _TREE_SCAT] += np.where(
            gather, factor * fetches * CACHE_BLOCK, 0)

    def _account_batch(self, batch: AccessBatch, traffic: ProtectionTraffic) -> None:
        self.stats.add("accesses", len(batch))
        self.stats.add("data_bytes", int(batch.size.sum()))
        self.stats.add("mac_bytes", traffic.mac_bytes)
        self.stats.add("vn_bytes", traffic.vn_bytes)
        self.stats.add("tree_bytes", traffic.tree_bytes)

    # ------------------------------------------------------------------
    def _process_data_and_mac(self, access: MemAccess, traffic: ProtectionTraffic) -> None:
        burst = _burst_bytes(access)
        stream = _is_stream(access)

        if access.data_class in self.mac_policy.per_access:
            # One MAC covers this whole transfer (the tile is the granule,
            # aligned at the tile's own address): no read amplification,
            # one metadata line moved alongside the payload.
            _add_data(traffic, access, access.size)
            self._mac_traffic(traffic, access, None, None, CACHE_BLOCK, stream)
            return

        gran = self.mac_policy.granularity_for(access)

        if access.sequential:
            first = access.address // gran
            last = (access.end - 1) // gran
            n_granules = last - first + 1
            # Reading a partial granule still verifies the whole granule.
            amplification = n_granules * gran - access.size if not access.is_write else 0
            _add_data(traffic, access, access.size + amplification)
            mac_lines = self._span_lines(first, last, ENTRY_BYTES)
            mac_bytes = mac_lines * CACHE_BLOCK
            self._mac_traffic(traffic, access, first, last, mac_bytes, stream)
        else:
            # A gather of `size/burst` disjoint bursts.
            n_bursts = max(1, access.size // burst)
            granules_per_burst = ceil_div(burst, gran)
            amplification = 0
            if not access.is_write:
                # Each burst must read whole MAC granules to verify them.
                amplification = max(0, n_bursts * granules_per_burst * gran - access.size)
            _add_data(traffic, access, access.size + amplification)
            # Each burst's MAC entries are contiguous: one line fetch per
            # burst unless the burst spans more than 8 granules.
            lines_per_burst = ceil_div(granules_per_burst, _ENTRIES_PER_LINE)
            mac_bytes = n_bursts * lines_per_burst * CACHE_BLOCK
            self._mac_traffic(traffic, access, None, None, mac_bytes, stream)

    def _mac_traffic(
        self,
        traffic: ProtectionTraffic,
        access: MemAccess,
        first_granule: int | None,
        last_granule: int | None,
        mac_bytes: int,
        stream: bool,
    ) -> None:
        """Account MAC movement, via the cache when one exists."""
        if self._cache is None or first_granule is None:
            # Stream-buffered MAC lines ride alongside the data (MGX) or,
            # for gathers under a cached scheme, miss per burst anyway.
            if stream:
                traffic.mac_seq += mac_bytes
            else:
                traffic.mac_scat += mac_bytes
            return
        # Cached path (BP / MGX_MAC); sequential spans are always streams.
        self._mac_segment(traffic, first_granule, last_granule, access.is_write)

    def _mac_segment(self, traffic: ProtectionTraffic, first_granule: int,
                     last_granule: int, writes: bool) -> None:
        """One sequential run of MAC lines through the metadata cache.

        The stream buffer guarantees each distinct MAC line is touched
        once, in ascending order.
        """
        assert self._cache is not None
        first_line = (self._mac_base + first_granule * ENTRY_BYTES) // CACHE_BLOCK
        last_line = (self._mac_base + last_granule * ENTRY_BYTES) // CACHE_BLOCK
        n_lines = last_line - first_line + 1
        if n_lines >= self._cache.capacity_lines:
            # Flood: the range alone evicts the whole cache.  Exact-LRU
            # outcome for a reuse-free stream: every line misses; dirty
            # residents and (for writes) the stream's own lines wash out.
            self._flush_as_writebacks(traffic)
            traffic.mac_seq += n_lines * CACHE_BLOCK
            if writes:
                traffic.mac_seq += n_lines * CACHE_BLOCK
            return
        self._touch_lines(traffic, first_line * CACHE_BLOCK, n_lines, writes)

    def _touch_lines(self, traffic: ProtectionTraffic, base_address: int,
                     n_lines: int, writes: bool) -> list[int]:
        """Access ``n_lines`` consecutive lines in ascending order.

        Misses fetch with the stream; each dirty victim's write-back
        chain is followed before the next line is touched.  Returns the
        missed line addresses.
        """
        missed = []
        for address in range(base_address, base_address + n_lines * CACHE_BLOCK,
                             CACHE_BLOCK):
            outcome = self._cache.access(address, dirty=writes)
            if not outcome.hit:
                self._route_metadata(traffic, address, CACHE_BLOCK,
                                     sequential=True)
                missed.append(address)
            if outcome.writeback_address is not None:
                self._handle_writeback(traffic, outcome.writeback_address)
        return missed

    def _flush_as_writebacks(self, traffic: ProtectionTraffic) -> None:
        """Evict everything from the cache ahead of a flooding stream."""
        assert self._cache is not None
        for line in self._cache.flush():
            self._route_metadata(traffic, line, CACHE_BLOCK, sequential=False)

    def _process_stored_vns(self, access: MemAccess, traffic: ProtectionTraffic) -> None:
        """VN-line accesses plus the integrity-tree walk for misses."""
        assert self._cache is not None and self._tree is not None
        if not access.sequential:
            self._vn_gather(access, traffic)
            return
        self._vn_segment(traffic, access.address, access.end, access.is_write)

    def _vn_segment(self, traffic: ProtectionTraffic, address: int, end: int,
                    writes: bool) -> None:
        """One sequential run of VN lines, then the tree walk of its misses."""
        assert self._cache is not None and self._tree is not None
        first_line = (address // CACHE_BLOCK) // _ENTRIES_PER_LINE
        last_line = ((end - 1) // CACHE_BLOCK) // _ENTRIES_PER_LINE
        n_lines = last_line - first_line + 1
        if n_lines >= self._cache.capacity_lines:
            self._vn_flood(traffic, n_lines, writes)
            return
        missed = self._touch_lines(
            traffic, self._vn_base + first_line * CACHE_BLOCK, n_lines, writes
        )
        if missed:
            missed_leaves = [
                (line - self._vn_base) // CACHE_BLOCK for line in missed
            ]
            self._walk_tree(traffic, missed_leaves)

    def _vn_flood(self, traffic: ProtectionTraffic, n_lines: int,
                  writes: bool) -> None:
        """Closed-form LRU outcome for a VN-line range larger than the cache.

        A reuse-free stream of ``n_lines`` distinct lines through an LRU
        cache misses on every line; every previously-resident dirty line
        is evicted, and (for writes) the stream's own dirtied lines wash
        out behind it.  Tree traffic follows the same geometry: each
        level-k node covers ``arity^k`` leaves, so the stream touches
        ``ceil(n / arity^k)`` of them, once each.
        """
        assert self._tree is not None
        self._flush_as_writebacks(traffic)
        traffic.vn_seq += n_lines * CACHE_BLOCK
        if writes:  # read-modify-write: the fetched lines go back out dirty
            traffic.vn_seq += n_lines * CACHE_BLOCK
        tree_nodes = 0
        remaining = n_lines
        for _level in range(self._tree.stored_levels):
            remaining = ceil_div(remaining, self._tree.arity)
            tree_nodes += remaining
            if remaining == 1:
                break
        factor = 2 if writes else 1  # writes update the path as well
        traffic.tree_seq += factor * tree_nodes * CACHE_BLOCK

    def _vn_gather(self, access: MemAccess, traffic: ProtectionTraffic) -> None:
        """Stored-VN cost of a gather spread across ``spread_bytes``.

        Each burst touches one (or more) VN lines at an effectively random
        offset within the spread region.  Tree levels whose node count
        within the spread fits comfortably in the cache are hot and end
        the walk; lower levels miss once per burst.
        """
        assert self._cache is not None and self._tree is not None
        burst = _burst_bytes(access)
        n_bursts = max(1, access.size // burst)
        spread = access.spread_bytes or access.size
        writes = access.is_write
        data_per_line = _ENTRIES_PER_LINE * CACHE_BLOCK  # bytes covered by a VN line
        spread_lines = max(1, ceil_div(spread, data_per_line))
        lines_per_burst = max(1, ceil_div(burst, data_per_line))

        hot_lines = self._cache.capacity_lines // 4  # cache shared with MACs/tree
        if spread_lines <= hot_lines:
            # The whole spread's VN lines stay resident: only cold misses.
            vn_misses = min(n_bursts * lines_per_burst, spread_lines)
        else:
            vn_misses = n_bursts * lines_per_burst
        traffic.vn_scat += vn_misses * CACHE_BLOCK
        if writes:
            traffic.vn_scat += vn_misses * CACHE_BLOCK

        # Tree walk: levels small enough to be cache-hot stop the walk.
        tree_fetches = 0
        nodes = spread_lines
        for _level in range(self._tree.stored_levels):
            nodes = ceil_div(nodes, self._tree.arity)
            if nodes <= hot_lines:
                break
            tree_fetches += min(n_bursts, nodes)
        factor = 2 if writes else 1
        traffic.tree_scat += factor * tree_fetches * CACHE_BLOCK

    def _walk_tree(self, traffic: ProtectionTraffic,
                   missed_leaves: list[int]) -> None:
        """Verify missed VN lines: probe ancestors until a cached one.

        Contiguous leaves share ancestors, so the walk proceeds level by
        level over the *unique* parent set of the nodes that missed; the
        missed nodes fetch with the stream.
        """
        assert self._cache is not None and self._tree is not None
        tree = self._tree
        pending = sorted(set(missed_leaves))
        for level in range(1, tree.stored_levels + 1):
            parents = sorted({index // tree.arity for index in pending})
            pending = []
            for parent in parents:
                address = tree.node_address(level, parent)
                outcome = self._cache.access(address, dirty=False)
                if not outcome.hit:
                    self._route_metadata(
                        traffic, address, CACHE_BLOCK, sequential=True, category="tree"
                    )
                    pending.append(parent)
                if outcome.writeback_address is not None:
                    self._handle_writeback(traffic, outcome.writeback_address)
            if not pending:
                break  # every path reached a verified (cached) ancestor

    def _handle_writeback(self, traffic: ProtectionTraffic, address: int) -> None:
        """A dirty metadata line leaves the chip; its parent must be updated.

        The parent access can itself miss and evict — the chain is
        followed iteratively.  Writebacks land at effectively random
        addresses relative to the current stream, so they are scattered.
        """
        assert self._cache is not None
        queue = [address]
        while queue:
            line_address = queue.pop()
            self._route_metadata(traffic, line_address, CACHE_BLOCK, sequential=False)
            parent = self._parent_of(line_address)
            if parent is None:
                continue
            outcome = self._cache.access(parent, dirty=True)
            if not outcome.hit:
                self._route_metadata(
                    traffic, parent, CACHE_BLOCK, sequential=False, category="tree"
                )
            if outcome.writeback_address is not None:
                queue.append(outcome.writeback_address)

    def _parent_of(self, line_address: int) -> int | None:
        """Tree parent of a VN line or tree node (None for MAC lines/top)."""
        if self._tree is None:
            return None
        tree = self._tree
        if self._vn_base <= line_address < self._tree_base:
            leaf = (line_address - self._vn_base) // CACHE_BLOCK
            if tree.stored_levels >= 1:
                return tree.node_address(1, leaf // tree.arity)
            return None
        if line_address >= self._tree_base:
            for level in range(1, tree.stored_levels + 1):
                base = tree.node_address(level, 0)
                size = tree.level_sizes[level - 1] * CACHE_BLOCK
                if base <= line_address < base + size:
                    if level == tree.stored_levels:
                        return None  # parent is the on-chip root
                    index = (line_address - base) // CACHE_BLOCK
                    return tree.node_address(level + 1, index // tree.arity)
        return None

    def _route_metadata(
        self,
        traffic: ProtectionTraffic,
        address: int,
        nbytes: int,
        sequential: bool,
        category: str | None = None,
    ) -> None:
        """Attribute a metadata transfer to the mac/vn/tree bucket."""
        if category is None:
            if address < self._vn_base:
                category = "mac"
            elif address < self._tree_base:
                category = "vn"
            else:
                category = "tree"
        key = f"{category}_{'seq' if sequential else 'scat'}"
        setattr(traffic, key, getattr(traffic, key) + nbytes)

    @staticmethod
    def _span_lines(first_granule: int, last_granule: int, entry_bytes: int) -> int:
        """Distinct 64-B metadata lines covering entries [first, last]."""
        first_line = first_granule * entry_bytes // CACHE_BLOCK
        last_line = last_granule * entry_bytes // CACHE_BLOCK
        return last_line - first_line + 1

    def _account(self, access: MemAccess, traffic: ProtectionTraffic) -> None:
        self.stats.add("accesses")
        self.stats.add("data_bytes", access.size)
        self.stats.add("mac_bytes", traffic.mac_bytes)
        self.stats.add("vn_bytes", traffic.vn_bytes)
        self.stats.add("tree_bytes", traffic.tree_bytes)


@dataclass(frozen=True)
class _BatchColumns:
    """Per-access pricing columns derived once per batch (all int64/bool).

    Every column mirrors a quantity the scalar walk computes per access;
    the batch paths consume them either as vectorized sums (pure
    components) or as the run columns the LRU engine probes in order.
    """

    end: np.ndarray
    is_write: np.ndarray
    seq: np.ndarray
    stream: np.ndarray
    per_access: np.ndarray
    first: np.ndarray  # first MAC granule per access
    last: np.ndarray  # last MAC granule per access
    seq_mac: np.ndarray  # stream-buffered MAC bytes of a sequential span
    burst: np.ndarray  # gather burst size (default-resolved)
    n_bursts: np.ndarray
    gather_mac: np.ndarray  # per-burst MAC line fetches of a gather
    data: np.ndarray  # payload + verification read amplification


class _EngineSession(PricingSession):
    """Engine-backed pricing session for cached/tree configurations.

    Loads the metadata cache's LRU state into the reuse-distance engine
    once, prices each ``price`` call's batch against it (``perf.run``
    makes one call per trace), and writes state and hit/miss/writeback
    counts back on :meth:`close`, so the per-access reference continues
    from the same cache contents.  Those three engine calls —
    ``load_state``, ``probe_run_batch`` and ``export_state`` — are the
    engine's whole public surface.
    """

    def __init__(self, scheme: CounterModeProtection) -> None:
        super().__init__(scheme)
        assert scheme._cache is not None
        self._engine = scheme._lru_engine()
        self._engine.load_state(scheme._cache.contents())
        self._sink = EventSink()
        self._closed = False

    def _price(self, batch: AccessBatch,
               phase_offsets: np.ndarray) -> PhaseTraffic:
        return self._scheme._price_batch_engine(batch, phase_offsets,
                                                self._engine, self._sink)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        cache = self._scheme._cache
        cache.set_contents(self._engine.export_state())
        cache.stats.add_counts({
            "hits": self._sink.hits,
            "misses": self._sink.miss_count,
            "writebacks": self._sink.writeback_count,
        })
