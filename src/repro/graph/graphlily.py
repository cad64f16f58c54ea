"""GraphLily-like SpMV accelerator: per-tile trace generation (§V, Fig. 10).

The accelerator computes the updated attribute vector one destination
block at a time.  For each destination block it streams the adjacency
tiles pairing that block with every source block, gathering the source
block's attribute slice, and finally writes the destination slice —
exactly the schedule of Fig. 10.  Per tile we append to the trace:

* an ADJACENCY read of the tile's CSR payload (tile-granularity MAC
  under MGX — one MAC per tile, §V-B),
* a VECTOR read of the source attribute slice with VN = Iter − 1,

and per destination block a VECTOR write with VN = Iter
(:class:`~repro.core.vngen.IterationVnState`).

The two attribute vectors (current and updated) live in two regions that
swap roles every iteration, so the same addresses are rewritten with
increasing VNs — the pattern MGX's single ``Iter`` counter covers.

Scaling note: benchmark graphs are scaled down by 1/64 (see
:mod:`repro.graph.generators`); the on-chip vector buffer is scaled by
the same factor so the tiling ratios — and therefore the traffic ratios —
match the full-size runs.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from functools import lru_cache

import numpy as np

from repro.common.errors import ConfigError
from repro.common.units import GIB, KIB, MHZ, ceil_div
from repro.core.access import AccessKind, DataClass, Trace, TraceBuilder
from repro.core.vngen import IterationVnState
from repro.dram.model import DramConfig
from repro.graph.algorithms import bfs, pagerank
from repro.graph.csr import CsrMatrix
from repro.mem.layout import AddressSpace


@dataclass(frozen=True)
class GraphAcceleratorConfig:
    """GraphLily-like machine: SpMV lanes + a banked on-chip vector buffer."""

    name: str = "GraphLily"
    freq_hz: float = 800 * MHZ  # §VI-A
    #: Edges processed per cycle across all processing lanes; sized so the
    #: engine saturates the four DDR4 channels (memory-bound, as the
    #: paper's Fig. 14 slowdowns tracking traffic imply).
    lanes: int = 16
    #: On-chip buffer holding one attribute-vector slice (scaled, see above).
    vector_buffer_bytes: int = 128 * KIB
    index_bytes: int = 4
    value_bytes: int = 4
    dram: DramConfig = field(default_factory=lambda: DramConfig(channels=4))
    protected_bytes: int = 16 * GIB

    def cache_key(self) -> tuple:
        """Stable primitive tuple identifying this configuration.

        The trace/sweep caches key workloads on this (not on the config
        object itself) so equal configurations constructed separately hit
        the same entry, and the key's ``repr`` is stable across processes
        — a requirement of the disk cache tier.
        """
        return (
            self.name, self.freq_hz, self.lanes, self.vector_buffer_bytes,
            self.index_bytes, self.value_bytes, astuple(self.dram),
            self.protected_bytes,
        )

    @property
    def edge_bytes(self) -> int:
        return self.index_bytes + self.value_bytes

    @property
    def vertices_per_block(self) -> int:
        return max(64, self.vector_buffer_bytes // self.value_bytes)


@lru_cache(maxsize=8)
def tile_edge_counts(graph: CsrMatrix, block: int) -> np.ndarray:
    """edges[i, j]: edge count of tile (dest block i, source block j).

    A pure function of the (immutable) matrix and the block size, so it
    is memoized like :func:`~repro.graph.generators.build_benchmark_graph`:
    every trace over the same graph and buffer shares one read-only
    histogram.
    """
    n_blocks = ceil_div(graph.n, block)
    counts = np.zeros((n_blocks, n_blocks), dtype=np.int64)
    bounds = graph.indptr[np.minimum(np.arange(n_blocks + 1) * block, graph.n)]
    for i in range(n_blocks):
        counts[i] = np.bincount(graph.indices[bounds[i]:bounds[i + 1]] // block,
                                minlength=n_blocks)
    counts.flags.writeable = False
    return counts


@dataclass
class GraphTrace:
    """The trace of some iterations of an SpMV algorithm plus bookkeeping."""

    trace: Trace
    vn_state: IterationVnState
    address_space: AddressSpace
    iterations: int


class GraphTraceGenerator:
    """Generates PageRank / BFS / SpMSpV traces for one graph."""

    def __init__(self, graph: CsrMatrix, config: GraphAcceleratorConfig | None = None) -> None:
        self.graph = graph
        self.config = config or GraphAcceleratorConfig()
        block = self.config.vertices_per_block
        self.n_blocks = ceil_div(graph.n, block)
        self.block = block
        self._tile_edges = tile_edge_counts(graph, block)
        # Prefix sums over the flattened tile grid for O(1) tile offsets.
        flat = self._tile_edges.reshape(-1)
        self._tile_prefix = np.zeros(len(flat) + 1, dtype=np.int64)
        np.cumsum(flat, out=self._tile_prefix[1:])
        self._space = AddressSpace(size=self.config.protected_bytes)
        adjacency_bytes = (
            graph.nnz * self.config.edge_bytes
            + (graph.n + self.n_blocks) * self.config.index_bytes
        )
        self._adj = self._space.alloc("adjacency", adjacency_bytes, kind="adjacency")
        vector_bytes = max(64, graph.n * self.config.value_bytes)
        self._vec = [
            self._space.alloc("vector_a", vector_bytes, kind="vector"),
            self._space.alloc("vector_b", vector_bytes, kind="vector"),
        ]

    # ------------------------------------------------------------------
    @property
    def address_space(self) -> AddressSpace:
        return self._space

    def _tile_payload_bytes(self, edges: int, rows: int) -> int:
        """CSR payload of one tile: (index, value) pairs + row pointers."""
        return edges * self.config.edge_bytes + (rows + 1) * self.config.index_bytes

    def _adjacency_offset(self, dest_block: int, src_block: int) -> int:
        """Deterministic layout: tiles stored in schedule order."""
        flat_index = dest_block * self.n_blocks + src_block
        return int(self._tile_prefix[flat_index]) * self.config.edge_bytes

    # ------------------------------------------------------------------
    def iteration_phases(self, builder: TraceBuilder,
                         vn_state: IterationVnState,
                         sparse_vector: bool = False) -> None:
        """Append one SpMV iteration following the Fig. 10 schedule.

        ``sparse_vector=True`` models SpMSpV: attribute reads become
        scattered gathers, which forces fine-grained MACs on that vector
        (§V-B) while everything else is unchanged.
        """
        config = self.config
        # Current vector: read side; updated vector: write side.  They
        # alternate every iteration.
        read_vec = self._vec[(vn_state.iteration - 1) % 2]
        write_vec = self._vec[vn_state.iteration % 2]
        value_bytes = config.value_bytes
        for i in range(self.n_blocks):
            rows_in_block = min(self.block, self.graph.n - i * self.block)
            edges_total = 0
            for j in range(self.n_blocks):
                edges = int(self._tile_edges[i, j])
                if edges == 0:
                    continue
                edges_total += edges
                builder.access(
                    self._adj.base + self._adjacency_offset(i, j),
                    self._tile_payload_bytes(edges, rows_in_block),
                    AccessKind.READ,
                    DataClass.ADJACENCY,
                    vn=vn_state.adjacency_vn(),
                )
                src_vertices = min(self.block, self.graph.n - j * self.block)
                slice_bytes = max(64, src_vertices * value_bytes)
                if sparse_vector:
                    builder.access(
                        read_vec.base + j * self.block * value_bytes,
                        slice_bytes,
                        AccessKind.READ,
                        DataClass.VECTOR,
                        sequential=False,
                        vn=vn_state.read_vector_vn(),
                        burst_bytes=64,
                        spread_bytes=max(64, self.graph.n * value_bytes),
                    )
                else:
                    builder.access(
                        read_vec.base + j * self.block * value_bytes,
                        slice_bytes,
                        AccessKind.READ,
                        DataClass.VECTOR,
                        vn=vn_state.read_vector_vn(),
                    )
            builder.access(
                write_vec.base + i * self.block * value_bytes,
                max(64, rows_in_block * value_bytes),
                AccessKind.WRITE,
                DataClass.VECTOR,
                vn=vn_state.write_vector_vn(),
            )
            # Edges stream through the lanes; the per-vertex apply/write
            # stage is 4-wide SIMD and overlaps the edge pipeline.
            compute = edges_total / config.lanes + rows_in_block / 4
            builder.end_phase(f"spmv:block{i}:iter{vn_state.iteration}",
                              compute)

    # ------------------------------------------------------------------
    def pagerank_trace(self, iterations: int | None = None,
                       max_iterations: int = 20) -> GraphTrace:
        """Trace of a PageRank run (iteration count from the functional
        algorithm unless given explicitly)."""
        if iterations is None:
            iterations = min(
                max_iterations,
                pagerank(self.graph, max_iterations=max_iterations).iterations,
            )
        return self._run(iterations, sparse_vector=False)

    def bfs_trace(self, source: int = 0, iterations: int | None = None) -> GraphTrace:
        """Trace of a BFS run (level count from the functional algorithm)."""
        if iterations is None:
            iterations = max(1, bfs(self.graph, source).iterations)
        return self._run(iterations, sparse_vector=False)

    def spmspv_trace(self, iterations: int = 4) -> GraphTrace:
        """Trace of SpMSpV iterations (§V-B sparse-vector variant)."""
        return self._run(iterations, sparse_vector=True)

    def sssp_trace(self, source: int = 0, iterations: int | None = None,
                   max_iterations: int = 16) -> GraphTrace:
        """Trace of an SSSP run (tropical-semiring SpMV, §V-A).

        The access pattern is identical to PageRank's — only the semiring
        differs on-chip — so MGX's Iter-counter VN scheme applies as-is.
        Iteration count comes from the functional Bellman-Ford.
        """
        if iterations is None:
            from repro.graph.algorithms import sssp

            result = sssp(self.graph, source, max_iterations=max_iterations)
            iterations = max(1, result.iterations)
        return self._run(iterations, sparse_vector=False)

    def _run(self, iterations: int, sparse_vector: bool) -> GraphTrace:
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        builder, vn_state = TraceBuilder(), IterationVnState()
        for _ in range(iterations):
            self.iteration_phases(builder, vn_state, sparse_vector)
            vn_state.advance_iteration()
        return GraphTrace(trace=builder.build(), vn_state=vn_state,
                          address_space=self._space, iterations=iterations)
