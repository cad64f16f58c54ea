"""GraphLily-like accelerator trace generation (§V, Fig. 10)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.common.units import KIB
from repro.core.access import DataClass, TraceBuilder
from repro.core.vngen import IterationVnState, UniquenessGuard
from repro.graph.csr import CsrMatrix
from repro.graph.generators import build_benchmark_graph, uniform_random_graph
from repro.graph.graphlily import (
    GraphAcceleratorConfig,
    GraphTraceGenerator,
    tile_edge_counts,
)

_CFG = GraphAcceleratorConfig(vector_buffer_bytes=16 * KIB)


@pytest.fixture(scope="module")
def generator():
    graph = uniform_random_graph(16_384, 131_072, seed=9)
    return GraphTraceGenerator(graph, _CFG)


class TestTileAccounting:
    def test_tile_edges_sum_to_nnz(self, generator):
        assert generator._tile_edges.sum() == generator.graph.nnz

    def test_block_count(self, generator):
        assert generator.n_blocks == 4  # 16384 verts / 4096 per 16 KiB block

    def test_adjacency_region_covers_payload(self, generator):
        region = generator.address_space.region("adjacency")
        assert region.size >= generator.graph.nnz * _CFG.edge_bytes


def _tile_counts_by_repeat(graph, block):
    """The per-generator construction the memoized histogram replaced:
    expand every edge's row with ``np.repeat``, bincount flat tile ids."""
    n_blocks = -(-graph.n // block)
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr))
    flat = np.bincount((rows // block) * n_blocks + graph.indices // block,
                       minlength=n_blocks * n_blocks)
    return flat.reshape(n_blocks, n_blocks)


class TestTileEdgeCounts:
    @given(n=st.integers(min_value=1, max_value=300),
           block=st.integers(min_value=1, max_value=400),
           m=st.integers(min_value=0, max_value=600),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_repeat_oracle(self, n, block, m, data):
        """Any n (a multiple of block or not, block > n included), with
        rows and sources drawn from a prefix so trailing rows and whole
        tile rows and columns stay empty."""
        row_span = data.draw(st.integers(min_value=1, max_value=n))
        col_span = data.draw(st.integers(min_value=1, max_value=n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        edges = np.stack([rng.integers(0, row_span, m),
                          rng.integers(0, col_span, m)], axis=1)
        graph = CsrMatrix.from_edges(n, edges)
        counts = tile_edge_counts(graph, block)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, _tile_counts_by_repeat(graph, block))
        assert counts.sum() == graph.nnz

    def test_memoized_per_graph_and_block(self):
        graph = uniform_random_graph(1000, 5000, seed=3)
        counts = tile_edge_counts(graph, 256)
        assert tile_edge_counts(graph, 256) is counts
        other = tile_edge_counts(graph, 128)
        assert other is not counts
        assert other.shape == (8, 8) and counts.shape == (4, 4)

    def test_read_only(self):
        counts = tile_edge_counts(uniform_random_graph(500, 2000, seed=4), 64)
        with pytest.raises(ValueError):
            counts[0, 0] = 1

    def test_generators_share_one_histogram(self):
        graph = uniform_random_graph(4096, 20_000, seed=5)
        first = GraphTraceGenerator(graph, _CFG)
        second = GraphTraceGenerator(graph, _CFG)
        assert second._tile_edges is first._tile_edges


def _iteration(generator, vn_state, sparse_vector=False):
    """One iteration's phases, as objects."""
    builder = TraceBuilder()
    generator.iteration_phases(builder, vn_state, sparse_vector)
    return builder.build().to_phases()


class TestIterationPhases:
    def test_one_phase_per_destination_block(self, generator):
        phases = _iteration(generator, IterationVnState())
        assert len(phases) == generator.n_blocks

    def test_adjacency_read_once_per_iteration(self, generator):
        phases = _iteration(generator, IterationVnState())
        adjacency_bytes = sum(
            a.size for p in phases for a in p.accesses
            if a.data_class is DataClass.ADJACENCY
        )
        payload = generator.graph.nnz * _CFG.edge_bytes
        # Tiles add per-tile row-pointer slices; bounded at 35% here
        # because the scaled graph has a low average degree.
        assert payload <= adjacency_bytes < 1.35 * payload

    def test_adjacency_vn_constant(self, generator):
        vn_state = IterationVnState()
        vns = set()
        for _ in range(3):
            for p in _iteration(generator, vn_state):
                vns.update(
                    a.vn for a in p.accesses if a.data_class is DataClass.ADJACENCY
                )
            vn_state.advance_iteration()
        assert len(vns) == 1

    def test_vector_read_vn_is_previous_write_vn(self, generator):
        """§V-B: Iter−1 reads what Iter−1's writes produced."""
        vn_state = IterationVnState()
        first = _iteration(generator, vn_state)
        write_vns = {
            a.vn for p in first for a in p.accesses
            if a.data_class is DataClass.VECTOR and a.is_write
        }
        vn_state.advance_iteration()
        second = _iteration(generator, vn_state)
        read_vns = {
            a.vn for p in second for a in p.accesses
            if a.data_class is DataClass.VECTOR and not a.is_write
        }
        assert read_vns == write_vns

    def test_vector_regions_alternate(self, generator):
        vn_state = IterationVnState()
        first = _iteration(generator, vn_state)
        vn_state.advance_iteration()
        second = _iteration(generator, vn_state)

        def write_targets(phases):
            return {
                a.address for p in phases for a in p.accesses
                if a.data_class is DataClass.VECTOR and a.is_write
            }

        assert write_targets(first).isdisjoint(write_targets(second))

    def test_write_vns_unique_per_location(self, generator):
        guard = UniquenessGuard()
        vn_state = IterationVnState()
        for _ in range(4):
            for p in _iteration(generator, vn_state):
                for a in p.accesses:
                    if a.is_write:
                        guard.register_write(a.address, a.vn)
            vn_state.advance_iteration()

    def test_spmspv_vector_reads_scattered(self, generator):
        phases = _iteration(generator, IterationVnState(), sparse_vector=True)
        vec_reads = [
            a for p in phases for a in p.accesses
            if a.data_class is DataClass.VECTOR and not a.is_write
        ]
        assert vec_reads
        assert all(not a.sequential for a in vec_reads)
        assert all(a.burst_bytes == 64 for a in vec_reads)


class TestTraces:
    def test_pagerank_trace_iterations(self, generator):
        trace = generator.pagerank_trace(iterations=3)
        assert trace.iterations == 3
        assert len(trace.trace.names) == 3 * generator.n_blocks

    def test_bfs_trace_uses_functional_levels(self):
        graph = uniform_random_graph(4096, 65_536, seed=10)
        gen = GraphTraceGenerator(graph, _CFG)
        trace = gen.bfs_trace(source=0)
        assert trace.iterations >= 1

    def test_traffic_scales_with_iterations(self, generator):
        one = generator.pagerank_trace(iterations=1).trace.total_bytes
        three = generator.pagerank_trace(iterations=3).trace.total_bytes
        assert three == pytest.approx(3 * one, rel=0.01)

    def test_invalid_iterations(self, generator):
        with pytest.raises(ConfigError):
            generator.spmspv_trace(iterations=0)

    def test_vn_state_bytes_is_8(self, generator):
        trace = generator.pagerank_trace(iterations=1)
        assert trace.vn_state.state_bytes == 8


class TestScaleStability:
    def test_bp_mgx_ratio_stable_across_scales(self):
        """The substitution argument: traffic overhead ratios barely move
        when the graph (and the buffer) shrink by the same factor."""
        from repro.core.schemes import ProtectionTraffic, scheme_suite

        ratios = {}
        for divisor, buffer_bytes in ((64, 128 * KIB), (256, 32 * KIB)):
            cfg = GraphAcceleratorConfig(vector_buffer_bytes=buffer_bytes)
            graph = build_benchmark_graph("google-plus", scale_divisor=divisor)
            gen = GraphTraceGenerator(graph, cfg)
            trace = gen.pagerank_trace(iterations=2)
            totals = {}
            for name, scheme in scheme_suite(cfg.protected_bytes).items():
                t = ProtectionTraffic()
                for a in trace.trace.batch.to_accesses():
                    t.merge(scheme.process(a))
                t.merge(scheme.finish())
                totals[name] = t.total_bytes
            ratios[divisor] = totals["BP"] / totals["NP"]
        assert ratios[64] == pytest.approx(ratios[256], rel=0.05)
