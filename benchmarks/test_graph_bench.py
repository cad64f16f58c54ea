"""Benchmark: the graph family's builders, cold.

Builds the six scale-64 benchmark graphs every graph table sweeps —
R-MAT edges, the CSR, and the GraphLily tile histogram at the default
vector buffer — without the process-wide memos, so each round pays the
full construction.  ``bench_trend.py`` tracks it under the
``graph_build`` filter term; the assertions are deterministic (sizes and
tile totals), never wall-clock bounds, because tier-1 collects this
directory too.
"""

from __future__ import annotations

from repro.graph.csr import CsrMatrix
from repro.graph.generators import GRAPH_BENCHMARKS, benchmark_spec, rmat_edges
from repro.graph.graphlily import GraphAcceleratorConfig, tile_edge_counts

#: (n, nnz) of each scale-64 graph, as pinned in ``tests/test_graph_core.py``.
SIZES = {
    "google-plus": (1681, 212536),
    "pokec": (25512, 478099),
    "livejournal": (75743, 1077715),
    "reddit": (3640, 1785089),
    "ogbl-ppa": (9004, 662622),
    "ogbn-products": (38266, 1932119),
}


def test_graph_build(benchmark):
    block = GraphAcceleratorConfig().vertices_per_block
    specs = [benchmark_spec(name) for name in GRAPH_BENCHMARKS]

    def build():
        built = {}
        for spec in specs:
            edges = rmat_edges(spec.vertices, spec.edges, spec.seed)
            graph = CsrMatrix.from_edges(spec.vertices, edges)
            built[spec.name] = (graph, tile_edge_counts.__wrapped__(graph, block))
        return built

    built = benchmark.pedantic(build, rounds=3, iterations=1)
    for name, (graph, tiles) in built.items():
        assert (graph.n, graph.nnz) == SIZES[name]
        assert tiles.sum() == graph.nnz
