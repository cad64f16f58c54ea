#!/usr/bin/env python3
"""Secure graph processing: PageRank on a GraphLily-like accelerator (§V).

Three things happen here:

1. the *functional* PageRank (GraphBLAS SpMV on the arithmetic semiring)
   computes real ranks on a synthetic benchmark graph;
2. the accelerator trace model replays the same schedule as block
   transfers with Iter-counter VNs (8 bytes of on-chip state total);
3. the protection schemes price that trace — the Fig. 14 comparison.

Usage:  python examples/secure_pagerank.py [benchmark] [scale_divisor]
"""

import sys

from repro.graph.algorithms import pagerank
from repro.graph.generators import GRAPH_BENCHMARKS, build_benchmark_graph
from repro.graph.graphlily import GraphAcceleratorConfig, GraphTraceGenerator
from repro.sim.runner import SCHEMES, graph_sweep


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "google-plus"
    scale = int(sys.argv[2]) if len(sys.argv) > 2 else 64
    if benchmark not in GRAPH_BENCHMARKS:
        raise SystemExit(f"unknown benchmark; pick one of {GRAPH_BENCHMARKS}")

    graph = build_benchmark_graph(benchmark, scale_divisor=scale)
    print(f"{benchmark} (1/{scale} scale): |V| = {graph.n:,}  |E| = {graph.nnz:,}")

    result = pagerank(graph)
    top = result.ranks.argsort()[::-1][:5]
    print(f"PageRank converged in {result.iterations} iterations; "
          f"top vertices: {', '.join(str(v) for v in top)}")

    config = GraphAcceleratorConfig()
    generator = GraphTraceGenerator(graph, config)
    trace = generator.pagerank_trace(iterations=result.iterations)
    print(f"accelerator trace: {generator.n_blocks} destination block(s), "
          f"{len(trace.trace.names)} phases, "
          f"{trace.trace.total_bytes / (1 << 20):.1f} MiB, "
          f"VN state: {trace.vn_state.state_bytes} B (one Iter counter)")

    print("\nprotection comparison (Fig. 14):")
    sweep = graph_sweep(benchmark, "PR", iterations=result.iterations,
                        scale_divisor=scale)
    print(f"{'scheme':10s} {'exec time':>10s} {'traffic':>9s}")
    for scheme in SCHEMES:
        print(f"{scheme:10s} {sweep.normalized_time(scheme):9.3f}x "
              f"{sweep.traffic_increase(scheme):8.3f}x")


if __name__ == "__main__":
    main()
