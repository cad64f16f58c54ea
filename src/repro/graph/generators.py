"""Synthetic benchmark graphs standing in for SNAP/OGB datasets.

The paper evaluates PageRank and BFS on google-plus, pokec, livejournal
and reddit (SNAP) plus ogbl-ppa and ogbn-products (OGB).  Those datasets
are not redistributable here, so we generate deterministic R-MAT
(Kronecker) graphs with the published vertex/edge counts, scaled down by
``scale_divisor`` (default 64) to keep simulation time reasonable.

What the protection study actually depends on — |V|, |E|, the power-law
degree skew, and the resulting tile occupancy of the adjacency matrix —
is preserved by R-MAT with matched average degree; the traffic *ratios*
MGX/BP are scale-stable (asserted in
``tests/test_graphlily.py::TestScaleStability``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.common.errors import ConfigError
from repro.graph.csr import CsrMatrix

#: Published sizes (vertices, edges) of the paper's six benchmarks.
BENCHMARK_SIZES: dict[str, tuple[int, int]] = {
    "google-plus": (107_614, 13_673_453),
    "pokec": (1_632_803, 30_622_564),
    "livejournal": (4_847_571, 68_993_773),
    "reddit": (232_965, 114_615_892),
    "ogbl-ppa": (576_289, 42_463_862),
    "ogbn-products": (2_449_029, 123_718_280),
}

GRAPH_BENCHMARKS = tuple(BENCHMARK_SIZES)

#: R-MAT partition probabilities (a, b, c); d = 1 − a − b − c.  The
#: classic skewed setting produces power-law degrees like social graphs.
_RMAT_ABC = (0.57, 0.19, 0.19)

#: Raw PCG64 words ``rmat_edges`` draws and decodes at a time: a block
#: and its comparison masks stay in cache.
_RAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class GraphSpec:
    """Requested geometry for a synthetic benchmark graph."""

    name: str
    vertices: int
    edges: int
    seed: int

    @property
    def average_degree(self) -> float:
        return self.edges / self.vertices


def benchmark_spec(name: str, scale_divisor: int = 64, seed: int = 2022) -> GraphSpec:
    """Scaled-down spec for one of the paper's named benchmarks."""
    try:
        vertices, edges = BENCHMARK_SIZES[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; known: {sorted(BENCHMARK_SIZES)}"
        ) from None
    if scale_divisor < 1:
        raise ConfigError(f"scale_divisor must be >= 1, got {scale_divisor}")
    return GraphSpec(
        name=name,
        vertices=max(64, vertices // scale_divisor),
        edges=max(256, edges // scale_divisor),
        seed=seed,
    )


def _raw_threshold(t: float) -> np.uint64:
    """Smallest raw PCG64 word ``w`` whose ``Generator.random()`` draw,
    ``(w >> 11) · 2⁻⁵³``, is ``>= t`` (for ``0 <= t < 1``)."""
    return np.uint64(math.ceil(math.ldexp(t, 53)) << 11)


def rmat_edges(n_vertices: int, n_edges: int, seed: int,
               abc: tuple[float, float, float] = _RMAT_ABC) -> np.ndarray:
    """Generate an (m, 2) R-MAT edge list over ``n_vertices`` vertices.

    Vectorized recursive quadrant descent: each of ``log2(n)`` levels
    decides one bit of the source and destination indices.
    """
    if n_vertices < 2 or n_edges < 1:
        raise ConfigError("need at least 2 vertices and 1 edge")
    a, b, c = abc
    if not all(map(math.isfinite, abc)) or min(a, b, c) < 0 or a + b + c >= 1:
        raise ConfigError(f"invalid R-MAT probabilities {abc}")
    levels = int(np.ceil(np.log2(n_vertices)))
    raw = np.random.default_rng(seed).bit_generator.random_raw
    # Quadrant q = [r >= a] + [r >= a+b] + [r >= a+b+c] in {0=A, .., 3=D}:
    # its high bit (the source bit) is the middle comparison, its low bit
    # (the destination bit) the parity of all three.  Integer thresholds
    # on raw words decide each r exactly as ``Generator.random()`` does,
    # and drawing level by level, edges in order, keeps the stream order
    # of a (levels, n_edges) ``random()`` fill: graphs stay bit-identical.
    # Bits accumulate in int32 below 31 levels to halve memory traffic.
    t_a, t_ab, t_abc = (_raw_threshold(t) for t in (a, a + b, a + b + c))
    accumulator = np.int32 if levels < 31 else np.int64
    src = np.zeros(n_edges, dtype=accumulator)
    dst = np.zeros(n_edges, dtype=accumulator)
    for _ in range(levels):
        for lo in range(0, n_edges, _RAW_BLOCK):
            words = raw(min(_RAW_BLOCK, n_edges - lo))
            src_bit = words >= t_ab
            dst_bit = (words >= t_a) ^ src_bit ^ (words >= t_abc)
            s, d = src[lo:lo + len(words)], dst[lo:lo + len(words)]
            s <<= 1
            s |= src_bit
            d <<= 1
            d |= dst_bit
    src %= n_vertices
    dst %= n_vertices
    # Drop self-loops, keep multiplicity (they model weighted repeats).
    keep = src != dst
    edges = np.empty((int(np.count_nonzero(keep)), 2), dtype=np.int64)
    edges[:, 0] = dst[keep]  # row = destination
    edges[:, 1] = src[keep]
    return edges


@lru_cache(maxsize=8)
def build_benchmark_graph(name: str, scale_divisor: int = 64,
                          seed: int = 2022) -> CsrMatrix:
    """Adjacency matrix (rows = destinations) for a named benchmark.

    A pure, deterministic function of its arguments, so the constructed
    matrix is memoized process-wide: several figures sweep the same six
    benchmarks, and regenerating identical R-MAT graphs dominated cold
    runs.  (This is a constructor memo, not an artifact cache —
    ``--no-cache`` still regenerates every trace and sweep.)  Callers
    treat the matrix as read-only.
    """
    spec = benchmark_spec(name, scale_divisor, seed)
    edges = rmat_edges(spec.vertices, spec.edges, spec.seed)
    return CsrMatrix.from_edges(spec.vertices, edges)


def uniform_random_graph(n_vertices: int, n_edges: int, seed: int = 0) -> CsrMatrix:
    """Erdős–Rényi-style graph for tests needing unskewed degrees."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, size=n_edges, dtype=np.int64)
    dst = rng.integers(0, n_vertices, size=n_edges, dtype=np.int64)
    keep = src != dst
    return CsrMatrix.from_edges(n_vertices, np.stack([dst[keep], src[keep]], axis=1))
