"""Graph substrate: CSR, generators, semirings, SpMV, algorithms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.graph.algorithms import bfs, pagerank, sssp
from repro.graph.csr import CsrMatrix
from repro.graph.generators import (
    _RAW_BLOCK,
    BENCHMARK_SIZES,
    GRAPH_BENCHMARKS,
    benchmark_spec,
    build_benchmark_graph,
    rmat_edges,
    uniform_random_graph,
)
from repro.graph.semiring import ARITHMETIC, BOOLEAN, TROPICAL
from repro.graph.spmv import spmspv, spmv

try:
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None

requires_networkx = pytest.mark.skipif(nx is None, reason="networkx unavailable")


def _diamond() -> CsrMatrix:
    """A → B, A → C, B → D, C → D (rows = destinations)."""
    edges = np.array([[1, 0], [2, 0], [3, 1], [3, 2]])
    return CsrMatrix.from_edges(4, edges)


class TestCsr:
    def test_from_edges_structure(self):
        g = _diamond()
        assert g.nnz == 4
        assert list(g.row(3)) == [1, 2]
        assert list(g.row(0)) == []

    def test_indptr_invariants(self):
        g = _diamond()
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.nnz
        assert np.all(np.diff(g.indptr) >= 0)

    def test_out_degrees(self):
        g = _diamond()
        assert list(g.out_degrees()) == [2, 1, 1, 0]

    def test_transpose_involution(self):
        g = build_benchmark_graph("google-plus", scale_divisor=512)
        t = g.transpose().transpose()
        assert np.array_equal(t.indptr, g.indptr)
        assert np.array_equal(t.indices, g.indices)

    def test_transpose_reverses_edges(self):
        g = _diamond()
        t = g.transpose()
        assert list(t.row(0)) == [1, 2]  # A's out-edges become rows

    def test_row_slice_bytes(self):
        g = _diamond()
        # rows 0..3: 4 edges * 8 B + 5 pointers * 4 B
        assert g.row_slice_bytes(0, 3) == 4 * 8 + 5 * 4

    def test_default_weights_are_a_read_only_unit_view(self):
        """Unit weights cost no memory per edge: one read-only,
        zero-stride view that SSSP reads exactly like explicit ones."""
        edges = np.random.default_rng(4).integers(0, 300, size=(2000, 2))
        g = CsrMatrix.from_edges(300, edges)
        assert g.values.shape == g.indices.shape
        assert g.values.strides == (0,)
        with pytest.raises(ValueError):
            g.values[0] = 2.0
        explicit = CsrMatrix(g.n, g.indptr, g.indices, np.ones(g.nnz))
        assert np.array_equal(sssp(g, 0).distances,
                              sssp(explicit, 0).distances)
        assert np.array_equal(g.transpose().values,
                              explicit.transpose().values)
        assert np.array_equal(g.row_values(5), explicit.row_values(5))

    def test_validation(self):
        with pytest.raises(ConfigError):
            CsrMatrix(2, np.array([0, 1]), np.array([0]))  # bad indptr shape
        with pytest.raises(ConfigError):
            CsrMatrix(2, np.array([0, 1, 1]), np.array([5]))  # col out of range

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=80),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_from_edges_preserves_multiset(self, n, m, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(m, 2))
        g = CsrMatrix.from_edges(n, edges)
        rebuilt = sorted(
            (r, c)
            for r in range(n)
            for c in g.row(r)
        )
        assert rebuilt == sorted(map(tuple, edges.tolist()))


class TestGenerators:
    def test_benchmark_sizes_published(self):
        assert BENCHMARK_SIZES["ogbl-ppa"] == (576_289, 42_463_862)
        assert BENCHMARK_SIZES["ogbn-products"] == (2_449_029, 123_718_280)

    def test_spec_scaling(self):
        spec = benchmark_spec("pokec", scale_divisor=64)
        assert spec.vertices == 1_632_803 // 64
        assert spec.edges == 30_622_564 // 64

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigError):
            benchmark_spec("twitter")

    def test_rmat_deterministic(self):
        a = rmat_edges(1024, 4096, seed=5)
        b = rmat_edges(1024, 4096, seed=5)
        assert np.array_equal(a, b)

    def test_rmat_seed_matters(self):
        a = rmat_edges(1024, 4096, seed=5)
        b = rmat_edges(1024, 4096, seed=6)
        assert not np.array_equal(a, b)

    def test_rmat_degree_skew(self):
        """R-MAT degrees are heavy-tailed: max degree >> average."""
        g = build_benchmark_graph("google-plus", scale_divisor=64)
        degrees = np.diff(g.indptr)
        assert degrees.max() > 10 * degrees.mean()

    def test_uniform_graph_not_skewed(self):
        g = uniform_random_graph(2048, 20480, seed=1)
        degrees = np.diff(g.indptr)
        assert degrees.max() < 5 * max(1.0, degrees.mean())

    def test_no_self_loops(self):
        g = build_benchmark_graph("reddit", scale_divisor=256)
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        assert not np.any(rows == g.indices)

    def test_rmat_validation(self):
        with pytest.raises(ConfigError):
            rmat_edges(1, 10, seed=0)
        with pytest.raises(ConfigError):
            rmat_edges(64, 10, seed=0, abc=(0.6, 0.3, 0.2))

    @pytest.mark.parametrize("abc", [
        (float("nan"), 0.1, 0.1),
        (0.1, float("nan"), 0.1),
        (0.1, 0.1, float("nan")),
        (float("inf"), 0.1, 0.1),
        (0.1, float("-inf"), 0.1),
    ])
    def test_rmat_rejects_non_finite_probabilities(self, abc):
        """A NaN compares false against every draw, so it used to slip
        past validation and silently bend the quadrant split."""
        with pytest.raises(ConfigError, match="invalid R-MAT probabilities"):
            rmat_edges(64, 10, seed=0, abc=abc)


def _rmat_float_reference(n_vertices, n_edges, seed, abc):
    """The float decode ``rmat_edges`` used before raw-word thresholds:
    one (levels, n_edges) ``Generator.random()`` block, and per level
    the quadrant from three float comparisons."""
    a, b, c = abc
    levels = int(np.ceil(np.log2(n_vertices)))
    block = np.random.default_rng(seed).random((levels, n_edges))
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for row in block:
        quadrant = ((row >= a).astype(np.int64) + (row >= a + b)
                    + (row >= a + b + c))
        src = (src << 1) | (quadrant >> 1)
        dst = (dst << 1) | (quadrant & 1)
    src %= n_vertices
    dst %= n_vertices
    keep = src != dst
    return np.stack([dst[keep], src[keep]], axis=1)


#: Edge counts at and around the raw-word block boundaries.
_BLOCK_EDGES = (_RAW_BLOCK - 1, _RAW_BLOCK, _RAW_BLOCK + 1,
                2 * _RAW_BLOCK + 3)

#: Probabilities whose thresholds t·2⁵³ land exactly on integers (dyadic
#: values, the smallest subnormal), that coincide (b = 0, all zero), and
#: the benchmark default.
_EXACT_ABC = ((0.25, 0.25, 0.25), (0.5, 0.25, 0.125), (0.0, 0.0, 0.0),
              (0.57, 0.0, 0.19), (5e-324, 0.0, 0.5), (0.57, 0.19, 0.19))


@st.composite
def _rmat_cases(draw):
    n_vertices = draw(st.integers(min_value=2, max_value=1 << 33))
    small = st.integers(min_value=1, max_value=64)
    # Above 2**30 vertices (31+ levels, the int64 accumulator) the float
    # reference's (levels, n_edges) block gets large: keep n_edges small.
    n_edges = draw(small if n_vertices > 1 << 30
                   else small | st.sampled_from(_BLOCK_EDGES))
    third = st.floats(min_value=0.0, max_value=0.33)
    abc = draw(st.sampled_from(_EXACT_ABC) | st.tuples(third, third, third))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n_vertices, n_edges, seed, abc


class TestRmatRawDecode:
    """Integer thresholds on raw PCG64 words, drawn block by block,
    decode exactly what ``Generator.random()`` floats decoded."""

    @given(_rmat_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_float_reference(self, case):
        n_vertices, n_edges, seed, abc = case
        edges = rmat_edges(n_vertices, n_edges, seed, abc=abc)
        expected = _rmat_float_reference(n_vertices, n_edges, seed, abc)
        assert edges.dtype == np.int64
        assert np.array_equal(edges, expected)

    @pytest.mark.parametrize("beside", [False, True])
    def test_thresholds_at_drawn_values(self, beside):
        """Thresholds placed on drawn values r = k·2⁻⁵³ whose raw words
        have zero low bits, so w equals the integer threshold: r >= t
        must hold there (``>=``, not ``>``).  One ulp above r it must
        not (``ceil``, not ``floor``)."""
        n_edges, seed = _RAW_BLOCK, 11
        words = np.random.default_rng(seed).bit_generator.random_raw(n_edges)
        draws = [math.ldexp(int(w >> 11), -53)
                 for w in np.unique(words[words % 2048 == 0])[:3]]
        if beside:
            draws = [float(np.nextafter(r, 1.0)) for r in draws]
        first, second, third = draws
        abc = (first, second - first, third - second)
        assert np.array_equal(rmat_edges(1 << 10, n_edges, seed, abc=abc),
                              _rmat_float_reference(1 << 10, n_edges, seed, abc))

    @pytest.mark.parametrize("n_edges", _BLOCK_EDGES)
    def test_block_boundaries(self, n_edges):
        abc = (0.25, 0.25, 0.25)
        assert np.array_equal(rmat_edges(1000, n_edges, 3, abc=abc),
                              _rmat_float_reference(1000, n_edges, 3, abc))


class TestSemiringsAndSpmv:
    def test_arithmetic_spmv_matches_numpy(self):
        g = uniform_random_graph(64, 512, seed=2)
        dense = np.zeros((64, 64))
        for r in range(64):
            for c, v in zip(g.row(r), g.row_values(r)):
                dense[r, c] += v
        x = np.random.default_rng(0).random(64)
        assert np.allclose(spmv(g, x, ARITHMETIC), dense @ x)

    def test_boolean_spmv_is_reachability(self):
        g = _diamond()
        frontier = np.zeros(4)
        frontier[0] = 1.0
        reached = spmv(g, frontier, BOOLEAN)
        assert list(reached) == [0.0, 1.0, 1.0, 0.0]

    def test_tropical_spmv_relaxes(self):
        g = _diamond()
        dist = np.array([0.0, np.inf, np.inf, np.inf])
        relaxed = spmv(g, dist, TROPICAL)
        assert relaxed[1] == 1.0  # weight 1 + dist 0

    def test_empty_row_yields_identity(self):
        g = _diamond()
        assert spmv(g, np.ones(4), ARITHMETIC)[0] == ARITHMETIC.add_identity
        assert spmv(g, np.zeros(4), TROPICAL)[0] == np.inf

    def test_spmspv_equals_dense_spmv(self):
        g = uniform_random_graph(64, 256, seed=3)
        dense_vec = np.zeros(64)
        idx = np.array([3, 17, 42])
        dense_vec[idx] = [1.0, 2.0, 3.0]
        out_idx, out_val = spmspv(g, idx, np.array([1.0, 2.0, 3.0]), ARITHMETIC)
        full = spmv(g, dense_vec, ARITHMETIC)
        rebuilt = np.zeros(64)
        rebuilt[out_idx] = out_val
        assert np.allclose(rebuilt, full)

    def test_shape_validation(self):
        g = _diamond()
        with pytest.raises(ConfigError):
            spmv(g, np.ones(5), ARITHMETIC)


class TestAlgorithms:
    def test_pagerank_sums_to_one(self):
        g = build_benchmark_graph("google-plus", scale_divisor=256)
        result = pagerank(g)
        assert result.ranks.sum() == pytest.approx(1.0, abs=1e-6)

    def test_pagerank_converges(self):
        g = uniform_random_graph(256, 2048, seed=4)
        assert pagerank(g).converged

    def test_pagerank_hub_ranks_higher(self):
        # Star graph: everything points at vertex 0.
        edges = np.array([[0, s] for s in range(1, 16)])
        g = CsrMatrix.from_edges(16, edges)
        ranks = pagerank(g).ranks
        assert ranks[0] == ranks.max()

    @requires_networkx
    def test_pagerank_matches_networkx(self):
        # Deduplicate edges: networkx collapses parallel edges while the
        # CSR keeps multiplicity, which would change the comparison.
        raw = uniform_random_graph(128, 1024, seed=5)
        unique = sorted({(int(r), int(c)) for r in range(raw.n) for c in raw.row(r)})
        g = CsrMatrix.from_edges(128, np.array(unique))
        ours = pagerank(g, damping=0.85, tol=1e-10).ranks
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(g.n))
        for r in range(g.n):
            for c in g.row(r):
                nxg.add_edge(int(c), int(r))  # row = destination
        theirs = nx.pagerank(nxg, alpha=0.85, tol=1e-12)
        for v in range(g.n):
            assert ours[v] == pytest.approx(theirs[v], abs=1e-4)

    def test_bfs_levels_diamond(self):
        result = bfs(_diamond(), source=0)
        assert list(result.levels) == [0, 1, 1, 2]
        assert result.iterations >= 2

    def test_bfs_unreachable_is_minus_one(self):
        edges = np.array([[1, 0]])
        g = CsrMatrix.from_edges(4, edges)
        result = bfs(g, source=0)
        assert result.levels[3] == -1

    @requires_networkx
    def test_bfs_matches_networkx(self):
        g = uniform_random_graph(128, 768, seed=6)
        ours = bfs(g, source=0).levels
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(g.n))
        for r in range(g.n):
            for c in g.row(r):
                nxg.add_edge(int(c), int(r))
        theirs = nx.single_source_shortest_path_length(nxg, 0)
        for v in range(g.n):
            expected = theirs.get(v, -1)
            assert ours[v] == expected

    def test_sssp_diamond(self):
        result = sssp(_diamond(), source=0)
        assert list(result.distances) == [0.0, 1.0, 1.0, 2.0]
        assert result.converged

    @requires_networkx
    def test_sssp_matches_dijkstra(self):
        rng = np.random.default_rng(7)
        edges = rng.integers(0, 64, size=(256, 2))
        keep = edges[:, 0] != edges[:, 1]
        edges = edges[keep]
        weights = rng.uniform(0.1, 5.0, size=len(edges))
        g = CsrMatrix.from_edges(64, edges, weights)
        ours = sssp(g, source=0).distances
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(64))
        for r in range(64):
            for c, w in zip(g.row(r), g.row_values(r)):
                # Keep the minimum parallel edge weight, as SpMV does.
                u, v = int(c), int(r)
                if nxg.has_edge(u, v):
                    w = min(w, nxg[u][v]["weight"])
                nxg.add_edge(u, v, weight=w)
        theirs = nx.single_source_dijkstra_path_length(nxg, 0)
        for v in range(64):
            expected = theirs.get(v, np.inf)
            assert ours[v] == pytest.approx(expected)

    def test_source_validation(self):
        with pytest.raises(ConfigError):
            bfs(_diamond(), source=4)
        with pytest.raises(ConfigError):
            sssp(_diamond(), source=-1)
        with pytest.raises(ConfigError):
            pagerank(_diamond(), damping=1.5)


class TestBuilderPinning:
    """The fused-key sort and vectorized R-MAT decode are byte-identical
    to the original lexsort/per-level builders (digests computed from the
    pre-optimization implementations)."""

    @staticmethod
    def _digest(*arrays):
        import hashlib

        h = hashlib.sha256()
        for array in arrays:
            h.update(np.ascontiguousarray(array).tobytes())
        return h.hexdigest()[:16]

    def test_rmat_edges_pinned(self):
        edges = rmat_edges(1000, 5000, seed=7)
        assert edges.shape == (4967, 2)
        assert self._digest(edges) == "a79cc6a9bbb76f4b"

    def test_benchmark_csr_pinned(self):
        graph = build_benchmark_graph("google-plus", scale_divisor=256)
        assert (graph.n, graph.nnz) == (420, 52642)
        assert self._digest(graph.indptr, graph.indices) == "6bae0f5996810569"
        graph = build_benchmark_graph("reddit", scale_divisor=256)
        assert (graph.n, graph.nnz) == (910, 443924)
        assert self._digest(graph.indptr, graph.indices) == "7e6739adeb61d8bc"

    def test_from_edges_matches_lexsort_reference(self):
        """Both from_edges paths (keys-only and values-carrying) equal a
        straightforward stable lexsort construction."""
        rng = np.random.default_rng(17)
        n = 97
        edges = np.stack([rng.integers(0, n, 4000),
                          rng.integers(0, n, 4000)], axis=1).astype(np.int64)
        values = rng.random(4000)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        reference = edges[order]
        built = CsrMatrix.from_edges(n, edges)
        assert (built.indices == reference[:, 1]).all()
        counts = np.bincount(reference[:, 0], minlength=n)
        assert (built.indptr == np.concatenate([[0], np.cumsum(counts)])).all()
        carrying = CsrMatrix.from_edges(n, edges, values)
        assert (carrying.indices == reference[:, 1]).all()
        assert (carrying.values == values[order]).all()

    #: (n, nnz, sha256 of indptr + indices) of the six default-scale
    #: graphs every graph table is built from.
    SCALE_64 = {
        "google-plus": (1681, 212536, "5eac3ac80f767542"),
        "pokec": (25512, 478099, "4b1549f448aa301a"),
        "livejournal": (75743, 1077715, "ea156827c1ed08e6"),
        "reddit": (3640, 1785089, "20dfa0dc83cb6a0f"),
        "ogbl-ppa": (9004, 662622, "565af481574e26e3"),
        "ogbn-products": (38266, 1932119, "131ad984004a9083"),
    }

    @pytest.mark.parametrize("name", GRAPH_BENCHMARKS)
    def test_scale_64_csr_pinned(self, name):
        graph = build_benchmark_graph(name)
        n, nnz, digest = self.SCALE_64[name]
        assert (graph.n, graph.nnz) == (n, nnz)
        assert self._digest(graph.indptr, graph.indices) == digest

    def test_benchmark_graph_memoized(self):
        first = build_benchmark_graph("google-plus", scale_divisor=256)
        again = build_benchmark_graph("google-plus", scale_divisor=256)
        assert again is first  # pure-constructor memo (not the trace cache)
