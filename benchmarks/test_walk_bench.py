"""Benchmark: integrity-tree walks as ``probe_run_batch`` rows.

A walk is the tail of a VN row with ``walk`` set: the row probes its VN
lines, and the lines that miss seed a climb of the tree, level by level,
until a level fully hits.  Two microbenchmarks time that shape on a
six-level tree, once per available backend — thousands of one-leaf rows
on a warm tree (each walk hits at the first level), and cold cascades
of half-cache rows that climb towards the root.  Pricing floods any VN
range of at least the cache's size, so no row here is that long.
Entries record their backend in ``extra_info`` so ``bench_trend.py``
(filter term: ``walk_``) tracks each implementation separately and
treats backend changes as record-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine_backend import TreeGeometry, create_engine, native_available
from repro.core.lru_engine import EventSink

BACKENDS = ("python",) + (("native",) if native_available() else ())

LINE = 64
ARITY = 4
DEPTH = 6
LEAF_LINES = ARITY**DEPTH  # 4096 leaves, levels of 1024/256/64/16/4 above
CAPACITY = 8192  # roomy: upper levels stay resident between walks


def _deep_geometry() -> TreeGeometry:
    """A six-level 4:1 tree as a flat region table."""
    regions = []
    base = 0
    size = LEAF_LINES
    while size > 1:
        end = base + size * LINE
        regions.append((base, end, end, ARITY))
        base, size = end, size // ARITY
    return TreeGeometry(tuple(regions), LINE)


def _vn_rows(firsts, count: int) -> tuple:
    """Run columns of clean, unflooded ``count``-line VN ranges from
    each of ``firsts`` (line addresses), each walking the tree."""
    n = len(firsts)
    zeros = np.zeros(n, dtype=np.int64)
    return (zeros, zeros, np.asarray(firsts, dtype=np.int64),
            np.full(n, count), np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
            np.zeros(n, dtype=np.uint8))


@pytest.mark.parametrize("backend", BACKENDS)
def test_walk_rows_warm_tree(benchmark, backend):
    """Thousands of one-leaf rows on a warm tree: the per-row cost."""
    benchmark.extra_info["engine_backend"] = backend
    # Probing the level-1 nodes as one walking row warms every stored
    # level above the leaves, and no leaf.
    warm_rows = _vn_rows([LEAF_LINES * LINE], LEAF_LINES // ARITY)
    seed_rows = _vn_rows([(i * 19) % LEAF_LINES * LINE for i in range(2000)],
                         1)

    def walks():
        engine = create_engine(CAPACITY, geometry=_deep_geometry(),
                               backend=backend)
        engine.probe_run_batch(*warm_rows, EventSink())
        sink = EventSink()
        engine.probe_run_batch(*seed_rows, sink)
        return sink

    sink = benchmark.pedantic(walks, rounds=3, iterations=1, warmup_rounds=1)
    # Each row's leaf misses and its walk stops at the warm first level.
    assert sink.miss_count == 2000 and sink.hits == 2000


@pytest.mark.parametrize("backend", BACKENDS)
def test_walk_rows_cold_cascade(benchmark, backend):
    """Cold cascades in rows pricing sends: three passes over the leaves
    in unflooded rows of half the cache, each row's walk climbing until
    a level fully hits."""
    benchmark.extra_info["engine_backend"] = backend
    capacity = LEAF_LINES // 8
    row = capacity // 2
    rows = _vn_rows([i * row * LINE for i in range(LEAF_LINES // row)] * 3, row)

    def cascades():
        engine = create_engine(capacity, geometry=_deep_geometry(),
                               backend=backend)
        sink = EventSink()
        engine.probe_run_batch(*rows, sink)
        return sink

    sink = benchmark.pedantic(cascades, rounds=3, iterations=1,
                              warmup_rounds=1)
    # Every pass misses every leaf (the cache holds an eighth of them),
    # and every walk misses at least its row's level-1 parents.
    assert sink.miss_count >= 3 * (LEAF_LINES + LEAF_LINES // ARITY)
