"""Benchmarks: LRU-engine backends.

Three engine microbenchmarks time the stream shapes the pricing core
sees — capacity floods, dirty chain-heavy conveyors, and short
walk-style scalar runs — once per available backend, so the
``bench_trend.py`` gate (filter term: ``engine``) tracks the compiled
and reference implementations separately (each entry records its
backend in ``extra_info``).  ``test_engine_suite_trace`` times one
full-size BP pricing session over a suite trace — a DNN training step,
whose run rows mix floods, dirty write-back streaks and tree walks — so
the per-row cost of the no-compiler path is tracked too.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.engine_backend import TreeGeometry, create_engine, native_available
from repro.core.lru_engine import FLOOD_MAC, FLOOD_VN, EventSink
from repro.core.schemes.factory import make_baseline
from repro.sim.runner import dnn_workload

BACKENDS = ("python",) + (("native",) if native_available() else ())

CAPACITY = 2048
LEAF_LINES = 4 * CAPACITY
LINE = 64


def _geometry() -> TreeGeometry:
    leaf_end = LEAF_LINES * LINE
    l1_end = leaf_end + (LEAF_LINES // 8) * LINE
    return TreeGeometry(((0, leaf_end, leaf_end, 8),
                         (leaf_end, l1_end, l1_end, 8)), LINE)


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_flood(benchmark, backend):
    """Clean capacity floods: the bulk-replace fast path."""
    benchmark.extra_info["engine_backend"] = backend
    lines = np.arange(LEAF_LINES, dtype=np.int64) * LINE

    def flood():
        engine = create_engine(CAPACITY, geometry=_geometry(), backend=backend)
        sink = EventSink()
        for _ in range(3):
            engine.probe_lines(lines, False, sink)
        return sink

    sink = benchmark.pedantic(flood, rounds=3, iterations=1, warmup_rounds=1)
    assert sink.miss_count == 3 * LEAF_LINES  # every pass floods

@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_chain_heavy(benchmark, backend):
    """Dirty conveyor: every eviction walks a write-back parent chain."""
    benchmark.extra_info["engine_backend"] = backend
    lines = np.arange(LEAF_LINES, dtype=np.int64) * LINE

    def churn():
        engine = create_engine(CAPACITY, geometry=_geometry(), backend=backend)
        sink = EventSink()
        for _ in range(2):
            engine.probe_lines(lines, True, sink)
        return sink

    sink = benchmark.pedantic(churn, rounds=3, iterations=1, warmup_rounds=1)
    assert sink.writeback_count > LEAF_LINES


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_walk_runs(benchmark, backend):
    """Short ascending runs, the shape of integrity-tree walk probes."""
    benchmark.extra_info["engine_backend"] = backend
    runs = []
    for i in range(2000):
        start = (i * 37) % (LEAF_LINES - 8)
        runs.append((np.arange(start, start + 8, dtype=np.int64)) * LINE)

    def walk():
        engine = create_engine(CAPACITY, geometry=_geometry(), backend=backend)
        sink = EventSink()
        for run in runs:
            engine.probe_lines(run, False, sink)
        return sink

    sink = benchmark.pedantic(walk, rounds=3, iterations=1, warmup_rounds=1)
    assert sink.miss_count > 0


#: The suite trace ``test_engine_suite_trace`` prices.
SUITE_TRACE = ("GoogleNet", "Cloud")


@functools.lru_cache(maxsize=1)
def _suite_trace():
    """(protected bytes, whole-trace batch, phase offsets), built once."""
    workload = dnn_workload(*SUITE_TRACE, training=True, use_cache=False)
    return workload.protected_bytes, workload.trace.batch, workload.trace.offsets


def _price_suite_trace(monkeypatch, backend, rows=None):
    """One BP pricing session over the whole suite trace on ``backend``:
    per-phase traffic, the closing flush, and the cache counters.
    ``rows`` collects each engine call's run columns."""
    protected_bytes, batch, offsets = _suite_trace()
    monkeypatch.setenv("REPRO_ENGINE", backend)
    scheme = make_baseline(protected_bytes)
    engine = scheme._lru_engine()
    assert engine.backend_name == backend
    if rows is not None:
        probe = engine.probe_run_batch

        def spy(*columns):
            rows.append(columns[:7])
            return probe(*columns)

        engine.probe_run_batch = spy
    with scheme.pricing_session() as session:
        traffic = session.price(batch, offsets)
    tail = scheme.finish()
    return (traffic.table.tolist(), tail.__dict__,
            scheme._cache.stats.as_dict())


@pytest.fixture(scope="module")
def suite_priced():
    """Each backend's priced suite-trace session, for the parity check."""
    return {}


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_suite_trace(benchmark, monkeypatch, suite_priced, backend):
    """A full-size BP session over a training step, timed on ``backend``
    alone: a compiled backend prices the python engine's traffic; no
    wall-clock bound."""
    benchmark.extra_info["engine_backend"] = backend
    rows: list = []
    priced = benchmark.pedantic(_price_suite_trace,
                                args=(monkeypatch, backend, rows),
                                rounds=3, iterations=1, warmup_rounds=1)
    suite_priced[backend] = priced
    if backend != "python":
        reference = suite_priced.get("python")
        if reference is None:  # the python case was not selected
            reference = _price_suite_trace(monkeypatch, "python")
        assert priced == reference
    # The trace exercises every engine path: flood rows, dirty runs
    # (write-back streaks) and tree walks.
    flood = np.concatenate([columns[6] for columns in rows])
    dirty = np.concatenate([columns[4] for columns in rows])
    walk = np.concatenate([columns[5] for columns in rows])
    assert (flood & FLOOD_MAC).any() and (flood & FLOOD_VN).any()
    assert dirty.any() and walk.any()
    assert priced[2]["writebacks"] > 0
