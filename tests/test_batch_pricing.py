"""Batched pricing contract: ``pricing_session()`` ≡ per-access ``process``.

The sweep pipeline rests on one invariant: pricing a stream of
:class:`~repro.core.access.AccessBatch` through one pricing session must
equal — byte for byte, per traffic category, per phase — processing the
same accesses in order.  These tests pin that down with a Hypothesis
differential over random two-level cuts (price calls, and phases within
each call), a randomized-seed property sweep over all five schemes plus
real DNN and graph traces, and cover the trace/sweep cache the runner
builds on top.
"""

from __future__ import annotations

import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import MIB
from repro.core.access import (
    AccessBatch,
    AccessKind,
    DataClass,
    MemAccess,
    Phase,
    Trace,
)
from repro.core.lru_engine import LruEngine
from repro.core.schemes import ProtectionTraffic, scheme_suite
from repro.core.schemes.base import one_phase
from repro.core.schemes.counter_mode import FINE_MAC_POLICY, CounterModeProtection
from repro.sim.runner import (
    SCHEMES,
    TRACE_CACHE,
    TraceCache,
    dnn_sweep,
    dnn_workload,
    graph_workload,
)

_PROTECTED = 256 * MIB


def _random_accesses(seed: int, n: int = 120) -> list[MemAccess]:
    """A mixed bag of streams and gathers over every data class."""
    rng = random.Random(seed)
    accesses = []
    for _ in range(n):
        data_class = rng.choice(list(DataClass))
        kind = rng.choice([AccessKind.READ, AccessKind.WRITE])
        size = rng.randint(1, MIB)
        address = rng.randint(0, _PROTECTED - size)
        if rng.random() < 0.5:
            accesses.append(MemAccess(
                address, size, kind, data_class, sequential=True,
                vn=rng.choice([None, rng.getrandbits(64)]),
            ))
        else:
            burst = rng.choice([64, 128, 256, 512, 4096])
            accesses.append(MemAccess(
                address, size, kind, data_class, sequential=False,
                burst_bytes=burst,
                spread_bytes=rng.randint(burst, 64 * MIB),
            ))
    return accesses


def _price_per_access(scheme, accesses) -> ProtectionTraffic:
    traffic = ProtectionTraffic()
    for access in accesses:
        traffic.merge(scheme.process(access))
    traffic.merge(scheme.finish())
    return traffic


def _price_batched(scheme, batch) -> ProtectionTraffic:
    traffic = scheme.price_batch(batch)
    traffic.merge(scheme.finish())
    return traffic


#: A small protected region carved into 64 KiB slots, so random accesses
#: overlap: metadata lines get reused, dirtied, evicted and flooded.
_SMALL_PROTECTED = 4 * MIB
_SLOT = 64 * 1024


@st.composite
def _clustered_access(draw) -> MemAccess:
    size = draw(st.one_of(st.integers(1, 16 * 1024),
                          st.integers(1, 512 * 1024)))
    slot = draw(st.integers(0, _SMALL_PROTECTED // _SLOT - 1))
    offset = draw(st.integers(0, _SLOT - 1))
    address = min(slot * _SLOT + offset, _SMALL_PROTECTED - size)
    data_class = draw(st.sampled_from(DataClass))
    kind = draw(st.sampled_from([AccessKind.READ, AccessKind.WRITE]))
    if draw(st.booleans()):
        return MemAccess(address, size, kind, data_class, sequential=True)
    burst = draw(st.sampled_from([64, 128, 256, 512, 4096]))
    return MemAccess(address, size, kind, data_class, sequential=False,
                     burst_bytes=burst,
                     spread_bytes=draw(st.integers(burst, _SMALL_PROTECTED)))


def _cut(draw, items: list, max_cuts: int) -> list[list]:
    """``items`` cut at random boundaries (empty pieces too)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(items)),
                                max_size=max_cuts)))
    bounds = [0, *cuts, len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@st.composite
def _cut_trace(draw) -> list[list[list[MemAccess]]]:
    """Random accesses cut into price calls, each call cut into phases
    (empty calls and empty phases too)."""
    accesses = draw(st.lists(_clustered_access(), max_size=16))
    return [_cut(draw, call, 4) for call in _cut(draw, accesses, 4)]


def _differential_schemes() -> dict:
    """The five suite schemes plus a tiny stored-VN cache: small enough
    that runs flood and chains climb."""
    schemes = scheme_suite(_SMALL_PROTECTED)
    schemes["tiny"] = CounterModeProtection(
        name="tiny", vn_onchip=False, mac_policy=FINE_MAC_POLICY,
        protected_bytes=_SMALL_PROTECTED, cache_bytes=1024,
    )
    return schemes


def _scheme_state(scheme) -> tuple:
    """Scheme stats, cache stats and cache contents (LRU order, dirt)."""
    cache = getattr(scheme, "cache", None)
    if cache is None:
        return (scheme.stats.as_dict(),)
    return (scheme.stats.as_dict(), cache.stats.as_dict(),
            list(cache.contents().items()))


def _price_calls(session, calls) -> list[list[tuple]]:
    """Per call, per phase traffic of one session over ``calls``."""
    priced = []
    for phases in calls:
        batch = AccessBatch.from_accesses([a for p in phases for a in p])
        offsets = np.cumsum([0] + [len(p) for p in phases])
        table = session.price(batch, offsets).table
        assert table.shape == (len(phases), 8)
        priced.append([tuple(row) for row in table.tolist()])
    return priced


class TestOneSessionDifferential:
    @given(calls=_cut_trace())
    @settings(max_examples=100, deadline=None)
    def test_session_matches_per_access_walk(self, calls):
        """One ``pricing_session()`` over a trace cut into price calls
        of several phases ≡ ``process`` per access: per-phase traffic,
        state after the stream, ``finish()``."""
        reference = _differential_schemes()
        priced = _differential_schemes()
        for name, scheme in priced.items():
            expected = []
            for phases in calls:
                expected.append([])
                for accesses in phases:
                    traffic = ProtectionTraffic()
                    for access in accesses:
                        traffic.merge(reference[name].process(access))
                    expected[-1].append(astuple(traffic))
            with scheme.pricing_session() as session:
                actual = _price_calls(session, calls)
            assert actual == expected, name
            assert _scheme_state(scheme) == _scheme_state(reference[name]), name
            assert astuple(scheme.finish()) == astuple(reference[name].finish()), name
            assert _scheme_state(scheme) == _scheme_state(reference[name]), name


class TestAccessBatchRoundTrip:
    def test_reconstruction_is_lossless(self):
        accesses = _random_accesses(seed=7)
        batch = AccessBatch.from_accesses(accesses)
        assert batch.to_accesses() == accesses

    def test_from_phase(self):
        accesses = _random_accesses(seed=9, n=5)
        batch = AccessBatch.from_phase(Phase("p", 0.0, accesses))
        assert len(batch) == 5
        assert batch.total_data_bytes == sum(a.size for a in accesses)

    def test_empty_batch(self):
        batch = AccessBatch.from_accesses([])
        assert len(batch) == 0
        assert batch.total_data_bytes == 0
        assert batch.to_accesses() == []

    def test_tagged_64bit_vns_survive(self):
        """Graph/video VNs use all 64 bits (class tag in the top bits)."""
        access = MemAccess(0, 64, AccessKind.WRITE, DataClass.VECTOR,
                           vn=(3 << 62) | 12345)
        batch = AccessBatch.from_accesses([access])
        assert batch.to_accesses()[0].vn == (3 << 62) | 12345


class TestBatchPricingEquivalence:
    """price_batch == per-access pricing, for every scheme, any trace."""

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_traces_all_schemes(self, seed):
        accesses = _random_accesses(seed)
        batch = AccessBatch.from_accesses(accesses)
        reference_suite = scheme_suite(_PROTECTED)
        batched_suite = scheme_suite(_PROTECTED)
        for name in SCHEMES:
            expected = _price_per_access(reference_suite[name], accesses)
            actual = _price_batched(batched_suite[name], batch)
            assert astuple(actual) == astuple(expected), name

    @pytest.mark.parametrize("seed", range(4))
    def test_stats_match_too(self, seed):
        accesses = _random_accesses(seed, n=60)
        batch = AccessBatch.from_accesses(accesses)
        reference_suite = scheme_suite(_PROTECTED)
        batched_suite = scheme_suite(_PROTECTED)
        for name in SCHEMES:
            _price_per_access(reference_suite[name], accesses)
            _price_batched(batched_suite[name], batch)
            assert (reference_suite[name].stats.as_dict()
                    == batched_suite[name].stats.as_dict()), name

    def _assert_equivalent_on(self, workload):
        accesses = workload.trace.batch.to_accesses()
        reference_suite = scheme_suite(workload.protected_bytes)
        batched_suite = scheme_suite(workload.protected_bytes)
        whole = AccessBatch.from_accesses(accesses)
        for name in SCHEMES:
            expected = _price_per_access(reference_suite[name], accesses)
            actual = _price_batched(batched_suite[name], whole)
            assert astuple(actual) == astuple(expected), name

    def test_dnn_trace_all_schemes(self):
        self._assert_equivalent_on(dnn_workload("AlexNet", "Cloud"))

    def test_dnn_training_trace_all_schemes(self):
        self._assert_equivalent_on(dnn_workload("AlexNet", "Cloud", training=True))

    def test_graph_trace_all_schemes(self):
        self._assert_equivalent_on(
            graph_workload("google-plus", "PR", iterations=2, scale_divisor=256)
        )

    def test_vectorized_path_is_exercised(self):
        """The stateless schemes really do take the columnar fast path."""
        from repro.core.schemes import make_mgx

        scheme = make_mgx(_PROTECTED)
        accesses = _random_accesses(seed=3, n=50)
        batch = AccessBatch.from_accesses(accesses)
        vectorized = scheme._price_batch_stateless(batch, one_phase(batch)).total()
        scheme.reset()
        expected = _price_per_access(scheme, accesses)
        assert astuple(vectorized) == astuple(expected)

    @pytest.mark.parametrize("name", ["BP", "MGX_MAC"])
    def test_cached_schemes_never_fall_back_to_process(self, name, monkeypatch):
        """BP/MGX_MAC batch pricing takes the segment path, not the walk."""
        scheme = scheme_suite(_PROTECTED)[name]
        batch = AccessBatch.from_accesses(_random_accesses(seed=11, n=40))

        def boom(access):
            raise AssertionError("price_batch fell back to process()")

        monkeypatch.setattr(scheme, "process", boom)
        traffic = scheme.price_batch(batch)
        assert traffic.total_bytes > 0

    def test_run_prices_through_one_session(self, monkeypatch):
        """``PerformanceModel.run`` opens exactly one pricing session per
        scheme, prices the whole trace with one ``price`` call and at
        most one engine ``probe_run_batch`` call (floods are rows of that
        call), and never takes the per-access reference walk."""
        from repro.core.engine_backend import native_available

        workload = dnn_workload("AlexNet", "Cloud")
        model = workload.performance_model()
        calls: dict[str, int] = {}

        def boom(self, access):
            raise AssertionError("PerformanceModel.run called process()")

        def counted(name, real):
            def method(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                if name == "probe_run_batch":  # (self, ..., flood, sink)
                    calls["flood rows"] = calls.get("flood rows", 0) + \
                        int(np.count_nonzero(args[7]))
                return real(*args, **kwargs)
            return method

        engines = [LruEngine]
        if native_available():
            from repro.core.lru_native import NativeLruEngine
            engines.append(NativeLruEngine)
        for engine in engines:
            monkeypatch.setattr(engine, "probe_run_batch",
                                counted("probe_run_batch",
                                        engine.probe_run_batch))
        floods = 0
        for name, scheme in scheme_suite(workload.protected_bytes).items():
            opened = []
            calls.clear()

            def counting_session(real=scheme.pricing_session):
                session = real()
                session.price = counted("price", session.price)
                opened.append(session)
                return session

            monkeypatch.setattr(scheme, "pricing_session", counting_session)
            monkeypatch.setattr(type(scheme), "process", boom)
            result = model.run(workload.trace, scheme)
            assert len(opened) == 1, name
            assert calls.get("price") == 1, name
            assert calls.get("probe_run_batch", 0) <= 1, name
            assert result.traffic.data_bytes > 0, name
            floods += calls.get("flood rows", 0)
        # The cached schemes' runs really flood, as rows executed inside
        # the engine call.
        assert floods > 0

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cache_bytes", [1024, 4096])
    def test_tiny_caches_stress_evictions_and_chains(self, seed, cache_bytes):
        """Adversarial configs: caches small enough that every segment
        evicts, floods trigger, and writeback chains climb the tree —
        the segment-vectorized path must still match byte for byte."""
        from repro.core.schemes.counter_mode import (
            FINE_MAC_POLICY,
            CounterModeProtection,
        )

        def make():
            return CounterModeProtection(
                name="tiny",
                vn_onchip=False,
                mac_policy=FINE_MAC_POLICY,
                protected_bytes=_PROTECTED,
                cache_bytes=cache_bytes,
            )

        accesses = _random_accesses(seed, n=80)
        expected = _price_per_access(make(), accesses)
        actual = _price_batched(make(), AccessBatch.from_accesses(accesses))
        assert astuple(actual) == astuple(expected)

    @pytest.mark.parametrize("name", ["BP", "MGX_MAC"])
    def test_cached_schemes_on_dnn_trace(self, name):
        """Per-acceptance: BP and MGX_MAC pinned on a real DNN trace."""
        workload = dnn_workload("AlexNet", "Cloud", training=True)
        accesses = workload.trace.batch.to_accesses()
        expected = _price_per_access(
            scheme_suite(workload.protected_bytes)[name], accesses
        )
        actual = _price_batched(
            scheme_suite(workload.protected_bytes)[name],
            AccessBatch.from_accesses(accesses),
        )
        assert astuple(actual) == astuple(expected)

    @pytest.mark.parametrize("name", ["BP", "MGX_MAC"])
    def test_cached_schemes_on_graph_trace(self, name):
        """Per-acceptance: BP and MGX_MAC pinned on a real graph trace."""
        workload = graph_workload("ogbl-ppa", "BFS", iterations=2,
                                  scale_divisor=256)
        accesses = workload.trace.batch.to_accesses()
        expected = _price_per_access(
            scheme_suite(workload.protected_bytes)[name], accesses
        )
        actual = _price_batched(
            scheme_suite(workload.protected_bytes)[name],
            AccessBatch.from_accesses(accesses),
        )
        assert astuple(actual) == astuple(expected)

    @pytest.mark.parametrize("name", ["BP", "MGX_MAC"])
    def test_session_matches_per_batch_pricing(self, name):
        """One session over the whole trace ≡ a one-batch session per
        phase — traffic, scheme stats, cache stats and final LRU state
        alike."""
        workload = dnn_workload("AlexNet", "Cloud", training=True)
        batches = [AccessBatch.from_phase(phase)
                   for phase in workload.trace.to_phases()]
        per_batch_scheme = scheme_suite(workload.protected_bytes)[name]
        trace_scheme = scheme_suite(workload.protected_bytes)[name]
        per_batch = [per_batch_scheme.price_batch(batch) for batch in batches]
        with trace_scheme.pricing_session() as session:
            whole = [session.price(batch, one_phase(batch)).total()
                     for batch in batches]
        assert [astuple(t) for t in whole] == [astuple(t) for t in per_batch]
        assert astuple(trace_scheme.finish()) == astuple(per_batch_scheme.finish())
        assert trace_scheme.stats.as_dict() == per_batch_scheme.stats.as_dict()
        assert (trace_scheme.cache.stats.as_dict()
                == per_batch_scheme.cache.stats.as_dict())
        assert trace_scheme.cache.contents() == per_batch_scheme.cache.contents()

    @pytest.mark.parametrize("offsets", [[0, 1], [0, 2, 1, 3], [1, 3], [0]])
    def test_bad_phase_offsets_rejected(self, offsets):
        """Phase offsets must rise from 0 to the batch length."""
        from repro.common.errors import ConfigError

        batch = AccessBatch.from_accesses(_random_accesses(seed=2, n=3))
        for scheme in scheme_suite(_PROTECTED).values():
            with scheme.pricing_session() as session:
                with pytest.raises(ConfigError, match="phase offsets"):
                    session.price(batch, offsets)

    def test_out_of_range_batch_rejected(self):
        from repro.common.errors import ConfigError
        from repro.core.schemes import make_mgx

        scheme = make_mgx(1 * MIB)
        batch = AccessBatch.from_accesses(
            [MemAccess(1 * MIB - 64, 128, AccessKind.READ)]
        )
        with pytest.raises(ConfigError):
            scheme.price_batch(batch)


class TestTraceCache:
    def test_hit_and_miss_accounting(self):
        cache = TraceCache(max_entries=2)
        built = []
        cache.get_or_build("a", lambda: built.append("a") or 1)
        cache.get_or_build("a", lambda: built.append("a") or 1)
        assert built == ["a"]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        assert stats["disk_hits"] == 0

    def test_lru_eviction(self):
        cache = TraceCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.get_or_build(key, lambda k=key: k)
        assert len(cache) == 2
        calls = []
        cache.get_or_build("a", lambda: calls.append(1) or "a")  # evicted: rebuilt
        assert calls == [1]

    def test_disabled_cache_always_builds(self):
        cache = TraceCache()
        cache.enabled = False
        built = []
        cache.get_or_build("k", lambda: built.append(1))
        cache.get_or_build("k", lambda: built.append(1))
        assert len(built) == 2 and len(cache) == 0

    def test_sweep_reuse_across_calls(self):
        first = dnn_sweep("AlexNet", "Cloud")
        again = dnn_sweep("AlexNet", "Cloud")
        assert again is first  # served from the sweep cache

    def test_cached_and_uncached_sweeps_agree(self):
        cached = dnn_sweep("AlexNet", "Cloud")
        fresh = dnn_sweep("AlexNet", "Cloud", use_cache=False)
        assert fresh is not cached
        for name in SCHEMES:
            assert fresh.results[name].total_cycles == pytest.approx(
                cached.results[name].total_cycles
            )
            assert (fresh.results[name].traffic.total_bytes
                    == cached.results[name].traffic.total_bytes)

    def test_workload_trace_shared_between_sweep_and_workload(self):
        workload = dnn_workload("AlexNet", "Cloud")
        again = dnn_workload("AlexNet", "Cloud")
        assert again.trace is workload.trace

    def test_batched_trace_total_accesses(self):
        workload = dnn_workload("AlexNet", "Cloud")
        phases = workload.trace.to_phases()
        assert workload.trace.total_accesses == sum(
            len(p.accesses) for p in phases
        )
        rebuilt = Trace.from_phases(phases)
        assert rebuilt.total_accesses == workload.trace.total_accesses

    def test_global_cache_is_enabled_by_default(self):
        assert TRACE_CACHE.enabled
