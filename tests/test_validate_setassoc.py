"""Trace validator and the set-associative cache option."""

import pytest

from repro.core.access import DataClass, Phase, read, write
from repro.core.counters import VnSpace
from repro.core.metadata_cache import MetadataCache
from repro.core.validate import validate_trace
from repro.common.errors import ConfigError


class TestValidateTrace:
    def test_clean_trace_passes(self):
        phases = [
            Phase("l0", 1.0, [
                write(0, 4096, DataClass.FEATURE, vn=1),
            ]),
            Phase("l1", 1.0, [
                read(0, 4096, DataClass.FEATURE, vn=1),
                write(8192, 4096, DataClass.FEATURE, vn=2),
            ]),
        ]
        report = validate_trace(phases)
        assert report.ok
        assert report.accesses_checked == 3
        assert report.writes_seen == 2

    def test_vn_reuse_flagged(self):
        phases = [
            Phase("l0", 1.0, [
                write(0, 4096, DataClass.FEATURE, vn=5),
                write(0, 4096, DataClass.FEATURE, vn=5),
            ]),
        ]
        report = validate_trace(phases)
        assert not report.ok
        assert "does not exceed" in str(report.violations[0])

    def test_stale_read_flagged(self):
        phases = [
            Phase("l0", 1.0, [
                write(0, 4096, DataClass.FEATURE, vn=1),
                write(0, 4096, DataClass.FEATURE, vn=2),
                read(0, 4096, DataClass.FEATURE, vn=1),  # stale!
            ]),
        ]
        report = validate_trace(phases)
        assert not report.ok
        assert "!=" in str(report.violations[0])

    def test_read_of_never_written_flagged(self):
        phases = [Phase("l0", 1.0, [read(0, 64, DataClass.FEATURE, vn=1)])]
        assert not validate_trace(phases).ok

    def test_preloaded_seeds_reads(self):
        phases = [Phase("l0", 1.0, [read(0, 64, DataClass.WEIGHT, vn=7)])]
        preloaded = {(int(VnSpace.WEIGHT), 0): 7}
        assert validate_trace(phases, preloaded=preloaded).ok

    def test_spaces_are_independent(self):
        """Gradients may reuse feature addresses: different tag space."""
        phases = [
            Phase("fwd", 1.0, [write(0, 4096, DataClass.FEATURE, vn=9)]),
            Phase("bwd", 1.0, [write(0, 4096, DataClass.GRADIENT, vn=2)]),
        ]
        assert validate_trace(phases).ok

    def test_vnless_accesses_skipped(self):
        phases = [Phase("l0", 1.0, [read(0, 64)])]
        report = validate_trace(phases)
        assert report.ok
        assert report.accesses_checked == 0

    def test_generated_traces_validate(self):
        """Our own generators must pass their own validator."""
        from repro.dnn.accelerator import CLOUD
        from repro.dnn.models import resnet50
        from repro.dnn.tracegen import DnnTraceGenerator

        gen = DnnTraceGenerator(resnet50(), CLOUD)
        trace = gen.inference()
        input_region = trace.address_space.region("feat:input")
        preloaded = {}
        for region in trace.address_space.regions():
            if region.kind == "weight":
                preloaded[(int(VnSpace.WEIGHT), region.base)] = (
                    trace.vn_state.read_weights()
                )
        preloaded[(int(VnSpace.FEATURE), input_region.base)] = (
            trace.vn_state.read_features("input")
        )
        report = validate_trace(trace.trace.to_phases(), preloaded=preloaded)
        assert report.ok, report.violations[:3]

    def test_graph_traces_validate(self):
        from repro.graph.generators import uniform_random_graph
        from repro.graph.graphlily import GraphTraceGenerator

        gen = GraphTraceGenerator(uniform_random_graph(2048, 16384, seed=1))
        trace = gen.pagerank_trace(iterations=3)
        # Adjacency + initial vector were host-loaded: seed them.
        preloaded = {
            (int(VnSpace.OTHER), gen.address_space.region("adjacency").base):
                trace.vn_state.adjacency_vn(),
        }
        report = validate_trace(trace.trace.to_phases(), preloaded=preloaded)
        # Vector reads of iteration 1 reference the host-written initial
        # vector; all violations (if any) must be only those seeds.
        real = [v for v in report.violations if "never written" not in v.reason]
        assert not real

    def test_max_violations_cap(self):
        phases = [
            Phase("l0", 1.0, [read(i * 64, 64, DataClass.FEATURE, vn=1)
                              for i in range(100)]),
        ]
        report = validate_trace(phases, max_violations=5)
        assert len(report.violations) == 5


class TestSetAssociativeCache:
    def test_ways_must_divide_capacity(self):
        with pytest.raises(ConfigError):
            MetadataCache(capacity_bytes=64 * 10, ways=3)

    def test_conflict_misses_within_set(self):
        """Lines mapping to the same set evict each other even when the
        cache as a whole has room — unlike fully-associative."""
        cache = MetadataCache(capacity_bytes=64 * 8, ways=2)  # 4 sets
        n_sets = 4
        # Three lines in set 0: the third evicts the first (2 ways).
        a, b, c = (0, n_sets * 64, 2 * n_sets * 64)
        cache.access(a)
        cache.access(b)
        cache.access(c)
        assert not cache.contains(a)
        assert cache.contains(b) and cache.contains(c)

    def test_fully_assoc_keeps_all_three(self):
        cache = MetadataCache(capacity_bytes=64 * 8)
        for addr in (0, 4 * 64, 8 * 64):
            cache.access(addr)
        assert all(cache.contains(a) for a in (0, 4 * 64, 8 * 64))

    def test_dirty_writeback_per_set(self):
        cache = MetadataCache(capacity_bytes=64 * 4, ways=1)  # direct-mapped
        cache.access(0, dirty=True)
        outcome = cache.access(4 * 64)  # same set (4 sets, stride 4 lines)
        assert outcome.writeback_address == 0

    def test_flush_covers_all_sets(self):
        cache = MetadataCache(capacity_bytes=64 * 4, ways=2)
        cache.access(0, dirty=True)
        cache.access(64, dirty=True)
        assert sorted(cache.flush()) == [0, 64]
        assert len(cache) == 0

    def test_lru_within_set(self):
        cache = MetadataCache(capacity_bytes=64 * 4, ways=2)  # 2 sets
        s = 2 * 64  # set stride
        cache.access(0)
        cache.access(s)        # same set as 0
        cache.access(0)        # refresh 0
        cache.access(2 * s)    # evicts s, not 0
        assert cache.contains(0)
        assert not cache.contains(s)
