"""The one trace type: :class:`Trace` and the :class:`TraceBuilder`.

Pins the builder against the object form it replaced (columns, phase
table and spill bytes of a builder-fed trace equal
``Trace.from_phases`` of the same ``MemAccess`` lists), the spill bytes
of one trace per builder path, the shared access check, and that the
suite and the serve catalog build their traces without constructing a
single ``MemAccess``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.core.access import (
    COLUMN_DTYPES,
    AccessKind,
    DataClass,
    MemAccess,
    Phase,
    Trace,
    TraceBuilder,
)
from repro.dnn.accelerator import CONFIGS
from repro.dnn.models import build_model
from repro.dnn.tracegen import DnnTraceGenerator
from repro.graph.generators import uniform_random_graph
from repro.graph.graphlily import GraphAcceleratorConfig, GraphTraceGenerator
from repro.sim.spillfmt import encode_trace
from repro.video.decoder import DecoderConfig, H264Decoder
from repro.video.gop import GopStructure

# -- the shared access check ------------------------------------------------

_BAD_ACCESSES = [
    dict(address=-1),
    dict(address=1 << 63),
    dict(size=0),
    dict(size=1 << 63),
    dict(vn=-1),
    dict(vn=1 << 64),
    dict(burst_bytes=0),
    dict(burst_bytes=128, spread_bytes=64),
    dict(spread_bytes=1 << 63),
]


def _fields(**overrides) -> dict:
    fields = dict(address=0, size=64, kind=AccessKind.READ,
                  data_class=DataClass.BULK, sequential=True, vn=None,
                  burst_bytes=None, spread_bytes=None)
    fields.update(overrides)
    return fields


class TestAccessCheck:
    @pytest.mark.parametrize("bad", _BAD_ACCESSES, ids=str)
    def test_mem_access_and_builder_reject_alike(self, bad):
        """``MemAccess`` and ``TraceBuilder.access`` share one check: a
        value outside its column's range is a ``ConfigError`` at
        construction, not an ``OverflowError`` when the columns are
        built."""
        with pytest.raises(ConfigError):
            MemAccess(**_fields(**bad))
        with pytest.raises(ConfigError):
            TraceBuilder().access(**_fields(**bad))

    def test_full_width_vns_accepted(self):
        builder = TraceBuilder()
        for vn in (0, 1 << 63, (1 << 64) - 1):
            MemAccess(**_fields(vn=vn))
            builder.access(**_fields(vn=vn))
        builder.end_phase("p", 0)
        assert builder.build().batch.vn.tolist() == [0, 1 << 63, (1 << 64) - 1]

    def test_unended_phase_rejected(self):
        builder = TraceBuilder()
        builder.access(0, 64, AccessKind.READ)
        with pytest.raises(ConfigError, match="end_phase"):
            builder.build()


# -- builder ≡ object form ----------------------------------------------------

_access = st.builds(
    MemAccess,
    address=st.integers(min_value=0, max_value=2**40),
    size=st.integers(min_value=1, max_value=1 << 20),
    kind=st.sampled_from(AccessKind),
    data_class=st.sampled_from(DataClass),
    sequential=st.booleans(),
    vn=st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1),
                 st.integers(min_value=2**63, max_value=2**64 - 1)),
    burst_bytes=st.one_of(st.none(), st.integers(min_value=64, max_value=4096)),
    spread_bytes=st.one_of(st.none(),
                           st.integers(min_value=4096, max_value=1 << 24)),
)

_phase = st.builds(
    Phase,
    name=st.text(max_size=8),
    compute_cycles=st.one_of(
        st.integers(min_value=0, max_value=10**9),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    ),
    accesses=st.lists(_access, max_size=5),
)


class TestBuilderDifferential:
    @settings(max_examples=60, deadline=None)
    @given(phases=st.lists(_phase, max_size=5))
    def test_builder_equals_from_phases(self, phases):
        builder = TraceBuilder()
        for phase in phases:
            for a in phase.accesses:
                builder.access(a.address, a.size, a.kind, a.data_class,
                               a.sequential, a.vn, a.burst_bytes,
                               a.spread_bytes)
            builder.end_phase(phase.name, phase.compute_cycles)
        built = builder.build()
        reference = Trace.from_phases(phases)
        for name, dtype in COLUMN_DTYPES:
            column = getattr(built.batch, name)
            assert column.dtype == np.dtype(dtype), name
            assert column.dtype == getattr(reference.batch, name).dtype, name
            assert column.tolist() == getattr(reference.batch, name).tolist()
        assert built.names == reference.names
        assert built.compute_cycles == reference.compute_cycles
        assert [type(c) for c in built.compute_cycles] \
            == [type(p.compute_cycles) for p in phases]
        assert built.offsets.dtype == reference.offsets.dtype == np.int64
        assert built.offsets.tolist() == reference.offsets.tolist()
        assert encode_trace(built) == encode_trace(reference)
        assert built.phase_bytes() == [p.total_bytes() for p in phases]
        rebuilt = built.to_phases()
        assert [(p.name, p.compute_cycles, p.accesses) for p in rebuilt] \
            == [(p.name, p.compute_cycles, p.accesses) for p in phases]


# -- one pinned spill per builder path --------------------------------------

_GRAPH = uniform_random_graph(4096, 32768, seed=3)


def _graph_generator() -> GraphTraceGenerator:
    return GraphTraceGenerator(_GRAPH,
                               GraphAcceleratorConfig(vector_buffer_bytes=1024))


_CLOUD = CONFIGS["Cloud"]

#: sha256 of ``encode_trace`` per builder path, computed from the
#: object-building generators these builders replaced.
_PINNED = {
    "alexnet-inference": (
        lambda: DnnTraceGenerator(build_model("AlexNet"), _CLOUD).inference(),
        "bfdb4b74c7c6c3c73c098800f0d97d10016219a4152977348a085253d7a00f75"),
    "alexnet-training": (
        lambda: DnnTraceGenerator(build_model("AlexNet"),
                                  _CLOUD).training_step(),
        "434e1b6357ed4265334edf2d39224fb7606f5bc42de837fc3274bee4146229bb"),
    "dlrm-embedding-gather": (
        lambda: DnnTraceGenerator(build_model("DLRM"), _CLOUD).inference(),
        "5ae197f74fc646c2f5c089baa612c614eb68956fc72d5b7f595d956937ceade1"),
    "pagerank": (
        lambda: _graph_generator().pagerank_trace(iterations=2),
        "0cb8f49b681b4fbfafee5614b7d53e4dad323d7a49dc4469cf162b09c663f997"),
    "bfs": (
        lambda: _graph_generator().bfs_trace(),
        "3093e17dfa45d1523fc98bb2594d41a872e81d7dbc23e3368f7524ed9f95d516"),
    "spmspv": (
        lambda: _graph_generator().spmspv_trace(iterations=2),
        "8060a10947dc4df3896f255fd6a9ffde870d03f7e36e6f0342d808ba93ebeaaf"),
    "h264-decode": (
        lambda: H264Decoder(GopStructure("IBPB", 8),
                            DecoderConfig()).decode_trace(),
        "63a36d2ae7777c714a48e47d3bd96782e3b170136d194f610d96531fb2d3ab42"),
}


class TestPinnedSpills:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_builder_spill_bytes_pinned(self, name):
        build, digest = _PINNED[name]
        payload = encode_trace(build().trace)
        assert hashlib.sha256(payload).hexdigest() == digest


# -- no access objects on the pricing path -----------------------------------

def _count_mem_accesses(monkeypatch) -> list:
    built = []
    real_init = MemAccess.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(MemAccess, "__init__", counting_init)
    return built


class TestNoAccessObjects:
    def test_quick_suite_builds_no_mem_access(self, fresh_cache, monkeypatch):
        from repro.experiments.ablations import ABLATIONS, run_ablation
        from repro.experiments.extras import EXTRAS, run_extra
        from repro.experiments.registry import EXPERIMENTS, run_experiment

        built = _count_mem_accesses(monkeypatch)
        for experiment in EXPERIMENTS:
            run_experiment(experiment, quick=True)
        for name in ABLATIONS:
            run_ablation(name, quick=True)
        for name in EXTRAS:
            run_extra(name, quick=True)
        assert fresh_cache.misses > 0
        assert built == []

    def test_serve_catalog_builds_no_mem_access(self, fresh_cache,
                                                 monkeypatch):
        from repro.experiments.registry import resolve_request
        from repro.serve.loadgen import DEFAULT_MIX

        built = _count_mem_accesses(monkeypatch)
        for name, scheme in DEFAULT_MIX:
            assert resolve_request(name, scheme).offline_payload()
        assert built == []
