"""DNN trace generation: VN correctness and traffic structure.

The central invariant (§III-C/§IV-C): every read access carries the VN of
the most recent write to that tensor, and write VNs never repeat for a
location.  These tests check it across inference, tiling and training.
"""

import pytest

from repro.core.access import DataClass
from repro.core.vngen import UniquenessGuard
from repro.dnn.accelerator import CLOUD, EDGE
from repro.dnn.models import alexnet, bert_base, build_model, dlrm, resnet50
from repro.dnn.tracegen import DnnTraceGenerator


def _trace(model, config=CLOUD, training=False, batch=1):
    gen = DnnTraceGenerator(model, config, batch=batch)
    return gen.training_step() if training else gen.inference()


class TestInferenceTraceStructure:
    def test_one_phase_per_layer(self):
        model = alexnet()
        trace = _trace(model)
        assert len(trace.trace.to_phases()) == len(model.layers)

    def test_every_access_has_vn(self):
        trace = _trace(alexnet())
        for phase in trace.trace.to_phases():
            for access in phase.accesses:
                assert access.vn is not None

    def test_weights_read_once_per_layer(self):
        model = alexnet()
        trace = _trace(model)
        for phase, layer in zip(trace.trace.to_phases(), model.layers):
            weight_reads = [
                a for a in phase.accesses
                if a.data_class is DataClass.WEIGHT and not a.is_write
            ]
            if layer.weight_bytes:
                assert len(weight_reads) >= 1
                assert weight_reads[0].size == layer.weight_bytes
            else:
                assert not weight_reads

    def test_weight_vns_constant_within_inference(self):
        trace = _trace(resnet50())
        weight_vns = {
            a.vn
            for p in trace.trace.to_phases()
            for a in p.accesses
            if a.data_class is DataClass.WEIGHT
        }
        assert len(weight_vns) == 1

    def test_feature_write_vns_strictly_increase(self):
        trace = _trace(resnet50())
        write_vns = [
            a.vn
            for p in trace.trace.to_phases()
            for a in p.accesses
            if a.data_class is DataClass.FEATURE and a.is_write
        ]
        assert all(a < b for a, b in zip(write_vns, write_vns[1:]))

    def test_reads_match_most_recent_write(self):
        """Replay the trace through a write log: every feature read's VN
        equals the VN of the last write covering that address."""
        trace = _trace(resnet50())
        # The external input was ingested by the host before execution;
        # seed the log with its VN as the kernel's state records it.
        input_region = trace.address_space.region("feat:input")
        last_write: dict[int, int] = {
            input_region.base: trace.vn_state.read_features("input")
        }
        for phase in trace.trace.to_phases():
            for access in phase.accesses:
                if access.data_class is not DataClass.FEATURE:
                    continue
                if access.is_write:
                    last_write[access.address] = access.vn
                else:
                    assert last_write.get(access.address) == access.vn, phase.name

    def test_write_vns_never_reuse_per_location(self):
        """Feed every write into the UniquenessGuard: must never raise."""
        trace = _trace(build_model("GoogleNet"))
        guard = UniquenessGuard()
        for phase in trace.trace.to_phases():
            for access in phase.accesses:
                if access.is_write:
                    guard.register_write(access.address, access.vn)

    def test_total_bytes_positive_and_consistent(self):
        trace = _trace(alexnet())
        assert trace.trace.total_bytes == sum(
            p.total_bytes() for p in trace.trace.to_phases())
        assert trace.trace.total_bytes > alexnet().total_weight_bytes


class TestTiledMultiPass:
    def test_multipass_reads_back_partials(self):
        """Where tiling spills partial sums, the trace must read the
        previous pass with the pre-increment VN (Fig. 7 Algorithm)."""
        trace = _trace(bert_base(layers=1), config=EDGE)
        for phase in trace.trace.to_phases():
            feature_ops = [
                a for a in phase.accesses if a.data_class is DataClass.FEATURE
            ]
            writes = [a for a in feature_ops if a.is_write]
            if len(writes) <= 1:
                continue
            # Multi-pass layer: between consecutive writes there must be a
            # read of the same address with the previous write's VN.
            for earlier, later in zip(writes, writes[1:]):
                reads_between = [
                    a for a in feature_ops
                    if not a.is_write and a.address == earlier.address
                    and earlier.vn <= a.vn < later.vn
                ]
                assert reads_between, phase.name

    def test_batch_scales_feature_traffic(self):
        t1 = _trace(alexnet(), batch=1)
        t4 = _trace(alexnet(), batch=4)
        f1 = sum(a.size for p in t1.trace.to_phases() for a in p.accesses
                 if a.data_class is DataClass.FEATURE)
        f4 = sum(a.size for p in t4.trace.to_phases() for a in p.accesses
                 if a.data_class is DataClass.FEATURE)
        assert f4 == pytest.approx(4 * f1, rel=0.01)


class TestTrainingTrace:
    def test_training_extends_inference(self):
        model = alexnet()
        inf = _trace(model)
        train = _trace(alexnet(), training=True)
        assert len(train.trace.to_phases()) > len(inf.trace.to_phases())

    def test_gradient_accesses_present(self):
        train = _trace(alexnet(), training=True)
        kinds = {a.data_class for p in train.trace.to_phases() for a in p.accesses}
        assert DataClass.GRADIENT in kinds

    def test_gradient_reads_match_writes(self):
        """Gradients obey the same read-follows-write VN discipline.

        Gradient tensors reuse feature addresses — the Fig. 6 space tags
        keep their counters distinct — so the log is per (class, address).
        """
        train = _trace(resnet50(), training=True)
        last_write: dict[tuple[str, int], int] = {}
        for phase in train.trace.to_phases():
            for access in phase.accesses:
                if access.data_class is not DataClass.GRADIENT:
                    continue
                key = ("G", access.address)
                if access.is_write:
                    last_write[key] = access.vn
                elif key in last_write:
                    assert access.vn <= last_write[key]

    def test_no_weight_update_emitted(self):
        """§VI-A: the optimizer's in-place weight write is not emulated,
        so no WEIGHT-class writes appear."""
        train = _trace(alexnet(), training=True)
        weight_writes = [
            a for p in train.trace.to_phases() for a in p.accesses
            if a.data_class is DataClass.WEIGHT and a.is_write
        ]
        assert not weight_writes

    def test_training_reads_saved_features(self):
        """Backward phases re-read forward activations."""
        train = _trace(alexnet(), training=True)
        backward = [p for p in train.trace.to_phases() if p.name.startswith("bwd:")]
        feature_reads = [
            a for p in backward for a in p.accesses
            if a.data_class is DataClass.FEATURE and not a.is_write
        ]
        assert feature_reads


class TestDlrmTrace:
    def test_embedding_gather_is_scattered(self):
        trace = _trace(dlrm())
        gathers = [
            a for p in trace.trace.to_phases() for a in p.accesses
            if a.data_class is DataClass.EMBEDDING
        ]
        assert len(gathers) == 1
        g = gathers[0]
        assert not g.sequential
        assert g.burst_bytes == 512
        assert g.spread_bytes > g.size

    def test_embedding_rows_not_spilled(self):
        trace = _trace(dlrm())
        emb_phase = next(p for p in trace.trace.to_phases() if p.name == "fwd:emb")
        writes = [a for a in emb_phase.accesses if a.is_write]
        assert not writes

    def test_address_space_fits_tables(self):
        trace = _trace(dlrm())
        emb_region = trace.address_space.region("emb:emb")
        assert emb_region.size == dlrm().layer("emb").total_table_bytes
