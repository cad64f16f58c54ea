"""H.264 decoder model: GOP ordering, reference reads, write-once (§VII-A)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import KIB
from repro.core.access import DataClass
from repro.core.functional import MgxFunctionalEngine
from repro.crypto.keys import SessionKeys
from repro.mem.backing import BackingStore
from repro.video.decoder import DecoderConfig, H264Decoder
from repro.video.gop import FrameType, GopStructure


class TestGopStructure:
    def test_fig18_decode_order(self):
        """Display I B P B … decodes as I, P, B, … (Fig. 18)."""
        gop = GopStructure("IBPB", 7)
        order = [f.display_number for f in gop.decode_order()]
        assert order[:4] == [0, 2, 1, 4]

    def test_p_references_previous_anchor(self):
        gop = GopStructure("IBPB", 8)
        p_frame = gop.frame(2)
        assert p_frame.frame_type is FrameType.P
        assert p_frame.references == (0,)

    def test_b_references_both_anchors(self):
        gop = GopStructure("IBPB", 8)
        b_frame = gop.frame(1)
        assert b_frame.frame_type is FrameType.B
        assert b_frame.references == (0, 2)

    def test_i_frames_standalone(self):
        gop = GopStructure("IBPB", 8)
        assert gop.frame(0).references == ()
        assert gop.frame(4).references == ()

    def test_trailing_b_demoted(self):
        """A GOP ending in B has no future anchor: the tail becomes P."""
        gop = GopStructure("IB", 4)
        assert gop.frame(3).frame_type is FrameType.P

    def test_all_frames_decoded_once(self):
        gop = GopStructure("IBPB", 13)
        order = [f.display_number for f in gop.decode_order()]
        assert sorted(order) == list(range(13))

    def test_references_precede_in_decode_order(self):
        gop = GopStructure("IBBPBB", 18)
        position = {
            f.display_number: i for i, f in enumerate(gop.decode_order())
        }
        for frame in gop.frames:
            for ref in frame.references:
                assert position[ref] < position[frame.display_number]

    def test_validation(self):
        with pytest.raises(ConfigError):
            GopStructure("BIP", 4)  # must start with I
        with pytest.raises(ConfigError):
            GopStructure("IXP", 4)
        with pytest.raises(ConfigError):
            GopStructure("IBPB", 0)


class TestDecodeTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return H264Decoder(GopStructure("IBPB", 16), DecoderConfig()).decode_trace()

    def test_write_once_per_buffer_per_step(self, trace):
        assert all(v == 1 for v in trace.writes_per_buffer_step().values())

    def test_every_frame_written_exactly_once(self, trace):
        writes = [r for r in trace.records if r.kind == "write"]
        assert sorted(r.display_number for r in writes) == list(range(16))

    def test_reference_reads_use_references_vn(self, trace):
        write_vn = {
            r.display_number: r.vn for r in trace.records if r.kind == "write"
        }
        for record in trace.records:
            if record.kind == "read":
                assert record.vn == write_vn[record.display_number]

    def test_b_frames_read_two_references(self, trace):
        by_step: dict[int, list] = {}
        for r in trace.records:
            by_step.setdefault(r.step, []).append(r)
        for step, records in by_step.items():
            writes = [r for r in records if r.kind == "write"]
            reads = [r for r in records if r.kind == "read"]
            if writes and writes[0].frame_type == "B":
                assert len(reads) == 2

    def test_writes_never_hit_live_reference_buffer(self, trace):
        by_step: dict[int, list] = {}
        for r in trace.records:
            by_step.setdefault(r.step, []).append(r)
        for records in by_step.values():
            read_buffers = {r.buffer_index for r in records if r.kind == "read"}
            for w in records:
                if w.kind == "write":
                    assert w.buffer_index not in read_buffers

    def test_phases_carry_bitstream_and_frames(self, trace):
        first = trace.trace.to_phases()[0]
        classes = {a.data_class for a in first.accesses}
        assert DataClass.BITSTREAM in classes
        assert DataClass.FRAME in classes

    def test_buffer_count_respected(self, trace):
        assert max(r.buffer_index for r in trace.records) <= 2

    def test_too_few_buffers_rejected(self):
        with pytest.raises(ConfigError):
            H264Decoder(GopStructure("IBPB", 8), DecoderConfig(frame_buffers=2))


class TestFunctionalDecode:
    def _engine(self, data_bytes=64 * KIB):
        keys = SessionKeys.derive(b"video", b"session")
        return MgxFunctionalEngine(keys, BackingStore(1 << 20),
                                   data_bytes=data_bytes, mac_granularity=512)

    def test_roundtrip_ibpb(self):
        decoder = H264Decoder(GopStructure("IBPB", 12), DecoderConfig())
        assert decoder.functional_decode(self._engine())

    def test_roundtrip_deeper_gop(self):
        decoder = H264Decoder(
            GopStructure("IBBPBB", 12), DecoderConfig(frame_buffers=4)
        )
        assert decoder.functional_decode(self._engine())

    def test_roundtrip_i_only(self):
        decoder = H264Decoder(GopStructure("I", 6), DecoderConfig())
        assert decoder.functional_decode(self._engine())

    def test_new_bitstream_separates_vn_spaces(self):
        """Two decodes through one engine: CTR_IN must advance, or frame
        VNs would repeat on the reused buffers."""
        engine = self._engine()
        decoder = H264Decoder(GopStructure("IPPP", 6), DecoderConfig())
        assert decoder.functional_decode(engine)
        # Without a new bitstream counter the same VNs repeat → guard trips.
        from repro.common.errors import FreshnessError

        fresh_decoder = H264Decoder(GopStructure("IPPP", 6), DecoderConfig())
        with pytest.raises(FreshnessError):
            fresh_decoder.functional_decode(engine)
