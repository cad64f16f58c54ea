"""Frame-level H.264 decoder model with MGX memory protection (§VII-A).

The decoder keeps a small pool of frame buffers in off-chip memory: one
receives the frame being decoded, others hold reference frames.  Each
output frame is written exactly once per buffer location (macroblock rows
stream out); reference frames are read-only.  The VN for every frame
access is ``CTR_IN ‖ display_number`` — regenerated, never stored — via
:class:`~repro.core.vngen.FrameVnState`:

* write frame F        → VN = CTR_IN ‖ F
* P frame reading its anchor  → VN = CTR_IN ‖ (F − k) for the anchor's number
* B frame reading both anchors → VNs for F−j and F+k

Produces both a *trace* (for the timing schemes, and the Fig. 19
access-pattern record) and, optionally, *functional* decode over the MGX
engine — real bytes, real encryption — used by the tests to prove the VN
scheme decrypts correctly under out-of-order decode and buffer reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigError
from repro.common.units import GIB, MHZ
from repro.core.access import AccessKind, DataClass, Trace, TraceBuilder
from repro.core.functional import MgxFunctionalEngine
from repro.core.vngen import FrameVnState
from repro.mem.layout import AddressSpace
from repro.video.gop import GopStructure


@dataclass(frozen=True)
class DecoderConfig:
    """Frame geometry and machine parameters of the decoder model."""

    width: int = 1920
    height: int = 1080
    bytes_per_pixel: int = 1  # luma-equivalent payload per pixel (NV12 ~1.5)
    frame_buffers: int = 3
    freq_hz: float = 450 * MHZ
    #: Average compressed bits per pixel of the input stream.
    bitstream_bits_per_pixel: float = 0.8
    protected_bytes: int = 1 * GIB

    def cache_key(self) -> tuple:
        """Stable primitive tuple for content-addressed artifact keys.

        Fields are spelled out (never ``astuple``, so field order cannot
        silently change the key) and floats are encoded with
        :meth:`float.hex` (so the key never depends on float ``repr``).
        """
        return (
            "h264", self.width, self.height, self.bytes_per_pixel,
            self.frame_buffers, self.freq_hz.hex(),
            self.bitstream_bits_per_pixel.hex(), self.protected_bytes,
        )

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * self.bytes_per_pixel

    @property
    def bitstream_bytes_per_frame(self) -> int:
        return int(self.width * self.height * self.bitstream_bits_per_pixel / 8)


@dataclass(frozen=True)
class AccessRecord:
    """One point of the Fig. 19 scatter: who touched which buffer when."""

    step: int
    display_number: int
    frame_type: str
    buffer_index: int
    kind: str  # "write" or "read"
    vn: int


@dataclass
class DecodeTrace:
    """The trace + the Fig. 19 access pattern + buffer bookkeeping."""

    trace: Trace
    records: list[AccessRecord]
    vn_state: FrameVnState
    address_space: AddressSpace
    buffer_of_frame: dict[int, int] = field(default_factory=dict)

    def writes_per_buffer_step(self) -> dict[tuple[int, int], int]:
        """(buffer, step) → write count; the write-once invariant says
        every value is exactly 1 (verified in tests)."""
        counts: dict[tuple[int, int], int] = {}
        for r in self.records:
            if r.kind == "write":
                key = (r.buffer_index, r.step)
                counts[key] = counts.get(key, 0) + 1
        return counts


class H264Decoder:
    """Generates decode traces (and optional functional decode) for a GOP."""

    def __init__(self, gop: GopStructure, config: DecoderConfig | None = None) -> None:
        self.gop = gop
        self.config = config or DecoderConfig()
        if self.config.frame_buffers < 3:
            raise ConfigError("need at least 3 frame buffers (decode + 2 refs)")
        self._space = AddressSpace(size=self.config.protected_bytes)
        self._buffers = [
            self._space.alloc(f"framebuf{i}", self.config.frame_bytes, kind="frame")
            for i in range(self.config.frame_buffers)
        ]
        self._bitstream = self._space.alloc(
            "bitstream",
            max(64, self.config.bitstream_bytes_per_frame * gop.n_frames),
            kind="bitstream",
        )

    # ------------------------------------------------------------------
    def decode_trace(self) -> DecodeTrace:
        """Trace one pass over the GOP in decode order."""
        config = self.config
        vn_state = FrameVnState()
        records: list[AccessRecord] = []
        builder = TraceBuilder()
        buffer_of: dict[int, int] = {}
        #: display numbers currently resident, in allocation order
        resident: list[int] = []

        decode_list = self.gop.decode_order()
        for step, frame in enumerate(decode_list):
            # Protect both future references and the frame's own inputs —
            # the output streams out while prediction still reads them.
            still_needed = {
                ref for later in decode_list[step + 1 :] for ref in later.references
            } | set(frame.references)
            # 1. Bitstream chunk for this frame (already CTR-encrypted by
            #    the sender; VN here is the stream offset counter).
            builder.access(
                self._bitstream.base
                + frame.display_number * config.bitstream_bytes_per_frame,
                max(64, config.bitstream_bytes_per_frame),
                AccessKind.READ,
                DataClass.BITSTREAM,
                vn=vn_state.frame_vn(frame.display_number),
            )
            # 2. Reference frame reads, VN regenerated from the reference's
            #    display number (CTR_IN ‖ F±k).
            for ref in frame.references:
                if ref not in buffer_of:
                    raise ConfigError(
                        f"frame {frame.display_number} needs reference {ref} "
                        "which is no longer resident"
                    )
                region = self._buffers[buffer_of[ref]]
                vn = vn_state.frame_vn(ref)
                builder.access(region.base, config.frame_bytes, AccessKind.READ,
                               DataClass.FRAME, vn=vn)
                records.append(
                    AccessRecord(step, ref, self.gop.frame(ref).frame_type.value,
                                 buffer_of[ref], "read", vn)
                )
            # 3. Output frame written once into a free buffer.
            buffer_index = self._allocate_buffer(frame.display_number, still_needed,
                                                 buffer_of, resident)
            region = self._buffers[buffer_index]
            vn = vn_state.frame_vn(frame.display_number)
            builder.access(region.base, config.frame_bytes, AccessKind.WRITE,
                           DataClass.FRAME, vn=vn)
            records.append(
                AccessRecord(step, frame.display_number, frame.frame_type.value,
                             buffer_index, "write", vn)
            )
            # Decode compute: ~2 cycles/pixel for a hardware decoder.
            compute = 2.0 * config.width * config.height
            builder.end_phase(
                f"decode:{frame.frame_type.value}{frame.display_number}", compute)
        return DecodeTrace(trace=builder.build(), records=records, vn_state=vn_state,
                           address_space=self._space, buffer_of_frame=buffer_of)

    def _allocate_buffer(self, display_number: int, still_needed: set[int],
                         buffer_of: dict[int, int], resident: list[int]) -> int:
        """Pick a buffer for the new frame, evicting the oldest non-reference.

        ``still_needed`` holds display numbers referenced by frames not
        yet decoded; those buffers are protected from eviction.  A GOP
        one B-frame deep is always feasible with 3 buffers.
        """
        in_use = {buffer_of[f] for f in resident if f in buffer_of}
        free = [i for i in range(len(self._buffers)) if i not in in_use]
        if free:
            index = free[0]
        else:
            for old in list(resident):
                if old not in still_needed:
                    index = buffer_of[old]
                    resident.remove(old)
                    break
            else:
                raise ConfigError("no evictable frame buffer; GOP needs more buffers")
        buffer_of[display_number] = index
        resident.append(display_number)
        return index

    # ------------------------------------------------------------------
    def functional_decode(self, engine: MgxFunctionalEngine, seed: int = 0,
                          frame_bytes: int = 4096) -> bool:
        """Really encrypt/decrypt a scaled-down decode through ``engine``.

        Frames are ``frame_bytes`` of deterministic pseudo-random payload;
        each decode step writes its frame once with VN = CTR_IN ‖ F and
        re-reads its references with their regenerated VNs, asserting the
        decrypted bytes match what was written.  Returns True when every
        reference read round-trips exactly.
        """
        rng = np.random.default_rng(seed)
        vn_state = FrameVnState()
        payload: dict[int, bytes] = {}
        buffer_of: dict[int, int] = {}
        resident: list[int] = []
        decode_list = self.gop.decode_order()
        for step, frame in enumerate(decode_list):
            # Protect both future references and the frame's own inputs —
            # the output streams out while prediction still reads them.
            still_needed = {
                ref for later in decode_list[step + 1 :] for ref in later.references
            } | set(frame.references)
            for ref in frame.references:
                got = engine.read(buffer_of[ref] * frame_bytes, frame_bytes,
                                  vn_state.frame_vn(ref))
                if got != payload[ref]:
                    return False
            index = self._allocate_buffer(frame.display_number, still_needed,
                                          buffer_of, resident)
            data = rng.integers(0, 256, size=frame_bytes, dtype=np.uint8).tobytes()
            engine.write(index * frame_bytes, data, vn_state.frame_vn(frame.display_number))
            payload[frame.display_number] = data
            buffer_of[frame.display_number] = index
        return True
