"""Pure config → profile entry point for the H.264 functional pipeline.

Fig. 19 is assembled from three computations over one GOP: the decode
trace (the access-pattern rows of the figure), the pattern invariants
(write-once per frame, monotonic VNs) and a real AES-CTR+MAC decode
round-trip through :class:`~repro.core.functional.MgxFunctionalEngine`.
This module packages all three as a pure function of hashable
configuration returning JSON-primitive data, so the scheduler can treat
the whole per-GOP profile as a content-addressed artifact — a warm
cache restores the figure without re-running the decoder or the crypto.
"""

from __future__ import annotations

from repro.common.units import KIB
from repro.core.functional import MgxFunctionalEngine
from repro.crypto.keys import SessionKeys
from repro.mem.backing import BackingStore
from repro.video.decoder import DecoderConfig, H264Decoder
from repro.video.gop import GopStructure

#: Fixed parameters of the scaled-down functional decode (part of the
#: profile's content identity; bump the key constants together).
FUNCTIONAL_DATA_BYTES = 64 * KIB
FUNCTIONAL_MAC_GRANULARITY = 512


def decode_profile(
    pattern: str,
    n_frames: int,
    functional_frames: int,
    config: DecoderConfig | None = None,
) -> dict:
    """Decode one GOP and profile its access pattern and traffic.

    Deterministic in its arguments and JSON-primitive in its values —
    the contract that lets per-GOP profiles live in the shared artifact
    cache.  ``records`` are the Fig. 19 rows in decode order; the
    invariants and the functional round-trip verdict are what the paper
    argues in §VII-A.
    """
    config = config or DecoderConfig()
    decoder = H264Decoder(GopStructure(pattern, n_frames), config)
    trace = decoder.decode_trace()

    records = [
        {
            "step": record.step,
            "frame": record.display_number,
            "type": record.frame_type,
            "buffer": record.buffer_index,
            "kind": record.kind,
            "vn": record.vn,
        }
        for record in trace.records
    ]

    # Invariant 1: one write per (buffer, step) — non-overlapping writes.
    writes = trace.writes_per_buffer_step()
    write_once = all(count == 1 for count in writes.values())
    # Invariant 2: VNs strictly increase per buffer across writes.
    per_buffer: dict[int, list[int]] = {}
    for record in trace.records:
        if record.kind == "write":
            per_buffer.setdefault(record.buffer_index, []).append(record.vn)
    vn_monotonic = all(
        all(a < b for a, b in zip(vns, vns[1:])) for vns in per_buffer.values()
    )
    # Invariant 3: functional decode round-trips through real AES-CTR+MAC.
    keys = SessionKeys.derive(b"fig19-root", b"fig19-session")
    store = BackingStore(1 << 20)
    engine = MgxFunctionalEngine(
        keys, store, data_bytes=FUNCTIONAL_DATA_BYTES,
        mac_granularity=FUNCTIONAL_MAC_GRANULARITY,
    )
    functional_ok = H264Decoder(
        GopStructure(pattern, functional_frames), config
    ).functional_decode(engine)

    batch = trace.trace.batch
    write_bytes = int(batch.size[batch.is_write].sum())
    read_bytes = int(batch.size[~batch.is_write].sum())

    return {
        "pattern": pattern,
        "n_frames": n_frames,
        "functional_frames": functional_frames,
        "frame_bytes": config.frame_bytes,
        "records": records,
        "write_once_per_frame": bool(write_once),
        "vn_monotonic_per_buffer": bool(vn_monotonic),
        "functional_roundtrip": bool(functional_ok),
        "traffic": {
            "read_bytes": read_bytes,
            "write_bytes": write_bytes,
            "bitstream_bytes_per_frame": config.bitstream_bytes_per_frame,
        },
    }
