"""End-to-end integration: accelerator traces drive the functional engine.

The trace generators attach VNs exactly as the control-processor kernel
would; here those same VNs drive *real* encryption of scaled tensors
through the MGX functional engine, proving the timing-side VN discipline
is also cryptographically sound (writes never reuse counters, reads
always decrypt).
"""

import numpy as np
import pytest

from repro.common.errors import FreshnessError, IntegrityError
from repro.core.access import DataClass
from repro.core.functional import MgxFunctionalEngine
from repro.core.vngen import IterationVnState
from repro.crypto.keys import SessionKeys
from repro.dnn.accelerator import CLOUD
from repro.dnn.models import alexnet
from repro.dnn.tracegen import DnnTraceGenerator
from repro.mem.attacker import Attacker
from repro.mem.backing import BackingStore

_GRAN = 512


def _engine(data_bytes=2 << 20):
    keys = SessionKeys.derive(b"integration", b"nonce")
    store = BackingStore(4 << 20)
    return MgxFunctionalEngine(keys, store, data_bytes=data_bytes,
                               mac_granularity=_GRAN), store


def _scaled(address: int, size: int, budget: int) -> tuple[int, int]:
    """Map a full-size trace access into the small functional arena."""
    scaled_addr = (address // _GRAN) % (budget // _GRAN // 2) * _GRAN
    scaled_size = min(max(_GRAN, (size // _GRAN) * _GRAN), 4 * _GRAN)
    return scaled_addr, scaled_size


class TestDnnTraceDrivesFunctionalEngine:
    def test_inference_trace_vns_are_cryptographically_sound(self):
        """Replay AlexNet's feature accesses through real crypto.

        Every write must be accepted by the freshness guard; every read
        must verify and decrypt to exactly what the matching write stored.
        """
        engine, _ = _engine()
        trace = DnnTraceGenerator(alexnet(), CLOUD).inference()
        rng = np.random.default_rng(0)
        contents: dict[tuple[int, int], bytes] = {}
        for phase in trace.trace.to_phases():
            for access in phase.accesses:
                if access.data_class is not DataClass.FEATURE:
                    continue
                addr, size = _scaled(access.address, access.size, engine.data_bytes)
                if access.is_write:
                    payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
                    engine.write(addr, payload, access.vn)
                    contents[(addr, access.vn)] = payload
                elif (addr, access.vn) in contents:
                    got = engine.read(addr, size, access.vn)
                    assert got == contents[(addr, access.vn)]

    def test_replaying_the_same_trace_twice_is_rejected(self):
        """A second identical run must not reuse VNs on the same arena —
        the kernel state (and its VNs) must move forward instead."""
        engine, _ = _engine()
        trace = DnnTraceGenerator(alexnet(), CLOUD).inference()
        first_write = next(
            a for p in trace.trace.to_phases() for a in p.accesses
            if a.is_write and a.data_class is DataClass.FEATURE
        )
        addr, size = _scaled(first_write.address, first_write.size, engine.data_bytes)
        engine.write(addr, bytes(size), first_write.vn)
        with pytest.raises(FreshnessError):
            engine.write(addr, bytes(size), first_write.vn)


class TestGraphIterationsDriveFunctionalEngine:
    def test_rank_vector_swaps_with_iteration_vns(self):
        """Two vector buffers alternate across PageRank iterations using
        only the Iter counter for VNs — decryptable every round."""
        engine, _ = _engine()
        vn_state = IterationVnState()
        vector_bytes = 4 * _GRAN
        buffers = [0, vector_bytes]  # two regions
        rng = np.random.default_rng(1)

        current = rng.integers(0, 256, size=vector_bytes, dtype=np.uint8).tobytes()
        # Iteration i writes buffer i % 2; the initial vector is written
        # by iteration 1 into buffer 1.
        engine.write(buffers[vn_state.iteration % 2], current,
                     vn_state.write_vector_vn())
        for _ in range(5):
            vn_state.advance_iteration()
            read_buf = buffers[(vn_state.iteration - 1) % 2]
            write_buf = buffers[vn_state.iteration % 2]
            got = engine.read(read_buf, vector_bytes, vn_state.read_vector_vn())
            assert got == current
            current = bytes(reversed(got))
            engine.write(write_buf, current, vn_state.write_vector_vn())

    def test_tampered_rank_vector_detected_mid_run(self):
        engine, store = _engine()
        vn_state = IterationVnState()
        payload = b"\x42" * _GRAN
        engine.write(0, payload, vn_state.write_vector_vn())
        vn_state.advance_iteration()
        Attacker(store).flip_bit(100, 1)
        with pytest.raises(IntegrityError):
            engine.read(0, _GRAN, vn_state.read_vector_vn())


class TestSessionLifecycle:
    def test_key_rotation_after_overflow_recovers(self):
        """§IV-C: on VN overflow the region is re-encrypted under fresh
        keys; after rotation the same VNs are safe again."""
        keys = SessionKeys.derive(b"life", b"cycle")
        store = BackingStore(4 << 20)
        engine = MgxFunctionalEngine(keys, store, data_bytes=1 << 20)
        engine.write(0, b"\x01" * 512, vn=7)
        # New session: fresh keys, fresh engine state, same store is fine
        # because everything is re-encrypted.
        rotated = keys.rotate()
        engine2 = MgxFunctionalEngine(rotated, store, data_bytes=1 << 20)
        engine2.write(0, b"\x02" * 512, vn=7)  # same VN, new key: allowed
        assert engine2.read(0, 512, vn=7) == b"\x02" * 512

    def test_old_key_cannot_read_new_session(self):
        keys = SessionKeys.derive(b"life", b"cycle2")
        store = BackingStore(4 << 20)
        engine2 = MgxFunctionalEngine(keys.rotate(), store, data_bytes=1 << 20)
        engine2.write(0, b"\x03" * 512, vn=1)
        engine1 = MgxFunctionalEngine(keys, store, data_bytes=1 << 20)
        with pytest.raises(IntegrityError):
            engine1.read(0, 512, vn=1)
