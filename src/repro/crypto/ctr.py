"""AES counter-mode (CTR) keystream generation.

Counter-mode encryption hides AES latency by encrypting a *counter block*
instead of the data: ``ciphertext = plaintext XOR AES_K(counter)``.  The
counter block in secure-memory designs is the concatenation of the
physical address and a version number (VN); see
:mod:`repro.core.counters` for how MGX lays those bits out.

This module only deals with the keystream mechanics: given a 16-byte
counter block for the *first* AES block of a region, produce the keystream
for an arbitrary number of bytes, incrementing the per-16-byte lane index
in the low bits.  The same function both encrypts and decrypts.  A
region's lanes are independent, so all of them go through one
:class:`~repro.crypto.aes_batch.AesBatch` call, as a hardware engine
streams a burst's lanes through its pipeline.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.crypto.aes_batch import AesBatch

_BLOCK_MASK = (1 << 128) - 1


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (as two big integers, one XOR)."""
    if len(a) != len(b):
        raise ConfigError(f"xor_bytes length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


class CtrMode:
    """Counter-mode keystream generator bound to one AES key.

    The 16-byte counter block supplied by the caller encodes everything
    that must be unique per encryption (address, version number, block
    type).  Within a multi-block region the final byte-lane counter is
    advanced by the AES-block index so that every 16-byte lane of the
    region sees a distinct counter, exactly as a hardware engine enumerates
    lanes of a burst.
    """

    def __init__(self, key: bytes) -> None:
        self._cipher = AesBatch(key)

    def keystream(self, counter_block: bytes, nbytes: int) -> bytes:
        """Generate ``nbytes`` of keystream starting at ``counter_block``."""
        if len(counter_block) != 16:
            raise ConfigError(f"counter block must be 16 bytes, got {len(counter_block)}")
        if nbytes < 0:
            raise ConfigError(f"nbytes must be non-negative, got {nbytes}")
        base = int.from_bytes(counter_block, "big")
        counters = b"".join([((base + lane) & _BLOCK_MASK).to_bytes(16, "big")
                             for lane in range(-(-nbytes // 16))])
        return self._cipher.encrypt(counters)[:nbytes]

    def transform(self, counter_block: bytes, data: bytes) -> bytes:
        """Encrypt or decrypt ``data`` (XOR with the keystream)."""
        return xor_bytes(data, self.keystream(counter_block, len(data)))
