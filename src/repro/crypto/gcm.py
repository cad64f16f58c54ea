"""AES-GCM authenticated encryption (NIST SP 800-38D).

The paper's CHaiDNN retrofit adds AES-GCM cores for memory protection
(§VI-C), and the host↔accelerator channel (§II) needs an AEAD for user
data and kernels in flight.  This composes the in-repo byte-sliced AES
and GHASH into the standard GCM construction with a 96-bit IV.  The
hash subkey ``H`` and its GHASH tables are derived once per key.  Sealing
or opening ``n`` bytes is one :meth:`AesBatch.encrypt_counters` call over
⌈n/16⌉ + 1 counter blocks, J0 (which masks the tag) first, as a hardware
engine streams a record's lanes through one pipeline; plus GHASH at ~1 µs
a block.  Verified against the classic NIST/McGrew-Viega test vectors in
``tests/test_crypto_gcm.py``.
"""

from __future__ import annotations

from repro.common.errors import IntegrityError
from repro.crypto.aes_batch import AesBatch
from repro.crypto.ctr import xor_bytes
from repro.crypto.ghash import Ghash
from repro.crypto.mac import constant_time_equal


class AesGcm:
    """AES-GCM with 96-bit IVs and full 128-bit tags."""

    def __init__(self, key: bytes) -> None:
        self._cipher = AesBatch(key)
        self._ghash = Ghash(self._cipher.encrypt(bytes(16)))

    def _keystream(self, iv: bytes, nbytes: int) -> tuple[bytes, bytes]:
        """(tag mask, keystream): ``E(J0)`` and the first ``nbytes`` of
        ``E(inc32(J0))``, ``E(inc32²(J0))``, …, from one cipher call
        (which rejects an IV that is not 12 bytes)."""
        stream = self._cipher.encrypt_counters(iv, 1, -(-nbytes // 16) + 1)
        return stream[:16], stream[16 : 16 + nbytes]

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
        """Returns (ciphertext, 16-byte tag)."""
        mask, stream = self._keystream(iv, len(plaintext))
        ciphertext = xor_bytes(plaintext, stream)
        return ciphertext, xor_bytes(mask, self._ghash.digest(ciphertext, aad))

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify then decrypt; raises :class:`IntegrityError` on mismatch."""
        mask, stream = self._keystream(iv, len(ciphertext))
        if not constant_time_equal(xor_bytes(mask, self._ghash.digest(ciphertext, aad)), tag):
            raise IntegrityError("GCM tag mismatch: message was tampered with")
        return xor_bytes(ciphertext, stream)
