"""AES-GCM authenticated encryption (NIST SP 800-38D).

The paper's CHaiDNN retrofit adds AES-GCM cores for memory protection
(§VI-C), and the host↔accelerator channel (§II) needs an AEAD for user
data and kernels in flight.  This composes the in-repo AES, CTR and
GHASH primitives into the standard GCM construction with a 96-bit IV.
The hash subkey ``H`` and its GHASH tables are derived once per key, so
sealing ``n`` bytes costs ⌈n/16⌉ + 1 block encryptions.  Verified
against the classic NIST/McGrew-Viega test vectors in
``tests/test_crypto_gcm.py``.
"""

from __future__ import annotations

from repro.common.errors import ConfigError, IntegrityError
from repro.crypto.aes import AES
from repro.crypto.ctr import _keystream, xor_bytes
from repro.crypto.ghash import Ghash
from repro.crypto.mac import constant_time_equal

_LOW32 = 0xFFFFFFFF


class AesGcm:
    """AES-GCM with 96-bit IVs and full 128-bit tags."""

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        self._ghash = Ghash(self._aes.encrypt_block(bytes(16)))

    @staticmethod
    def _check_iv(iv: bytes) -> None:
        if len(iv) != 12:
            raise ConfigError(f"GCM IV must be 12 bytes, got {len(iv)}")

    def _j0(self, iv: bytes) -> int:
        return (int.from_bytes(iv, "big") << 32) | 1

    def _ctr(self, j0: int, data: bytes) -> bytes:
        """XOR ``data`` with the keystream of counters inc32(J0), inc32²(J0), …"""
        prefix = j0 & ~_LOW32
        counters = (prefix | (j0 + i) & _LOW32 for i in range(1, -(-len(data) // 16) + 1))
        return xor_bytes(data, _keystream(self._aes, counters, len(data)))

    def _tag(self, j0: int, aad: bytes, ciphertext: bytes) -> bytes:
        digest = self._ghash.digest(ciphertext, aad)
        return xor_bytes(self._aes.encrypt_block(j0.to_bytes(16, "big")), digest)

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
        """Returns (ciphertext, 16-byte tag)."""
        self._check_iv(iv)
        j0 = self._j0(iv)
        ciphertext = self._ctr(j0, plaintext)
        return ciphertext, self._tag(j0, aad, ciphertext)

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify then decrypt; raises :class:`IntegrityError` on mismatch."""
        self._check_iv(iv)
        j0 = self._j0(iv)
        if not constant_time_equal(self._tag(j0, aad, ciphertext), tag):
            raise IntegrityError("GCM tag mismatch: message was tampered with")
        return self._ctr(j0, ciphertext)
