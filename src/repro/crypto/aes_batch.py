"""Byte-sliced AES for multi-block keystreams.

MGX's engines are pipelined AES counter-mode cores: each 16-byte lane's
keystream depends only on its counter block, so a whole transfer's
keystream is one batch.  :class:`AesBatch` encrypts ``n`` blocks at once
by holding their state as 16 *segments* of ``n`` bytes: segment
``4r + c`` holds state byte ``(r, c)`` of every block, and all ``16n``
bytes live in one Python integer.  A round is then a few whole-batch
operations, with no per-block loop:

* **SubBytes** is one ``bytes.translate`` through the S-box; a second
  table holds ``2·S(x)`` (``xtime`` of each S-box entry) for MixColumns;
* **ShiftRows** rotates row ``r`` left by ``r`` segments, one
  ``b"".join`` of seven slices;
* **MixColumns** uses ``rot(x)``, which moves every row up by one
  (``x << 32n`` masked, or'd with ``x >> 96n``):
  ``out = 2S ^ rot(2S ^ S ^ rot(S ^ rot(S)))``, i.e. row ``r`` gets
  ``2·S_r ^ 3·S_{r+1} ^ S_{r+2} ^ S_{r+3}``;
* **AddRoundKey** XORs the round key spread over the segments.

The first and last round keys are XORed in block order, around the
slicing.  One call costs ~25 µs for one block and ~1.4 µs per further
block (CPython 3.11, one core of a 2-core VM), so a single block stays
on the scalar T-table cipher of :mod:`repro.crypto.aes`, which is the
FIPS-197-pinned reference this module is property-tested against.

Only encryption is provided — counter mode never runs the inverse cipher.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.crypto.aes import SBOX, _ROUNDS, _expand_key, _xtime

#: ``2·S(x)``: each S-box entry multiplied by x in GF(2^8).
_SBOX2 = bytes(_xtime(s) for s in SBOX)

#: The block byte segment ``4r + c`` holds: FIPS-197's state is
#: column-major, so state byte (r, c) is block byte ``r + 4c``.
_SEGMENT_BYTE = tuple(r + 4 * c for r in range(4) for c in range(4))

#: One byte per segment index, repeated ``n`` times to spread round keys.
_SEGMENT_IDS = tuple(bytes([s]) for s in range(16))

_LOW32 = 0xFFFFFFFF


class AesBatch:
    """AES encryption of many 16-byte blocks per call."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in _ROUNDS:
            raise ConfigError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.rounds = _ROUNDS[len(key)]
        round_keys = _expand_key(bytes(key))
        self._first_key = bytes(round_keys[0])
        self._last_key = bytes(round_keys[-1])
        # The middle round keys as translate tables from segment index to
        # key byte, so one translate spreads a key over any batch size.
        self._middle_keys = [
            bytes(rk[j] for j in _SEGMENT_BYTE) + bytes(240) for rk in round_keys[1:-1]
        ]

    def encrypt(self, blocks: bytes) -> bytes:
        """Encrypt the concatenated 16-byte ``blocks``, in block order."""
        if len(blocks) % 16:
            raise ConfigError(f"blocks must be a multiple of 16 bytes, got {len(blocks)}")
        n = len(blocks) // 16
        size = 16 * n
        row, rows3 = 32 * n, 96 * n  # bits in one row, and in three
        mask = (1 << 128 * n) - 1
        q4, q5, q8, q10, q12, q15 = (k * n for k in (4, 5, 8, 10, 12, 15))
        ids = b"".join([s * n for s in _SEGMENT_IDS])
        data = int.from_bytes(blocks, "big") ^ int.from_bytes(self._first_key * n, "big")
        data = data.to_bytes(size, "big")
        b = b"".join([data[j::16] for j in _SEGMENT_BYTE])
        for key in self._middle_keys:
            # ShiftRows: row r (segments 4r..4r+3) rotates left by r segments.
            b = b"".join((b[:q4], b[q5:q8], b[q4:q5], b[q10:q12], b[q8:q10],
                          b[q15:], b[q12:q15]))
            # SubBytes as S and as 2·S, then MixColumns: rot moves every row
            # up by one, and row r becomes 2S_r ^ 3S_{r+1} ^ S_{r+2} ^ S_{r+3}.
            s = int.from_bytes(b.translate(SBOX), "big")
            s2 = int.from_bytes(b.translate(_SBOX2), "big")
            t = s ^ (s << row & mask | s >> rows3)
            t = s2 ^ s ^ (t << row & mask | t >> rows3)
            t = s2 ^ (t << row & mask | t >> rows3)
            b = (t ^ int.from_bytes(ids.translate(key), "big")).to_bytes(size, "big")
        # The last round: ShiftRows and SubBytes, no MixColumns; then the
        # segments go back to block order for the last AddRoundKey.
        b = b"".join((b[:q4], b[q5:q8], b[q4:q5], b[q10:q12], b[q8:q10],
                      b[q15:], b[q12:q15])).translate(SBOX)
        stream = bytearray(size)
        for s, j in enumerate(_SEGMENT_BYTE):
            stream[j::16] = b[s * n : s * n + n]
        stream = int.from_bytes(stream, "big") ^ int.from_bytes(self._last_key * n, "big")
        return stream.to_bytes(size, "big")

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an ``(N, 16)`` uint8 array of blocks."""
        if blocks.ndim != 2 or blocks.shape[1] != 16 or blocks.dtype != np.uint8:
            raise ConfigError("blocks must be an (N, 16) uint8 array")
        out = self.encrypt(blocks.tobytes())
        return np.frombuffer(out, dtype=np.uint8).reshape(-1, 16).copy()

    def encrypt_counters(self, iv: bytes, first: int, count: int) -> bytes:
        """``E(iv ‖ be32((first + i) mod 2³²))`` for ``i < count``, in order.

        The 32-bit counter of GCM's ``inc32`` wraps without carrying into
        the 12-byte ``iv``.
        """
        if len(iv) != 12:
            raise ConfigError(f"IV must be 12 bytes, got {len(iv)}")
        blocks = b"".join([iv + ((first + i) & _LOW32).to_bytes(4, "big")
                           for i in range(count)])
        return self.encrypt(blocks)


def ctr_keystream(key: bytes, counter_blocks: np.ndarray) -> np.ndarray:
    """Keystream bytes for an ``(N, 16)`` array of counter blocks."""
    return AesBatch(key).encrypt_blocks(counter_blocks)
