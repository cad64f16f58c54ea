"""GHASH: the universal hash over GF(2^128) used by AES-GCM.

The paper's case study (§VI-C) adds AES-GCM cores for both memory
encryption and integrity verification.  GHASH is the authentication half
of GCM: a polynomial evaluation over GF(2^128) keyed by ``H = AES_K(0)``.

The field is GF(2^128) with the GCM reduction polynomial
``x^128 + x^7 + x^2 + x + 1`` and GCM's reflected bit order: bit 0 of byte
0 is the coefficient of x^0.  :func:`gf128_mul` is the bit-serial
right-shift multiplication algorithm from NIST SP 800-38D, kept as the
reference; :class:`Ghash` multiplies by its fixed ``H`` with Shoup-style
8-bit tables built once per key.
"""

from __future__ import annotations

from repro.common.errors import ConfigError

# GCM's "R" constant: the reduction polynomial's low terms, reflected.
_R = 0xE1000000000000000000000000000000


def gf128_mul(x: int, y: int) -> int:
    """Multiply two field elements in GCM bit order (MSB-first integers)."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _mul_tables(h: int) -> list[list[int]]:
    """``tables[i][b] == gf128_mul(b << 8 * (15 - i), h)``.

    Multiplication by ``h`` is linear over GF(2), so ``x·h`` is the XOR
    of one entry per byte of ``x``.  Each byte's table is spanned by the
    products of its eight bits, which are successive ``·x`` steps of
    ``h`` (bit 127, the field's 1, maps to ``h`` itself).
    """
    bit_products = [0] * 128
    v = h
    for bit in range(127, -1, -1):
        bit_products[bit] = v
        v = (v >> 1) ^ _R if v & 1 else v >> 1
    tables = []
    for i in range(16):
        table = [0]
        for j in range(8):
            product = bit_products[8 * (15 - i) + j]
            table += [entry ^ product for entry in table]
        tables.append(table)
    return tables


class Ghash:
    """GHASH keyed by subkey ``H``.

    ``digest(data, aad)`` processes the AAD and then the data, each in
    zero-padded 16-byte blocks, followed by GCM's length block.
    """

    def __init__(self, h_subkey: bytes) -> None:
        if len(h_subkey) != 16:
            raise ConfigError(f"GHASH subkey must be 16 bytes, got {len(h_subkey)}")
        self._tables = _mul_tables(int.from_bytes(h_subkey, "big"))

    def _absorb(self, y: int, data: bytes) -> int:
        """Fold ``data``'s zero-padded blocks into the running hash ``y``."""
        if len(data) % 16:
            data = data + bytes(16 - len(data) % 16)
        m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15 = self._tables
        for offset in range(0, len(data), 16):
            b = (y ^ int.from_bytes(data[offset : offset + 16], "big")).to_bytes(16, "big")
            y = (m0[b[0]] ^ m1[b[1]] ^ m2[b[2]] ^ m3[b[3]]
                 ^ m4[b[4]] ^ m5[b[5]] ^ m6[b[6]] ^ m7[b[7]]
                 ^ m8[b[8]] ^ m9[b[9]] ^ m10[b[10]] ^ m11[b[11]]
                 ^ m12[b[12]] ^ m13[b[13]] ^ m14[b[14]] ^ m15[b[15]])
        return y

    def mul(self, x: int) -> int:
        """``x·H`` by table lookup (equals ``gf128_mul(x, H)``)."""
        return self._absorb(0, x.to_bytes(16, "big"))

    def digest(self, data: bytes, aad: bytes = b"") -> bytes:
        """GHASH of ``aad`` and ``data`` (the ciphertext) with lengths."""
        y = self._absorb(self._absorb(0, aad), data)
        lengths = (len(aad) * 8) << 64 | len(data) * 8
        return self._absorb(y, lengths.to_bytes(16, "big")).to_bytes(16, "big")
