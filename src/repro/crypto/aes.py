"""AES block cipher (FIPS-197) implemented from scratch.

The MGX hardware uses pipelined AES cores for counter-mode encryption and
GCM-style authentication.  This module provides the functional equivalent
for AES-128/192/256 on 16-byte blocks.  Encryption runs on 32-bit
T-tables (SubBytes, ShiftRows and MixColumns of one byte folded into one
word lookup, built once at import); only block encryption is required by
counter mode (decryption XORs the same keystream), but the byte-wise
inverse cipher is included for completeness and is exercised by the
round-trip tests against the FIPS-197 known-answer vectors.

Performance note: the T-table rounds take ~10 µs per AES-128 block
(CPython 3.11, one core of a 2-core VM), where a per-byte MixColumns
took ~180 µs.  This is the single-block cipher: :class:`GcmMac` tags
one block at a time with it, and it is the FIPS-197-pinned oracle the
byte-sliced :class:`repro.crypto.AesBatch` is property-tested against.
Every multi-block keystream (GCM records of the host↔accelerator
channel, CTR regions, the functional engines) goes through
:class:`~repro.crypto.AesBatch` in one call instead, which costs ~3×
this cipher for one block but ~1.4 µs for each further block.  The
timing simulators never call either: they model the AES pipeline
analytically.

Side channels: T-table lookups index memory with secret-dependent bytes,
exactly as the plain ``SBOX[...]`` lookups of a byte-wise AES do, and
:func:`repro.crypto.ghash.gf128_mul` branches on secret bits.  Cache and
timing side channels of this software model are outside the threat
model; it models the hardware engines' function, not their constant-time
circuits.
"""

from __future__ import annotations

import operator
import struct

from repro.common.errors import ConfigError

# ---------------------------------------------------------------------------
# S-box generation.  Rather than embedding the 256-entry table we derive it
# from the multiplicative inverse in GF(2^8) followed by the affine map, and
# pin its digest in the unit tests.
# ---------------------------------------------------------------------------


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) modulo the AES polynomial 0x11B."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Full GF(2^8) multiplication (inverse MixColumns and references)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Inverses from log/antilog tables over the generator 3 (= x + 1):
    # a^-1 = 3^(255 - log3(a)).
    exp = [0] * 255
    log = [0] * 256
    power = 1
    for i in range(255):
        exp[i] = power
        log[power] = i
        power ^= _xtime(power)
    sbox = bytearray(256)
    for value in range(256):
        x = exp[-log[value] % 255] if value else 0
        # Affine transform: y = x ^ rotl(x,1) ^ rotl(x,2) ^ rotl(x,3) ^ rotl(x,4) ^ 0x63
        y = x
        for shift in (1, 2, 3, 4):
            y ^= ((x << shift) | (x >> (8 - shift))) & 0xFF
        sbox[value] = y ^ 0x63
    inv_sbox = bytearray(256)
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()


def _build_t_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    """``T_r[x]``: the MixColumns column ``S[x]`` contributes from row ``r``.

    Row 0 of a column feeds ``(2s, s, s, 3s)`` into rows 0..3 (the first
    column of the MixColumns matrix); each later row is the same word
    rotated right by one byte.
    """
    t0 = []
    for s in SBOX:
        s2 = _xtime(s)
        t0.append(s2 << 24 | s << 16 | s << 8 | s2 ^ s)
    t1 = [w >> 8 | (w & 0xFF) << 24 for w in t0]
    t2 = [w >> 8 | (w & 0xFF) << 24 for w in t1]
    t3 = [w >> 8 | (w & 0xFF) << 24 for w in t2]
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_t_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]

#: Rounds per key size in bytes.
_ROUNDS = {16: 10, 24: 12, 32: 14}


def _expand_key(key: bytes) -> list[list[int]]:
    """Key schedule returning one 16-byte round key per round (as lists)."""
    nk = len(key) // 4
    rounds = _ROUNDS[len(key)]
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        word = list(words[i - 1])
        if i % nk == 0:
            word = word[1:] + word[:1]
            word = [SBOX[b] for b in word]
            word[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            word = [SBOX[b] for b in word]
        words.append([words[i - nk][j] ^ word[j] for j in range(4)])
    round_keys = []
    for r in range(rounds + 1):
        rk: list[int] = []
        for w in words[4 * r : 4 * r + 4]:
            rk.extend(w)
        round_keys.append(rk)
    return round_keys


def _inv_sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = INV_SBOX[state[i]]


# State layout: column-major as in FIPS-197; state[4*c + r] is row r, col c.

_SHIFT_MAP = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
_INV_SHIFT_MAP = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3]

_gather_shifted = operator.itemgetter(*_SHIFT_MAP)
_COLUMN_WORDS = struct.Struct(">4I")


def _inv_shift_rows(state: list[int]) -> list[int]:
    return [state[_INV_SHIFT_MAP[i]] for i in range(16)]


def _inv_mix_columns(state: list[int]) -> None:
    for c in range(4):
        a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
        state[4 * c + 0] = _gf_mul(a0, 14) ^ _gf_mul(a1, 11) ^ _gf_mul(a2, 13) ^ _gf_mul(a3, 9)
        state[4 * c + 1] = _gf_mul(a0, 9) ^ _gf_mul(a1, 14) ^ _gf_mul(a2, 11) ^ _gf_mul(a3, 13)
        state[4 * c + 2] = _gf_mul(a0, 13) ^ _gf_mul(a1, 9) ^ _gf_mul(a2, 14) ^ _gf_mul(a3, 11)
        state[4 * c + 3] = _gf_mul(a0, 11) ^ _gf_mul(a1, 13) ^ _gf_mul(a2, 9) ^ _gf_mul(a3, 14)


def _add_round_key(state: list[int], rk: list[int]) -> None:
    for i in range(16):
        state[i] ^= rk[i]


class AES:
    """AES block cipher with a fixed key.

    >>> AES(bytes(16)).encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in _ROUNDS:
            raise ConfigError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = _ROUNDS[len(key)]
        self._round_keys = _expand_key(self.key)
        # Encryption keys: whole-block ints for the first and last
        # AddRoundKey, column words for the T-table rounds between.
        self._first_key = int.from_bytes(bytes(self._round_keys[0]), "big")
        self._last_key = int.from_bytes(bytes(self._round_keys[-1]), "big")
        self._middle_keys = [_COLUMN_WORDS.unpack(bytes(rk)) for rk in self._round_keys[1:-1]]

    def encrypt_int(self, block: int) -> int:
        """Encrypt one block held as a 128-bit big-endian integer.

        Each middle round XORs, per output column, the T-table words of
        the four state bytes ShiftRows moves into it.  The last round has
        no MixColumns, so it is an S-box pass and a ShiftRows gather.
        """
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        b = (block ^ self._first_key).to_bytes(16, "big")
        for k0, k1, k2, k3 in self._middle_keys:
            b = _COLUMN_WORDS.pack(
                t0[b[0]] ^ t1[b[5]] ^ t2[b[10]] ^ t3[b[15]] ^ k0,
                t0[b[4]] ^ t1[b[9]] ^ t2[b[14]] ^ t3[b[3]] ^ k1,
                t0[b[8]] ^ t1[b[13]] ^ t2[b[2]] ^ t3[b[7]] ^ k2,
                t0[b[12]] ^ t1[b[1]] ^ t2[b[6]] ^ t3[b[11]] ^ k3,
            )
        return int.from_bytes(bytes(_gather_shifted(b.translate(SBOX))), "big") ^ self._last_key

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != 16:
            raise ConfigError(f"AES block must be 16 bytes, got {len(block)}")
        return self.encrypt_int(int.from_bytes(block, "big")).to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block (inverse cipher)."""
        if len(block) != 16:
            raise ConfigError(f"AES block must be 16 bytes, got {len(block)}")
        state = list(block)
        _add_round_key(state, self._round_keys[self.rounds])
        for r in range(self.rounds - 1, 0, -1):
            state = _inv_shift_rows(state)
            _inv_sub_bytes(state)
            _add_round_key(state, self._round_keys[r])
            _inv_mix_columns(state)
        state = _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, self._round_keys[0])
        return bytes(state)
