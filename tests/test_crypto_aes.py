"""AES cipher: FIPS-197 known answers, inverse cipher, and the byte-sliced
batch cipher pinned against the scalar one."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.crypto.aes import AES, INV_SBOX, SBOX
from repro.crypto.aes_batch import AesBatch

_PT = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestSbox:
    """Spot values from the FIPS-197 table; full inverse consistency."""

    def test_sbox_zero(self):
        assert SBOX[0x00] == 0x63

    def test_sbox_one(self):
        assert SBOX[0x01] == 0x7C

    def test_sbox_53(self):
        assert SBOX[0x53] == 0xED

    def test_inverse_is_inverse(self):
        for x in range(256):
            assert INV_SBOX[SBOX[x]] == x

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_tables_pinned(self):
        """The whole derived S-box and its inverse, byte for byte."""
        assert hashlib.sha256(SBOX).hexdigest() == (
            "c2d8e5eed6cbebd8625fc18f81486a7733c04f9b0129ffbe974c68b90308b4f2"
        )
        assert hashlib.sha256(INV_SBOX).hexdigest() == (
            "93631b0726f6fe6629daa743ee51b49f4477ed07391b68eeea0672a4a90018aa"
        )


class TestFipsVectors:
    """FIPS-197 Appendix C known-answer tests."""

    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        assert AES(key).encrypt_block(_PT).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        assert AES(key).encrypt_block(_PT).hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        assert AES(key).encrypt_block(_PT).hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_zero_key_zero_block(self):
        assert AES(bytes(16)).encrypt_block(bytes(16)).hex() == (
            "66e94bd4ef8a2c3b884cfa59ca342b2e"
        )


class TestRoundTrip:
    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_decrypt_inverts_encrypt(self, key_len):
        key = bytes(range(key_len))
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(_PT)) == _PT

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, key, block):
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    def test_encryption_changes_data(self):
        aes = AES(bytes(16))
        assert aes.encrypt_block(_PT) != _PT

    def test_different_keys_differ(self):
        a = AES(bytes(16)).encrypt_block(_PT)
        b = AES(bytes([1] * 16)).encrypt_block(_PT)
        assert a != b


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(ConfigError):
            AES(bytes(15))

    def test_bad_block_length_encrypt(self):
        with pytest.raises(ConfigError):
            AES(bytes(16)).encrypt_block(bytes(15))

    def test_bad_block_length_decrypt(self):
        with pytest.raises(ConfigError):
            AES(bytes(16)).decrypt_block(bytes(17))


def _scalar_blocks(key: bytes, data: bytes) -> bytes:
    aes = AES(key)
    return b"".join(aes.encrypt_block(data[i : i + 16]) for i in range(0, len(data), 16))


class TestBatchEquivalence:
    @pytest.mark.parametrize("key_len", [16, 24, 32])
    @given(key=st.binary(min_size=32, max_size=32),
           nblocks=st.integers(min_value=0, max_value=300),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(key=bytes(range(32)), nblocks=0, seed=1)
    @example(key=bytes(range(32)), nblocks=1, seed=1)
    @example(key=bytes(range(32)), nblocks=2, seed=1)
    @example(key=bytes(range(32)), nblocks=255, seed=1)
    @example(key=bytes(range(32)), nblocks=256, seed=1)
    @example(key=bytes(range(32)), nblocks=257, seed=1)
    @settings(max_examples=20, deadline=None)
    def test_batch_matches_scalar(self, key_len, key, nblocks, seed):
        """The byte-sliced batch against the T-table scalar cipher, block
        by block, for every key size and batch sizes around 256."""
        key = key[:key_len]
        blocks = np.random.default_rng(seed).integers(0, 256, size=(nblocks, 16),
                                                      dtype=np.uint8)
        batch = AesBatch(key).encrypt_blocks(blocks)
        assert batch.shape == (nblocks, 16) and batch.dtype == np.uint8
        assert batch.tobytes() == _scalar_blocks(key, blocks.tobytes())

    @given(key=st.sampled_from([16, 24, 32]).flatmap(
               lambda n: st.binary(min_size=n, max_size=n)),
           iv=st.binary(min_size=12, max_size=12),
           first=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_counters_match_scalar(self, key, iv, first, count):
        """Block i of ``encrypt_counters`` is E(iv ‖ be32(first + i mod 2³²))."""
        counters = b"".join(iv + ((first + i) % 2**32).to_bytes(4, "big")
                            for i in range(count))
        assert AesBatch(key).encrypt_counters(iv, first, count) == (
            _scalar_blocks(key, counters))

    def test_counter_wraps_at_32_bits(self):
        """Five blocks from 2³² − 2: the counter wraps to 0 and never
        carries into the IV bytes."""
        key, iv = bytes(range(16)), bytes.fromhex("cafebabefacedbaddecaf8ff")
        aes = AES(key)
        stream = AesBatch(key).encrypt_counters(iv, 2**32 - 2, 5)
        expected = [iv + bytes.fromhex(c) for c in
                    ("fffffffe", "ffffffff", "00000000", "00000001", "00000002")]
        assert [stream[16 * i : 16 * i + 16] for i in range(5)] == [
            aes.encrypt_block(block) for block in expected]

    def test_counter_iv_validation(self):
        with pytest.raises(ConfigError):
            AesBatch(bytes(16)).encrypt_counters(bytes(16), 0, 1)

    def test_batch_shape_validation(self):
        with pytest.raises(ConfigError):
            AesBatch(bytes(16)).encrypt_blocks(np.zeros((4, 8), dtype=np.uint8))

    def test_batch_dtype_validation(self):
        with pytest.raises(ConfigError):
            AesBatch(bytes(16)).encrypt_blocks(np.zeros((4, 16), dtype=np.int32))

    def test_batch_key_validation(self):
        with pytest.raises(ConfigError):
            AesBatch(bytes(7))

    def test_empty_batch(self):
        out = AesBatch(bytes(16)).encrypt_blocks(np.zeros((0, 16), dtype=np.uint8))
        assert out.shape == (0, 16)
