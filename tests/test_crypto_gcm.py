"""AES-GCM AEAD against the NIST / McGrew-Viega test vectors and a
reference GCM built from the scalar :class:`AES` and ``gf128_mul``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError, IntegrityError
from repro.crypto.aes import AES
from repro.crypto.aes_batch import AesBatch
from repro.crypto.gcm import AesGcm
from repro.crypto.ghash import gf128_mul

_KEY3 = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
_IV3 = bytes.fromhex("cafebabefacedbaddecaf888")
_PT3 = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
_CT3 = bytes.fromhex(
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
)
_AAD4 = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


class TestNistVectors:
    def test_case_1_empty(self):
        __, tag = AesGcm(bytes(16)).encrypt(bytes(12), b"")
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case_2_single_zero_block(self):
        ct, tag = AesGcm(bytes(16)).encrypt(bytes(12), bytes(16))
        assert ct.hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert tag.hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case_3_four_blocks(self):
        ct, tag = AesGcm(_KEY3).encrypt(_IV3, _PT3)
        assert ct == _CT3
        assert tag.hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case_4_with_aad(self):
        ct, tag = AesGcm(_KEY3).encrypt(_IV3, _PT3[:-4], _AAD4)
        assert ct == _CT3[:-4]
        assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_case_13_aes256_empty(self):
        __, tag = AesGcm(bytes(32)).encrypt(bytes(12), b"")
        assert tag.hex() == "530f8afbc74536b9a963b4f1c4cb738b"

    def test_case_14_aes256_single_zero_block(self):
        ct, tag = AesGcm(bytes(32)).encrypt(bytes(12), bytes(16))
        assert ct.hex() == "cea7403d4d606b6e074ec5d3baf39d18"
        assert tag.hex() == "d0d1c8a799996bf0265b98b5d48ab919"


class TestAeadProperties:
    def test_roundtrip(self):
        gcm = AesGcm(_KEY3)
        ct, tag = gcm.encrypt(_IV3, b"hello accelerator", b"header")
        assert gcm.decrypt(_IV3, ct, tag, b"header") == b"hello accelerator"

    def test_tampered_ciphertext_rejected(self):
        gcm = AesGcm(_KEY3)
        ct, tag = gcm.encrypt(_IV3, b"payload bytes here")
        bad = bytes([ct[0] ^ 1]) + ct[1:]
        with pytest.raises(IntegrityError):
            gcm.decrypt(_IV3, bad, tag)

    def test_tampered_tag_rejected(self):
        gcm = AesGcm(_KEY3)
        ct, tag = gcm.encrypt(_IV3, b"payload")
        with pytest.raises(IntegrityError):
            gcm.decrypt(_IV3, ct, bytes(16))

    def test_wrong_aad_rejected(self):
        gcm = AesGcm(_KEY3)
        ct, tag = gcm.encrypt(_IV3, b"payload", b"aad-one")
        with pytest.raises(IntegrityError):
            gcm.decrypt(_IV3, ct, tag, b"aad-two")

    def test_distinct_ivs_distinct_ciphertexts(self):
        gcm = AesGcm(_KEY3)
        a, _ = gcm.encrypt(bytes(12), b"same message")
        b, _ = gcm.encrypt(b"\x01" + bytes(11), b"same message")
        assert a != b

    def test_iv_length_enforced(self):
        with pytest.raises(ConfigError):
            AesGcm(_KEY3).encrypt(bytes(16), b"x")


def _reference_gcm(key: bytes, iv: bytes, plaintext: bytes,
                   aad: bytes) -> tuple[bytes, bytes]:
    """GCM from the scalar T-table AES, one block per call, and the
    bit-serial GF multiply: independent of the byte-sliced batch cipher
    :class:`AesGcm` runs on."""
    cipher = AES(key)

    def encrypt(blocks: list[int]) -> list[int]:
        return [cipher.encrypt_int(block) for block in blocks]

    def padded_blocks(data: bytes) -> list[int]:
        data = data + bytes(-len(data) % 16)
        return [int.from_bytes(data[i:i + 16], "big")
                for i in range(0, len(data), 16)]

    (h,) = encrypt([0])
    j0 = int.from_bytes(iv, "big") << 32 | 1
    nblocks = -(-len(plaintext) // 16)
    counters = [j0 >> 32 << 32 | (j0 + i) & 0xFFFFFFFF
                for i in range(1, nblocks + 1)]
    stream = b"".join(k.to_bytes(16, "big") for k in encrypt(counters))
    ciphertext = bytes(p ^ k for p, k in zip(plaintext, stream))
    y = 0
    for block in (padded_blocks(aad) + padded_blocks(ciphertext)
                  + [len(aad) * 8 << 64 | len(ciphertext) * 8]):
        y = gf128_mul(y ^ block, h)
    (mask,) = encrypt([j0])
    return ciphertext, (mask ^ y).to_bytes(16, "big")


def _flip(data: bytes, bit: int) -> bytes:
    bit %= 8 * len(data)
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class TestReferenceDifferential:
    @given(key=st.sampled_from([16, 24, 32]).flatmap(
               lambda n: st.binary(min_size=n, max_size=n)),
           iv=st.binary(min_size=12, max_size=12),
           plaintext=st.binary(max_size=300),
           aad=st.binary(max_size=40),
           bit=st.integers(min_value=0, max_value=4095))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_and_rejects_flips(self, key, iv, plaintext,
                                                 aad, bit):
        gcm = AesGcm(key)
        ct, tag = gcm.encrypt(iv, plaintext, aad)
        assert (ct, tag) == _reference_gcm(key, iv, plaintext, aad)
        assert gcm.decrypt(iv, ct, tag, aad) == plaintext
        with pytest.raises(IntegrityError):
            gcm.decrypt(iv, ct, _flip(tag, bit), aad)
        if ct:
            with pytest.raises(IntegrityError):
                gcm.decrypt(iv, _flip(ct, bit), tag, aad)
        if aad:
            with pytest.raises(IntegrityError):
                gcm.decrypt(iv, ct, tag, _flip(aad, bit))


class TestBlockCount:
    @pytest.mark.parametrize("nbytes", [0, 1, 16, 17, 174, 2307])
    def test_seal_runs_one_block_per_16_bytes_plus_tag(self, monkeypatch,
                                                       nbytes):
        """Sealing or opening n bytes is one cipher call over ⌈n/16⌉ + 1
        counter blocks starting at J0, and never re-derives the hash
        subkey H = AES(0^128)."""
        gcm = AesGcm(_KEY3)
        calls = []
        original = AesBatch.encrypt

        def counting(self, blocks):
            calls.append(blocks)
            return original(self, blocks)

        def scalar(self, block):
            raise AssertionError("the record path ran the scalar cipher")

        monkeypatch.setattr(AesBatch, "encrypt", counting)
        monkeypatch.setattr(AES, "encrypt_int", scalar)
        counters = b"".join(_IV3 + (1 + i).to_bytes(4, "big")
                            for i in range(-(-nbytes // 16) + 1))
        ct, tag = gcm.encrypt(_IV3, bytes(nbytes), b"aad")
        assert calls == [counters]
        assert bytes(16) not in {counters[i:i + 16]
                                 for i in range(0, len(counters), 16)}
        calls.clear()
        assert gcm.decrypt(_IV3, ct, tag, b"aad") == bytes(nbytes)
        assert calls == [counters]
