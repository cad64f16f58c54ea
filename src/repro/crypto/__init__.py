"""Cryptographic substrate: AES, CTR mode, GHASH, MACs, session keys.

Everything is implemented from scratch (AES per FIPS-197, GHASH per NIST
SP 800-38D) except SHA-256, which comes from the standard library.  The
timing simulators never invoke these routines — they model crypto engine
latency analytically — but the functional protection engine
(:mod:`repro.core.functional`) uses them to demonstrate end-to-end
confidentiality and integrity on real bytes, and every record of the
host↔accelerator channel (:mod:`repro.host.channel`, which
:mod:`repro.serve` runs on) is sealed with :class:`AesGcm`.  Every
multi-block keystream is one call of the byte-sliced :class:`AesBatch`;
the scalar T-table :class:`AES` encrypts single blocks and is the
reference the batch is pinned against.
"""

from repro.crypto.aes import AES
from repro.crypto.aes_batch import AesBatch, ctr_keystream
from repro.crypto.ctr import CtrMode, xor_bytes
from repro.crypto.gcm import AesGcm
from repro.crypto.ghash import Ghash, gf128_mul
from repro.crypto.keys import SessionKeys
from repro.crypto.mac import GcmMac, HmacSha256Mac, MacEngine, constant_time_equal

__all__ = [
    "AES",
    "AesBatch",
    "ctr_keystream",
    "CtrMode",
    "xor_bytes",
    "AesGcm",
    "Ghash",
    "gf128_mul",
    "SessionKeys",
    "GcmMac",
    "HmacSha256Mac",
    "MacEngine",
    "constant_time_equal",
]
