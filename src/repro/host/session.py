"""The full §II provisioning workflow, end to end.

1. The user sends a session request with a fresh nonce and a DH public
   value.
2. The device completes the DH exchange, clears its state, derives the
   session keys (channel key + the memory-protection key pair), and
   returns an attestation quote binding device, firmware, kernel hash,
   nonce and DH transcript.
3. The user verifies the quote against the manufacturer CA, derives the
   same keys, and ships the kernel and input data over the secure
   channel.
4. The device decrypts them with the channel key and re-encrypts them
   into protected DRAM with the memory-encryption key, ready to execute.

Everything here is functional: the DH is real, the GCM records are real,
and the protected memory is a :class:`MgxFunctionalEngine` over a
:class:`BackingStore` an attacker can reach.

:meth:`SecureAcceleratorDevice.open_session` is the one session API:
each call returns a fresh :class:`DeviceSession`, so a device can hold
**many concurrent attested sessions** — one per tenant of the serving
front-end (:mod:`repro.serve`) — each with its own channel key,
memory-protection keys and protected store.  Key isolation is
end-to-end: no tenant can verify (or forge) another tenant's records,
because the channel keys derive from independent DH exchanges.  Session
nonces are single-use per device; replaying one raises
:class:`~repro.common.errors.ReplayError` before any keys are derived.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.common.errors import ReplayError, SecurityError
from repro.common.units import round_up
from repro.core.functional import MgxFunctionalEngine
from repro.core.vngen import DnnVnState
from repro.crypto.keys import SessionKeys, _hkdf_expand
from repro.host.attestation import AttestationQuote, ManufacturerCa, measurement, sign_quote
from repro.host.channel import SecureChannel
from repro.host.dh import DhParty
from repro.mem.backing import BackingStore


def dh_transcript(user_public: int, device_public: int) -> bytes:
    """Hash binding both DH public values, in exchange order."""
    return hashlib.sha256(
        user_public.to_bytes(256, "big") + device_public.to_bytes(256, "big")
    ).digest()


def derive_channel_key(shared: bytes, transcript: bytes) -> bytes:
    """The record-channel key both sides derive from the DH exchange."""
    return _hkdf_expand(shared + transcript, b"mgx-channel", 16)


def verify_session_quote(ca: ManufacturerCa, quote: AttestationQuote, *,
                         expected_firmware: bytes, kernel: bytes,
                         nonce: bytes, transcript: bytes) -> None:
    """Full user-side quote validation; raises :class:`SecurityError`.

    Checks, in order: genuine signature under the manufacturer CA, the
    expected firmware measurement, the kernel we actually sent, our
    freshness nonce, and the DH transcript of *this* key exchange.
    """
    ca.verify(quote)
    if quote.firmware_hash != measurement(expected_firmware):
        raise SecurityError("attested firmware does not match expectation")
    if quote.kernel_hash != measurement(kernel):
        raise SecurityError("attested kernel does not match what we sent")
    if quote.user_nonce != nonce:
        raise SecurityError("stale attestation (nonce mismatch)")
    if quote.dh_transcript_hash != transcript:
        raise SecurityError("attestation does not cover this key exchange")


@dataclass
class DeviceSession:
    """One attested session's device-side state.

    Everything a session owns is private to it: the channel key (and
    with it the record sequence state), the memory-protection keys, the
    VN state, and the protected store region.  A device holds one of
    these per connected tenant; dropping the object ends the session.
    """

    engine: MgxFunctionalEngine
    vn_state: DnnVnState
    channel: SecureChannel
    store: BackingStore
    protected_bytes: int
    mac_granularity: int
    _loaded: dict[str, tuple[int, int]] = field(default_factory=dict)
    _cursor: int = 0

    # -- secure channel ----------------------------------------------------
    def receive(self, record: tuple[int, bytes, bytes], aad: bytes = b"") -> bytes:
        """Decrypt one host→device channel record (replay-protected)."""
        sequence, ciphertext, tag = record
        return self.channel.receive(sequence, ciphertext, tag, aad=aad)

    def send(self, payload: bytes, aad: bytes = b"") -> tuple[int, bytes, bytes]:
        """Seal one device→host record under this session's channel key.

        The GCM tag *is* the response MAC: only the tenant holding this
        session's channel key can verify it, so results sealed here are
        unverifiable (and unforgeable) for every other tenant.
        """
        return self.channel.send(payload, aad=aad)

    # -- protected memory --------------------------------------------------
    def receive_payload(self, name: str, record: tuple[int, bytes, bytes]) -> None:
        """Decrypt a channel record and place it in protected DRAM."""
        plaintext = self.receive(record, aad=name.encode())
        padded = round_up(max(1, len(plaintext)), self.mac_granularity)
        address = self._cursor
        self._cursor += padded
        vn = self.vn_state.ingest_features(name)
        self.engine.write(address, plaintext.ljust(padded, b"\x00"), vn)
        self._loaded[name] = (address, len(plaintext))

    def read_protected(self, name: str) -> bytes:
        """What the kernel sees when it loads the tensor on-chip."""
        address, length = self._loaded[name]
        padded = round_up(max(1, length), self.mac_granularity)
        return self.engine.read(address, padded,
                                self.vn_state.read_features(name))[:length]


@dataclass
class SecureAcceleratorDevice:
    """The device side: identity, firmware, protected memory."""

    device_id: bytes
    firmware: bytes
    ca: ManufacturerCa
    protected_bytes: int = 1 << 20
    mac_granularity: int = 512

    def __post_init__(self) -> None:
        self._sk_accel = self.ca.device_key(self.device_id)
        self._seen_nonces: set[bytes] = set()

    # -- step 2: session establishment + attestation -----------------------
    def open_session(self, user_nonce: bytes, user_dh_public: int,
                     kernel_hash: bytes,
                     ) -> tuple[int, AttestationQuote, DeviceSession]:
        """DH + key derivation + quote for one new session.

        Each session gets an isolated :class:`DeviceSession` over a fresh
        protected store, whose keys and memory are its tenant's alone;
        opening one displaces no other.  Session nonces are single-use
        for the device's lifetime: the device DH seed (and with it every
        session key) is a function of the nonce, so accepting a replay
        would re-derive a previous tenant's keys for whoever replays the
        handshake.
        """
        if user_nonce in self._seen_nonces:
            raise ReplayError("session nonce replayed: open_session nonces "
                              "are single-use per device")
        device_dh = DhParty(self._sk_accel + user_nonce)
        shared = device_dh.shared_secret(user_dh_public)
        self._seen_nonces.add(user_nonce)
        transcript = dh_transcript(user_dh_public, device_dh.public)
        # Fresh state for the new session (§II: "clear its internal
        # state, set a pair of new symmetric keys ...").
        keys = SessionKeys.derive(shared, transcript)
        store = BackingStore(2 * self.protected_bytes)
        session = DeviceSession(
            engine=MgxFunctionalEngine(
                keys, store, data_bytes=self.protected_bytes,
                mac_granularity=self.mac_granularity,
            ),
            vn_state=DnnVnState(),
            channel=SecureChannel(derive_channel_key(shared, transcript),
                                  direction=1),
            store=store,
            protected_bytes=self.protected_bytes,
            mac_granularity=self.mac_granularity,
        )
        quote = sign_quote(
            self._sk_accel,
            self.device_id,
            measurement(self.firmware),
            kernel_hash,
            user_nonce,
            transcript,
        )
        return device_dh.public, quote, session


@dataclass
class UserSession:
    """The user side: verifies attestation, drives the channel."""

    ca: ManufacturerCa
    expected_firmware: bytes
    kernel: bytes
    nonce: bytes = b"user-nonce-0001"

    def connect(self, device: SecureAcceleratorDevice) -> DeviceSession:
        """Attest ``device`` and open a channel to it.

        Returns the device-side :class:`DeviceSession` the handshake
        opened, which receives what :meth:`send` seals.
        """
        user_dh = DhParty(self.nonce + b"user-entropy")
        device_public, quote, session = device.open_session(
            self.nonce, user_dh.public, measurement(self.kernel)
        )
        # Verify the quote: genuine device, expected firmware, our kernel,
        # our nonce, and the DH transcript we actually ran.
        transcript = dh_transcript(user_dh.public, device_public)
        verify_session_quote(self.ca, quote,
                             expected_firmware=self.expected_firmware,
                             kernel=self.kernel, nonce=self.nonce,
                             transcript=transcript)
        shared = user_dh.shared_secret(device_public)
        self._channel = SecureChannel(derive_channel_key(shared, transcript),
                                      direction=0)
        return session

    def send(self, name: str, payload: bytes) -> tuple[int, bytes, bytes]:
        return self._channel.send(payload, aad=name.encode())
