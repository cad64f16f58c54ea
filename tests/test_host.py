"""Host workflow (§II): DH, attestation, channel, session provisioning."""

import pytest

from repro.common.errors import ConfigError, IntegrityError, ReplayError, SecurityError
from repro.host.attestation import ManufacturerCa, measurement, sign_quote
from repro.host.channel import SecureChannel
from repro.host.dh import MODP_2048_P, DhParty
from repro.host.session import SecureAcceleratorDevice, UserSession
from repro.mem.attacker import Attacker

_FIRMWARE = b"mgx-firmware-v1.0"
_KERNEL = b"kernel: resnet50 inference"


@pytest.fixture
def ca():
    return ManufacturerCa(b"manufacturer-root-secret")


@pytest.fixture
def device(ca):
    return SecureAcceleratorDevice(device_id=b"accel-42", firmware=_FIRMWARE, ca=ca)


class TestDiffieHellman:
    def test_agreement(self):
        alice, bob = DhParty(b"alice"), DhParty(b"bob")
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)

    def test_different_pairs_differ(self):
        alice, bob, eve = DhParty(b"a"), DhParty(b"b"), DhParty(b"e")
        assert alice.shared_secret(bob.public) != alice.shared_secret(eve.public)

    def test_public_in_group(self):
        assert 1 < DhParty(b"x").public < MODP_2048_P - 1

    def test_degenerate_peer_rejected(self):
        with pytest.raises(ConfigError):
            DhParty(b"x").shared_secret(1)
        with pytest.raises(ConfigError):
            DhParty(b"x").shared_secret(MODP_2048_P - 1)


class TestAttestation:
    def test_genuine_quote_verifies(self, ca):
        sk = ca.device_key(b"dev-1")
        quote = sign_quote(sk, b"dev-1", measurement(_FIRMWARE),
                           measurement(_KERNEL), b"nonce", b"transcript")
        ca.verify(quote)  # must not raise

    def test_forged_signature_rejected(self, ca):
        quote = sign_quote(b"wrong-key", b"dev-1", measurement(_FIRMWARE),
                           measurement(_KERNEL), b"nonce", b"transcript")
        with pytest.raises(SecurityError):
            ca.verify(quote)

    def test_quote_binds_kernel(self, ca):
        """A quote for kernel A cannot vouch for kernel B."""
        sk = ca.device_key(b"dev-1")
        quote = sign_quote(sk, b"dev-1", measurement(_FIRMWARE),
                           measurement(b"kernel A"), b"nonce", b"t")
        assert quote.kernel_hash != measurement(b"kernel B")

    def test_different_devices_different_keys(self, ca):
        assert ca.device_key(b"dev-1") != ca.device_key(b"dev-2")


class TestSecureChannel:
    def _pair(self):
        key = bytes(range(16))
        return SecureChannel(key, 0), SecureChannel(key, 1)

    def test_roundtrip(self):
        host, dev = self._pair()
        record = host.send(b"weights shard 0", aad=b"weights")
        assert dev.receive(*record, aad=b"weights") == b"weights shard 0"

    def test_sequence_enforced(self):
        host, dev = self._pair()
        host.send(b"one")
        second = host.send(b"two")
        with pytest.raises(ReplayError):
            dev.receive(*second)  # skipped record 0

    def test_replayed_record_rejected(self):
        host, dev = self._pair()
        record = host.send(b"one")
        dev.receive(*record)
        with pytest.raises(ReplayError):
            dev.receive(*record)

    def test_direction_separation(self):
        """A host record cannot be reflected back to the host."""
        key = bytes(range(16))
        host = SecureChannel(key, 0)
        host2 = SecureChannel(key, 0)
        record = host.send(b"hello")
        with pytest.raises(IntegrityError):
            host2.receive(*record)  # expects device-direction IVs

    def test_tamper_rejected(self):
        host, dev = self._pair()
        seq, ct, tag = host.send(b"payload")
        with pytest.raises(IntegrityError):
            dev.receive(seq, ct[:-1] + bytes([ct[-1] ^ 1]), tag)


class TestProvisioningFlow:
    def test_end_to_end(self, ca, device):
        user = UserSession(ca=ca, expected_firmware=_FIRMWARE, kernel=_KERNEL)
        session = user.connect(device)
        payload = b"private training batch" * 20
        session.receive_payload("input", user.send("input", payload))
        assert session.read_protected("input") == payload

    def test_plaintext_never_in_dram(self, ca, device):
        user = UserSession(ca=ca, expected_firmware=_FIRMWARE, kernel=_KERNEL)
        session = user.connect(device)
        session.receive_payload("input",
                                user.send("input", b"SECRETPATTERN" * 40))
        dump = Attacker(session.store).observe(0, session.protected_bytes)
        assert b"SECRETPATTERN" not in dump

    def test_wrong_firmware_detected(self, ca):
        rogue = SecureAcceleratorDevice(device_id=b"accel-66",
                                        firmware=b"patched-firmware", ca=ca)
        user = UserSession(ca=ca, expected_firmware=_FIRMWARE, kernel=_KERNEL)
        with pytest.raises(SecurityError):
            user.connect(rogue)

    def test_unknown_ca_detected(self, ca, device):
        other_ca = ManufacturerCa(b"counterfeit-root")
        user = UserSession(ca=other_ca, expected_firmware=_FIRMWARE, kernel=_KERNEL)
        with pytest.raises(SecurityError):
            user.connect(device)

    def test_session_reset_clears_state(self, ca, device):
        user = UserSession(ca=ca, expected_firmware=_FIRMWARE, kernel=_KERNEL)
        first = user.connect(device)
        first.receive_payload("input", user.send("input", b"round one" * 10))
        # Re-provisioning starts a fresh session with fresh keys.
        user2 = UserSession(ca=ca, expected_firmware=_FIRMWARE, kernel=_KERNEL,
                            nonce=b"user-nonce-0002")
        second = user2.connect(device)
        second.receive_payload("input", user2.send("input", b"round two" * 10))
        assert second.read_protected("input") == b"round two" * 10
        assert second.store is not first.store


class TestConcurrentSessions:
    """Multi-tenant sessions (the serving front-end's substrate)."""

    def test_session_nonce_replay_rejected(self, ca, device):
        user = UserSession(ca=ca, expected_firmware=_FIRMWARE, kernel=_KERNEL)
        user.connect(device)
        # Replaying the same handshake nonce must fail before any keys
        # are derived — the device DH seed is a function of the nonce.
        replayer = UserSession(ca=ca, expected_firmware=_FIRMWARE,
                               kernel=_KERNEL, nonce=user.nonce)
        with pytest.raises(ReplayError):
            replayer.connect(device)

    def test_tenant_nonce_replay_rejected(self, ca, device):
        dh = DhParty(b"tenant-a-entropy")
        device.open_session(b"nonce-a", dh.public, measurement(_KERNEL))
        # A replay fails whether it reuses the DH value or not.
        with pytest.raises(ReplayError):
            device.open_session(b"nonce-a", DhParty(b"other").public,
                                measurement(_KERNEL))
        with pytest.raises(ReplayError):
            device.open_session(b"nonce-a", dh.public, measurement(_KERNEL))

    def test_tenant_keys_are_isolated(self, ca, device):
        from repro.host.session import derive_channel_key, dh_transcript

        sessions = {}
        for tenant in (b"tenant-a", b"tenant-b"):
            dh = DhParty(tenant + b"-entropy")
            public, quote, session = device.open_session(
                tenant, dh.public, measurement(_KERNEL))
            ca.verify(quote)
            key = derive_channel_key(dh.shared_secret(public),
                                     dh_transcript(dh.public, public))
            sessions[tenant] = (SecureChannel(key, direction=0), session)
        chan_a, sess_a = sessions[b"tenant-a"]
        chan_b, sess_b = sessions[b"tenant-b"]
        # A record sealed under tenant A's session key fails MAC
        # verification under tenant B's — results are unverifiable (and
        # unforgeable) across tenants.
        record = sess_a.send(b"tenant A result", aad=b"reply")
        assert chan_a.receive(*record, aad=b"reply") == b"tenant A result"
        record = sess_a.send(b"second result", aad=b"reply")
        with pytest.raises(IntegrityError):
            chan_b.receive(*record, aad=b"reply")

    def test_tenant_stores_are_disjoint(self, ca, device):
        out = {}
        for tenant in (b"tenant-a", b"tenant-b"):
            dh = DhParty(tenant + b"-entropy")
            public, _quote, session = device.open_session(
                tenant, dh.public, measurement(_KERNEL))
            from repro.host.session import derive_channel_key, dh_transcript

            key = derive_channel_key(dh.shared_secret(public),
                                     dh_transcript(dh.public, public))
            channel = SecureChannel(key, direction=0)
            session.receive_payload(
                "input", channel.send(tenant + b" secret", aad=b"input"))
            out[tenant] = session
        # Same protected address range, different stores and keys: each
        # session reads back its own plaintext.
        assert out[b"tenant-a"].read_protected("input") == b"tenant-a secret"
        assert out[b"tenant-b"].read_protected("input") == b"tenant-b secret"
        assert out[b"tenant-a"].store is not out[b"tenant-b"].store
