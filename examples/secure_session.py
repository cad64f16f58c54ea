#!/usr/bin/env python3
"""The §II provisioning workflow, end to end and fully functional.

A user establishes trust with a remote secure accelerator:

1. attestation — the device proves (signed quote) which firmware and
   kernel it will run, bound to this session's key exchange;
2. DHE — a real Diffie-Hellman over the RFC 3526 2048-bit group derives
   the channel key and the memory-protection keys;
3. secure channel — the kernel and private input travel as AES-GCM
   records with replay-protected sequence numbers;
4. protected memory — the device re-encrypts the payload into DRAM under
   MGX (the attacker sees only ciphertext and MACs).

The example then lets the "host OS" attack every step and shows each
attack being caught.
"""

from repro.common.errors import IntegrityError, ReplayError, SecurityError
from repro.host import ManufacturerCa, SecureAcceleratorDevice, UserSession
from repro.mem.attacker import Attacker

FIRMWARE = b"mgx-secure-accelerator-firmware-v1.0"
KERNEL = b"compiled kernel: resnet50-int8-inference"
SECRET = b"PATIENT-RECORD-0423: private inference input " * 8


def main() -> None:
    ca = ManufacturerCa(b"manufacturer-root-secret")
    device = SecureAcceleratorDevice(device_id=b"accel-0007", firmware=FIRMWARE,
                                     ca=ca)
    user = UserSession(ca=ca, expected_firmware=FIRMWARE, kernel=KERNEL)

    # -- provisioning -------------------------------------------------------
    session = user.connect(device)
    print("attestation verified: genuine device, expected firmware, our kernel ✔")

    record = user.send("input", SECRET)
    session.receive_payload("input", record)
    assert session.read_protected("input") == SECRET
    print("kernel + private input provisioned into protected DRAM ✔")

    attacker = Attacker(session.store)
    dump = attacker.observe(0, session.protected_bytes)
    assert SECRET[:24] not in dump
    print("DRAM dump contains no plaintext ✔")

    # -- attacks ------------------------------------------------------------
    print("\nattacks from the untrusted host:")

    try:  # 1. replay a channel record
        session.receive_payload("input", record)
        raise SystemExit("channel replay went undetected")
    except ReplayError:
        print("  channel record replay → ReplayError ✔")

    try:  # 2. rogue firmware attestation
        rogue = SecureAcceleratorDevice(device_id=b"accel-0007",
                                        firmware=b"firmware-with-backdoor", ca=ca)
        UserSession(ca=ca, expected_firmware=FIRMWARE, kernel=KERNEL).connect(rogue)
        raise SystemExit("rogue firmware went undetected")
    except SecurityError:
        print("  rogue firmware attestation → SecurityError ✔")

    try:  # 3. flip a bit in protected DRAM
        attacker.flip_bit(64, 2)
        session.read_protected("input")
        raise SystemExit("DRAM tamper went undetected")
    except IntegrityError:
        print("  protected-DRAM bit flip → IntegrityError ✔")


if __name__ == "__main__":
    main()
