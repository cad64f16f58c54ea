"""Record-channel sealing cost: AES-GCM through ``SecureChannel``.

Every ``repro.serve`` request and reply crosses the §II host↔accelerator
channel as one AES-GCM record.  In the default serving mix, requests are
36–46 B (45 B is the most common record of all), result replies 303–342
B and profile replies 2,305–2,307 B.  These benchmarks seal and unseal a
45 B request, a 174 B record and the largest, 2,307 B, so the trend gate
(``gcm_`` filter term) tracks the per-record channel cost.  No record is
174 B: it is the mean of the mix's two middle records (46 B and 303 B),
kept so the gate keeps comparing that id.  The 45 B request is where one
batched cipher call gains least over per-block calls.  They assert
round-trip correctness only, never a timing.

Each round gets fresh channel endpoints (sequence numbers restart at 0);
their key setup runs in the untimed ``setup`` hook.
"""

from __future__ import annotations

import pytest

from repro.host.channel import SecureChannel

_KEY = bytes(range(16))
_AAD = b"mgx-serve-reply"
_ROUNDS = 50

#: Plaintext record sizes: the serving mix's most common (a request), the
#: mean of its two middle records, and its largest (a profile reply).
_RECORD_SIZES = {"request_45B": 45, "median_174B": 174, "largest_2307B": 2307}


def _plaintext(nbytes: int) -> bytes:
    return bytes(i * 7 % 256 for i in range(nbytes))


def _endpoint(direction: int):
    return lambda: ((SecureChannel(_KEY, direction=direction),), {})


@pytest.mark.parametrize("size", _RECORD_SIZES.values(), ids=_RECORD_SIZES.keys())
def test_gcm_seal(benchmark, size):
    plaintext = _plaintext(size)
    record = benchmark.pedantic(lambda sender: sender.send(plaintext, _AAD),
                                setup=_endpoint(0), rounds=_ROUNDS)
    assert SecureChannel(_KEY, direction=1).receive(*record, _AAD) == plaintext


@pytest.mark.parametrize("size", _RECORD_SIZES.values(), ids=_RECORD_SIZES.keys())
def test_gcm_unseal(benchmark, size):
    plaintext = _plaintext(size)
    record = SecureChannel(_KEY, direction=0).send(plaintext, _AAD)
    out = benchmark.pedantic(lambda receiver: receiver.receive(*record, _AAD),
                             setup=_endpoint(1), rounds=_ROUNDS)
    assert out == plaintext
