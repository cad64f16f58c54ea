"""Serving front-end: protocol, coalescing, admission, isolation, loadgen.

The async paths run under ``asyncio.run`` inside synchronous tests (no
pytest-asyncio dependency).  Tests that pin cache/coalescing counters
clear the process-wide trace cache first so they are order-independent.
"""

import asyncio
import itertools

import pytest

from repro.common.errors import IntegrityError, ReplayError
from repro.experiments.registry import resolve_request
from repro.host.attestation import ManufacturerCa
from repro.host.channel import SecureChannel
from repro.serve.__main__ import main as serve_main
from repro.serve.loadgen import (
    SERVE_KERNEL,
    LoadConfig,
    run_load,
)
from repro.serve.protocol import (
    REPLY_AAD,
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_OK,
    TenantClient,
    WorkReply,
    WorkRequest,
)
from repro.serve.server import SERVE_FIRMWARE, ProtectionServer, ServerConfig
from repro.sim.runner import TRACE_CACHE


@pytest.fixture
def ca():
    return ManufacturerCa(b"serve-root-secret")


def _client(ca, nonce):
    return TenantClient(ca, expected_firmware=SERVE_FIRMWARE,
                        kernel=SERVE_KERNEL, nonce=nonce)


class TestProtocol:
    def test_request_roundtrip(self):
        request = WorkRequest(request_id=7, name="pagerank", scheme="MGX")
        assert WorkRequest.decode(request.encode()) == request
        assert WorkRequest.decode(
            WorkRequest(3, "genome-align").encode()).scheme is None

    def test_reply_roundtrip(self):
        reply = WorkReply(request_id=9, status=STATUS_OK, kind="result",
                          payload="{}", detail=None)
        assert WorkReply.decode(reply.encode()) == reply

    def test_encoding_is_canonical(self):
        # Identical logical messages are byte-identical on the wire.
        a = WorkRequest(1, "bfs", "NP").encode()
        b = WorkRequest(1, "bfs", "NP").encode()
        assert a == b


class TestServing:
    def test_served_payloads_match_offline_pricing(self, ca):
        async def run():
            async with ProtectionServer(ca=ca) as server:
                client = _client(ca, b"offline-check")
                await client.connect(server)
                out = {}
                for name, scheme in (("pagerank", "MGX"), ("dnn-alexnet", "NP"),
                                     ("genome-align", None)):
                    reply = await client.request(name, scheme)
                    assert reply.status == STATUS_OK
                    out[(name, scheme)] = reply.payload
                await client.close()
                return out

        payloads = asyncio.run(run())
        for (name, scheme), payload in payloads.items():
            assert payload == resolve_request(name, scheme).offline_payload()

    def test_identical_inflight_requests_coalesce(self, ca):
        TRACE_CACHE.clear()

        async def run():
            async with ProtectionServer(ca=ca) as server:
                clients = [_client(ca, b"coalesce-%d" % i) for i in range(6)]
                for client in clients:
                    await client.connect(server)
                replies = await asyncio.gather(
                    *(c.request("video-decode") for c in clients))
                for client in clients:
                    await client.close()
                return replies, dict(server.stats), server.flights

        replies, stats, flights = asyncio.run(run())
        assert [r.status for r in replies] == [STATUS_OK] * 6
        # One computation served all six: the rest coalesced onto the
        # in-flight leader or hit the cache the leader populated.
        assert stats["computed"] == 1
        assert stats["coalesced"] + stats["warm_hits"] == 5
        assert flights.leaders >= 1
        # Byte-identical replies, each sealed under its own tenant key.
        assert len({r.payload for r in replies}) == 1

    def test_admission_rejects_when_full(self, ca):
        config = ServerConfig(queue_depth=1, per_tenant_inflight=1,
                              pricing_workers=1)

        async def run():
            async with ProtectionServer(ca=ca, config=config) as server:
                client = _client(ca, b"burst-tenant")
                await client.connect(server)
                replies = await asyncio.gather(
                    *(client.request("genome-align") for _ in range(5)))
                await client.close()
                return replies, dict(server.stats)

        replies, stats = asyncio.run(run())
        statuses = [r.status for r in replies]
        assert statuses.count(STATUS_OK) >= 1
        assert statuses.count(STATUS_BUSY) >= 1
        # Nothing lost: every request answered, busy counted not dropped.
        assert len(statuses) == 5
        assert stats["ok"] + stats["busy"] == stats["requests"] == 5

    def test_per_tenant_cap_isolates_tenants(self, ca):
        config = ServerConfig(queue_depth=64, per_tenant_inflight=1,
                              pricing_workers=1, batch_window_s=0.05)

        async def run():
            async with ProtectionServer(ca=ca, config=config) as server:
                greedy = _client(ca, b"greedy")
                quiet = _client(ca, b"quiet")
                await greedy.connect(server)
                await quiet.connect(server)
                burst = [asyncio.ensure_future(greedy.request("pagerank", "MGX"))
                         for _ in range(4)]
                await asyncio.sleep(0)  # let the burst hit admission
                polite = await quiet.request("pagerank", "MGX")
                burst_replies = await asyncio.gather(*burst)
                await greedy.close()
                await quiet.close()
                return polite, burst_replies

        polite, burst_replies = asyncio.run(run())
        # The quiet tenant is admitted even while the greedy one is
        # over its cap and eating BUSY replies.
        assert polite.status == STATUS_OK
        assert sum(1 for r in burst_replies
                   if r.status == STATUS_BUSY) >= 1

    def test_compatible_pricings_batch_over_one_trace(self, ca):
        config = ServerConfig(batch_window_s=0.05, pricing_workers=2)

        async def run():
            async with ProtectionServer(ca=ca, config=config) as server:
                clients = [_client(ca, b"batch-%d" % i) for i in range(2)]
                for client in clients:
                    await client.connect(server)
                replies = await asyncio.gather(
                    clients[0].request("dnn-dlrm", "NP"),
                    clients[1].request("dnn-dlrm", "MGX"),
                )
                for client in clients:
                    await client.close()
                return replies, dict(server.stats)

        replies, stats = asyncio.run(run())
        assert [r.status for r in replies] == [STATUS_OK] * 2
        # Same workload trace, different schemes: one flushed group
        # priced both requests.
        assert stats["batched_groups"] == 1
        assert stats["batched_requests"] == 2
        for reply, scheme in zip(replies, ("NP", "MGX")):
            assert reply.payload == resolve_request(
                "dnn-dlrm", scheme).offline_payload()

    def test_unknown_requests_get_error_replies(self, ca):
        async def run():
            async with ProtectionServer(ca=ca) as server:
                client = _client(ca, b"error-tenant")
                await client.connect(server)
                bad_name = await client.request("no-such-workload")
                bad_scheme = await client.request("pagerank", "XXX")
                await client.close()
                return bad_name, bad_scheme, dict(server.stats)

        bad_name, bad_scheme, stats = asyncio.run(run())
        assert bad_name.status == STATUS_ERROR
        assert "unknown serve request" in (bad_name.detail or "")
        assert bad_scheme.status == STATUS_ERROR
        assert "unknown scheme" in (bad_scheme.detail or "")
        assert stats["errors"] == 2 and stats["ok"] == 0

    def test_session_nonce_replay_rejected(self, ca):
        async def run():
            async with ProtectionServer(ca=ca) as server:
                first = _client(ca, b"replayed-nonce")
                await first.connect(server)
                second = _client(ca, b"replayed-nonce")
                with pytest.raises(ReplayError):
                    await second.connect(server)
                await first.close()

        asyncio.run(run())

    def test_cross_tenant_reply_fails_mac(self, ca):
        async def run():
            async with ProtectionServer(ca=ca) as server:
                a = _client(ca, b"tenant-a")
                b = _client(ca, b"tenant-b")
                await a.connect(server)
                await b.connect(server)
                # Seal a reply record under tenant A's session key and
                # try to verify it with tenant B's channel: the GCM tag
                # is the response MAC, and it must not verify.
                record = a._connection.session.send(
                    WorkReply(0, STATUS_OK).encode(), aad=b"mgx-serve-reply")
                with pytest.raises(IntegrityError):
                    b.channel.receive(*record, aad=b"mgx-serve-reply")
                await a.close()
                await b.close()

        asyncio.run(run())

    def test_replayed_record_counted_not_served(self, ca):
        async def run():
            async with ProtectionServer(ca=ca) as server:
                client = _client(ca, b"record-replayer")
                await client.connect(server)
                reply = await client.request("genome-align")
                assert reply.status == STATUS_OK
                # Replay the sealed request record wholesale: the channel
                # rejects the stale sequence number; the server counts it
                # and keeps serving.
                record = client.channel.send(
                    WorkRequest(99, "genome-align").encode(),
                    aad=b"mgx-serve-request")
                client._connection.submit(record)
                client._connection.submit(record)
                reply = await client.request("video-decode")
                assert reply.status == STATUS_OK
                await client.close()
                return dict(server.stats)

        stats = asyncio.run(run())
        assert stats["bad_records"] == 1


class TestLoadgen:
    def test_closed_loop_report(self):
        config = LoadConfig(tenants=4, requests=24, seed=7)
        report = run_load(config)
        assert report.sent == 24
        assert report.lost == 0
        assert report.ok == 24 and report.busy == 0 and report.errors == 0
        # Every reply MAC-verified under its tenant's key; identical
        # requests answered byte-identically.
        assert report.mac_verified == 24
        assert report.payload_mismatches == 0
        assert report.throughput_rps > 0
        assert report.latency_ms["p50"] <= report.latency_ms["p99"]
        for label, payload in report.payloads.items():
            name, _, scheme = label.partition(":")
            assert payload == resolve_request(
                name, None if scheme == "default" else scheme
            ).offline_payload()

    def test_open_loop_hits_admission_control(self):
        config = LoadConfig(
            tenants=6, requests=30, mode="open", rate=3000.0, seed=11,
            server=ServerConfig(queue_depth=2, per_tenant_inflight=1,
                                pricing_workers=1),
        )
        report = run_load(config)
        assert report.sent == 30
        assert report.lost == 0
        assert report.busy >= 1
        assert report.mac_verified == 30
        assert report.server_stats["busy"] == report.busy

    @staticmethod
    def _corrupt_fifth_reply_tag(monkeypatch):
        """Flip one bit of the tag of the fifth reply record sealed."""
        original = SecureChannel.send
        replies = itertools.count()

        def send(self, plaintext, aad=b""):
            sequence, ciphertext, tag = original(self, plaintext, aad)
            if aad == REPLY_AAD and next(replies) == 4:
                tag = bytes([tag[0] ^ 1]) + tag[1:]
            return sequence, ciphertext, tag

        monkeypatch.setattr(SecureChannel, "send", send)

    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_bad_reply_is_lost_not_fatal(self, monkeypatch, mode):
        """A reply failing verification costs its request (and, with the
        tenant's receive sequence stuck, that tenant's later ones), never
        the report."""
        self._corrupt_fifth_reply_tag(monkeypatch)
        report = run_load(LoadConfig(tenants=2, requests=20, mode=mode,
                                     rate=500.0, seed=7))
        assert report.sent == 20
        assert report.lost >= 1
        assert report.ok + report.busy + report.errors + report.lost == 20
        assert report.mac_verified == report.ok + report.busy + report.errors

    def test_bad_reply_fails_the_cli(self, monkeypatch, capsys):
        self._corrupt_fifth_reply_tag(monkeypatch)
        assert serve_main(["--tenants", "2", "--requests", "20",
                           "--seed", "7"]) == 1
        assert "requests lost" in capsys.readouterr().err

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_load(LoadConfig(tenants=1, requests=1, mode="sideways"))
