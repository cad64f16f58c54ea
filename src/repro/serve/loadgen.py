"""Closed- and open-loop load generation against the serving front-end.

Spins up a :class:`~repro.serve.server.ProtectionServer`, connects
``tenants`` real attested clients, and drives a deterministic request
mix (seeded RNG over the registered catalog):

* **closed loop** — every tenant keeps exactly one request in flight,
  issuing its next the moment a reply arrives; measures sustained
  throughput at fixed concurrency;
* **open loop** — requests arrive on a fixed-rate schedule regardless
  of completions; measures tail latency under offered load (and drives
  the server into admission-control ``BUSY`` territory when the rate
  outruns it).

The report carries everything the CI smoke gate asserts: nothing lost
(every request answered ``ok``/``busy``/``error``), every reply
MAC-verified under its tenant's key, and identical (name, scheme)
requests answered with byte-identical payloads.  A reply that fails
verification (:class:`~repro.common.errors.IntegrityError`, or its
:class:`~repro.common.errors.ReplayError` subclass) leaves its request
unanswered, so it counts in ``lost``; after one, that tenant's channel
refuses every later record, whose requests are lost too.  The bench suite
(``benchmarks/test_serve_bench.py``) re-exports the same numbers as
``serve_`` entries for ``bench_trend.py``.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field

from repro.common.errors import IntegrityError
from repro.host.attestation import ManufacturerCa
from repro.serve.protocol import (
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_OK,
    TenantClient,
    WorkReply,
)
from repro.serve.server import SERVE_FIRMWARE, ProtectionServer, ServerConfig

#: Default request mix (name, scheme); ``None`` scheme = catalog default.
DEFAULT_MIX: tuple[tuple[str, str | None], ...] = (
    ("dnn-alexnet", "MGX"),
    ("dnn-alexnet", "NP"),
    ("dnn-dlrm", "MGX"),
    ("pagerank", "MGX"),
    ("bfs", "MGX"),
    ("genome-align", None),
    ("video-decode", None),
)

SERVE_KERNEL = b"mgx-serve-kernel-v1"


@dataclass(frozen=True)
class LoadConfig:
    """One load-generation run."""

    tenants: int = 16
    requests: int = 200  # total requests across all tenants
    mix: tuple[tuple[str, str | None], ...] = DEFAULT_MIX
    mode: str = "closed"  # "closed" | "open"
    rate: float = 200.0  # open-loop arrivals per second
    seed: int = 1234
    server: ServerConfig = field(default_factory=ServerConfig)


@dataclass
class LoadReport:
    """What a run measured (plus the server's own counters)."""

    mode: str
    tenants: int
    sent: int
    ok: int
    busy: int
    errors: int
    lost: int  # sent - answered; the smoke gate pins this at 0
    mac_verified: int  # replies whose GCM tag verified client-side
    payload_mismatches: int  # same (name, scheme) answered differently
    duration_s: float
    throughput_rps: float  # answered requests per second, sustained
    latency_ms: dict[str, float]  # p50 / p95 / p99 over ok replies
    per_kind: dict[str, int]
    server_stats: dict[str, int]
    payloads: dict[str, str] = field(default_factory=dict, repr=False)

    def to_doc(self) -> dict:
        """JSON-ready summary (payloads elided; they can be megabytes)."""
        return {
            "mode": self.mode,
            "tenants": self.tenants,
            "sent": self.sent,
            "ok": self.ok,
            "busy": self.busy,
            "errors": self.errors,
            "lost": self.lost,
            "mac_verified": self.mac_verified,
            "payload_mismatches": self.payload_mismatches,
            "duration_s": round(self.duration_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "latency_ms": {k: round(v, 3) for k, v in self.latency_ms.items()},
            "per_kind": self.per_kind,
            "server_stats": self.server_stats,
        }


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def _request_schedule(config: LoadConfig) -> list[tuple[int, str, str | None]]:
    """Deterministic (tenant, name, scheme) sequence for the run."""
    rng = random.Random(config.seed)
    schedule = []
    for i in range(config.requests):
        name, scheme = config.mix[rng.randrange(len(config.mix))]
        schedule.append((i % config.tenants, name, scheme))
    return schedule


async def _run_async(config: LoadConfig) -> LoadReport:
    ca = ManufacturerCa(b"serve-root-secret")
    server = ProtectionServer(ca=ca, config=config.server)
    replies: list[tuple[str, str | None, WorkReply]] = []
    latencies: list[float] = []

    async with server:
        clients = [
            TenantClient(
                ca,
                expected_firmware=SERVE_FIRMWARE,
                kernel=SERVE_KERNEL,
                nonce=f"tenant-{i:04d}-{config.seed}".encode(),
            )
            for i in range(config.tenants)
        ]
        for client in clients:
            await client.connect(server)
        schedule = _request_schedule(config)

        async def issue(tenant: int, name: str, scheme: str | None) -> None:
            started = time.perf_counter()
            try:
                reply = await clients[tenant].request(name, scheme)
            except IntegrityError:  # failed verification: counts as lost
                return
            if reply.status == STATUS_OK:
                latencies.append((time.perf_counter() - started) * 1e3)
            replies.append((name, scheme, reply))

        started = time.perf_counter()
        if config.mode == "closed":
            # One request in flight per tenant: each tenant walks its
            # slice of the schedule sequentially.
            per_tenant: dict[int, list[tuple[str, str | None]]] = {}
            for tenant, name, scheme in schedule:
                per_tenant.setdefault(tenant, []).append((name, scheme))

            async def drive(tenant: int) -> None:
                for name, scheme in per_tenant.get(tenant, []):
                    await issue(tenant, name, scheme)

            await asyncio.gather(*(drive(t) for t in range(config.tenants)))
        elif config.mode == "open":
            # Fixed-rate arrivals, issued regardless of completions.
            interval = 1.0 / config.rate if config.rate > 0 else 0.0
            tasks = []
            for i, (tenant, name, scheme) in enumerate(schedule):
                target = started + i * interval
                delay = target - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.ensure_future(issue(tenant, name, scheme)))
            await asyncio.gather(*tasks)
        else:
            raise ValueError(f"unknown load mode {config.mode!r}")
        duration = time.perf_counter() - started

        for client in clients:
            await client.close()

    ok = sum(1 for _, _, r in replies if r.status == STATUS_OK)
    busy = sum(1 for _, _, r in replies if r.status == STATUS_BUSY)
    errors = sum(1 for _, _, r in replies if r.status == STATUS_ERROR)
    per_kind: dict[str, int] = {}
    payloads: dict[str, str] = {}
    mismatches = 0
    for name, scheme, reply in replies:
        per_kind[name] = per_kind.get(name, 0) + 1
        if reply.status != STATUS_OK:
            continue
        label = f"{name}:{scheme or 'default'}"
        first = payloads.setdefault(label, reply.payload or "")
        if first != (reply.payload or ""):
            mismatches += 1
    return LoadReport(
        mode=config.mode,
        tenants=config.tenants,
        sent=len(schedule),
        ok=ok,
        busy=busy,
        errors=errors,
        lost=len(schedule) - (ok + busy + errors),
        mac_verified=sum(c.mac_verified for c in clients),
        payload_mismatches=mismatches,
        duration_s=duration,
        throughput_rps=(ok + busy + errors) / duration if duration > 0 else 0.0,
        latency_ms={
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "p99": _percentile(latencies, 0.99),
        },
        per_kind=dict(sorted(per_kind.items())),
        server_stats=dict(server.stats),
        payloads=payloads,
    )


def run_load(config: LoadConfig) -> LoadReport:
    """Run one load-generation pass (its own event loop)."""
    return asyncio.run(_run_async(config))
