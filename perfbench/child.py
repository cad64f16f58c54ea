"""One benchmark pass in a fresh process.

``run.py`` starts this script once per pass with a scrubbed environment
and reads back a small JSON record (timestamps on the system-wide
monotonic clock, checks, and — when traced — per-layer span totals).
The program's own output goes to stdout unchanged.

    python child.py prep    OUT              # warm imports / native build
    python child.py suite   OUT [--trace] -- EXPERIMENT-CLI-ARGS...
    python child.py serve   OUT [--trace] --seed N --requests N --tenants N
    python child.py offline OUT              # offline payload digests
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: A reply later than this counts as lost (a pass normally answers every
#: request within a fraction of a second).
REQUEST_TIMEOUT_S = 10.0


def _start_tracer(trace: bool):
    if not trace:
        return None
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def _cache_stats() -> dict:
    """The artifact cache's counters, when its disk tier is attached (the
    cache layer the benchmark measures; in-memory reuse while serving is
    counted by the server's own stats)."""
    from repro.sim.runner import TRACE_CACHE

    keys = ("hits", "disk_hits", "misses")
    if TRACE_CACHE.cache_dir is None:
        return dict.fromkeys(keys, 0)
    stats = TRACE_CACHE.stats()
    return {k: stats[k] for k in keys}


def prep(record: dict) -> int:
    """Import every module a pass touches (writes bytecode caches) and
    build the native engine into ``REPRO_NATIVE_CACHE`` when requested."""
    import repro.experiments.__main__  # noqa: F401
    import repro.serve.loadgen  # noqa: F401
    import tracer  # noqa: F401
    from repro.core.engine_backend import active_backend, native_error

    record["backend"] = active_backend()
    record["native_error"] = native_error()
    return 0


def suite(record: dict, trace: bool, cli_args: list[str]) -> int:
    start = time.perf_counter()
    import repro.experiments.__main__ as cli

    record["import_s"] = time.perf_counter() - start
    tracer = _start_tracer(trace)
    done: list[tuple[str, float]] = []

    def timed(runner):
        def run(name, *args, **kwargs):
            if "setup_mark" not in record:
                record["setup_mark"] = time.monotonic()
            result = runner(name, *args, **kwargs)
            done.append((name, time.monotonic()))
            return result
        return run

    # Entry points of one table each, looked up by ``main`` at call time.
    for attr in ("run_experiment", "run_ablation", "run_extra"):
        setattr(cli, attr, timed(getattr(cli, attr)))
    status = cli.main(cli_args)
    sys.stdout.flush()

    from repro.core.engine_backend import active_backend

    record["backend"] = active_backend()
    record["done_marks"] = [mark for _, mark in done]
    record["cache"] = _cache_stats()
    if tracer is not None:
        record["trace"] = tracer.to_doc()
    return status


def _schedule(seed: int, requests: int, mix) -> list[tuple[str, str | None]]:
    """Every mix entry equally often, in a seeded order: seeds change the
    interleaving, not the amount of work."""
    import random

    per_entry = -(-requests // len(mix))
    schedule = list(mix) * per_entry
    random.Random(seed).shuffle(schedule)
    return schedule[:requests]


def serve(record: dict, trace: bool, seed: int, requests: int,
          tenants: int) -> int:
    import asyncio
    import hashlib

    start = time.perf_counter()
    from repro.host.attestation import ManufacturerCa
    from repro.serve.loadgen import DEFAULT_MIX, SERVE_KERNEL
    from repro.serve.protocol import STATUS_BUSY, STATUS_OK, TenantClient
    from repro.serve.server import SERVE_FIRMWARE, ProtectionServer

    record["import_s"] = time.perf_counter() - start
    tracer = _start_tracer(trace)
    schedule = _schedule(seed, requests, DEFAULT_MIX)

    async def drive() -> None:
        ca = ManufacturerCa(b"serve-root-secret")
        server = ProtectionServer(ca=ca)
        latencies: list[float] = []
        statuses: dict[str, int] = {}
        digests: dict[str, list[str]] = {}
        errors: list[str] = []
        lost = [0]
        ok_counts: dict[str, int] = {}
        async with server:
            clients = [
                TenantClient(ca, expected_firmware=SERVE_FIRMWARE,
                             kernel=SERVE_KERNEL,
                             nonce=f"tenant-{i:04d}-{seed}".encode())
                for i in range(tenants)
            ]
            for client in clients:
                await client.connect(server)
            record["setup_mark"] = time.monotonic()

            async def tenant_loop(tenant: int) -> None:
                # Closed loop: one request in flight per tenant.
                for name, scheme in schedule[tenant::tenants]:
                    sent = time.perf_counter()
                    try:
                        reply = await asyncio.wait_for(
                            clients[tenant].request(name, scheme),
                            REQUEST_TIMEOUT_S)
                    except asyncio.TimeoutError:
                        lost[0] += 1
                        continue
                    except Exception as exc:  # counted as failed
                        errors.append(f"{type(exc).__name__}: {exc}")
                        continue
                    elapsed_ms = (time.perf_counter() - sent) * 1e3
                    statuses[reply.status] = statuses.get(reply.status, 0) + 1
                    if reply.status != STATUS_OK:
                        continue
                    latencies.append(elapsed_ms)
                    label = f"{name}:{scheme or 'default'}"
                    ok_counts[label] = ok_counts.get(label, 0) + 1
                    digest = hashlib.sha256(
                        (reply.payload or "").encode()).hexdigest()
                    seen = digests.setdefault(label, [])
                    if digest not in seen:
                        seen.append(digest)

            load_start = time.perf_counter()
            await asyncio.gather(*(tenant_loop(t) for t in range(tenants)))
            record["load_s"] = time.perf_counter() - load_start
            for client in clients:
                await client.close()
        record["latencies_ms"] = latencies
        record["answered"] = sum(statuses.values())
        record["ok"] = statuses.get(STATUS_OK, 0)
        record["busy"] = statuses.get(STATUS_BUSY, 0)
        record["exceptions"] = errors
        record["lost"] = lost[0]
        record["mac_verified"] = sum(c.mac_verified for c in clients)
        record["payload_digests"] = digests
        record["ok_by_label"] = ok_counts
        record["server_stats"] = dict(server.stats)

    asyncio.run(drive())
    from repro.core.engine_backend import active_backend

    record["sent"] = len(schedule)
    record["backend"] = active_backend()
    record["cache"] = _cache_stats()
    if tracer is not None:
        record["trace"] = tracer.to_doc()
    return 0


def offline(record: dict) -> int:
    """sha256 of ``RequestSpec.offline_payload()`` for each mix entry."""
    import hashlib

    from repro.experiments.registry import resolve_request
    from repro.serve.loadgen import DEFAULT_MIX

    record["payload_digests"] = {
        f"{name}:{scheme or 'default'}": hashlib.sha256(
            resolve_request(name, scheme).offline_payload().encode()
        ).hexdigest()
        for name, scheme in DEFAULT_MIX
    }
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("prep", "suite", "serve", "offline"))
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=0)
    parser.add_argument("--tenants", type=int, default=1)
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)

    record: dict = {}
    if args.mode == "prep":
        status = prep(record)
    elif args.mode == "suite":
        status = suite(record, args.trace, args.cli_args)
    elif args.mode == "serve":
        status = serve(record, args.trace, args.seed, args.requests,
                       args.tenants)
    else:
        status = offline(record)
    with open(args.out, "w") as f:
        json.dump(record, f)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
