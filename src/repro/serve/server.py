"""The asyncio multi-tenant protection server.

One :class:`SecureAcceleratorDevice` serves many tenants concurrently:
each connection runs the real §II handshake (nonce + DH + attested
quote) and gets its own :class:`~repro.host.session.DeviceSession`,
so channel keys, sequence state and protected memory are per-tenant.
Sealed :class:`~repro.serve.protocol.WorkRequest` records arrive on the
connection's inbox, are decrypted strictly in sequence order, and flow
through three serving disciplines before a sealed reply goes back:

* **admission control** — a bounded global pending queue plus a
  per-tenant in-flight cap; overload is answered with an explicit
  ``BUSY`` reply (never silently dropped);
* **single-flight coalescing** — identical in-flight artifact keys
  share one computation (:class:`~repro.sim.scheduler.SingleFlight`),
  and warm :data:`~repro.sim.runner.TRACE_CACHE` hits are served
  without re-pricing;
* **trace-batched pricing** — result requests arriving within the
  batch window that share a workload trace are grouped, the trace is
  materialised once, and every requested scheme is priced against it
  through the scheme's ``pricing_session()`` (the exact
  :func:`~repro.sim.scheduler._price_spec` computation, so payloads
  stay byte-identical to offline artifact-graph pricing).

Pricing runs on a thread pool; the event loop only decrypts, admits,
groups, and seals.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.experiments.registry import RequestSpec, resolve_request
from repro.host.attestation import AttestationQuote, ManufacturerCa
from repro.host.session import DeviceSession, SecureAcceleratorDevice
from repro.serve.protocol import (
    REPLY_AAD,
    REQUEST_AAD,
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_OK,
    WorkReply,
    WorkRequest,
)
from repro.sim.runner import TRACE_CACHE
from repro.sim.scheduler import SingleFlight

#: Firmware the default server device attests to (clients must expect it).
SERVE_FIRMWARE = b"mgx-serve-firmware-v1"


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs: admission limits, pricing pool, batching window."""

    #: Global cap on accepted-but-unfinished requests; beyond it every
    #: arrival is answered ``BUSY``.
    queue_depth: int = 64
    #: Per-tenant cap on in-flight requests (admission isolation: one
    #: aggressive tenant cannot monopolise the queue depth).
    per_tenant_inflight: int = 4
    #: Threads pricing artifacts (the event loop never prices).
    pricing_workers: int = 2
    #: How long a pricing group stays open for compatible requests to
    #: join before it is flushed, in seconds.
    batch_window_s: float = 0.002
    #: Per-tenant protected-memory size (each session allocates its own
    #: backing store of twice this, for data + MAC table).
    protected_bytes: int = 1 << 16


class TenantConnection:
    """Server-side endpoint of one tenant's session.

    ``submit`` and the ``replies`` queue are the in-memory transport:
    the client puts sealed request records in, the server puts sealed
    reply records out (``None`` is the close sentinel).  All sealing
    and unsealing happens with this connection's session keys.
    """

    def __init__(self, tenant_id: int, session: DeviceSession) -> None:
        self.tenant_id = tenant_id
        self.session = session
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.replies: asyncio.Queue = asyncio.Queue()
        self.inflight = 0

    def submit(self, record: tuple[int, bytes, bytes]) -> None:
        """Deliver one sealed client→server record (synchronous, so a
        caller can seal + submit without an intervening await and keep
        the record stream in sequence order)."""
        self.inbox.put_nowait(record)


class _PriceGroup:
    """Result requests sharing one workload trace, awaiting a flush."""

    def __init__(self) -> None:
        #: artifact key → (spec, future of (value, outcome))
        self.entries: dict[Hashable, tuple[RequestSpec, asyncio.Future]] = {}

    def add(
        self,
        key: Hashable,
        rs: RequestSpec,
        loop: asyncio.AbstractEventLoop,
    ) -> tuple[asyncio.Future, bool]:
        entry = self.entries.get(key)
        if entry is not None:
            return entry[1], False
        future = loop.create_future()
        self.entries[key] = (rs, future)
        return future, True


class ProtectionServer:
    """Async multi-tenant front-end over one secure accelerator device."""

    def __init__(
        self,
        ca: ManufacturerCa | None = None,
        device: SecureAcceleratorDevice | None = None,
        config: ServerConfig | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.ca = ca or ManufacturerCa(b"serve-root-secret")
        self.device = device or SecureAcceleratorDevice(
            device_id=b"serve-accel-0",
            firmware=SERVE_FIRMWARE,
            ca=self.ca,
            protected_bytes=self.config.protected_bytes,
        )
        self.flights = SingleFlight()
        self._pool: ThreadPoolExecutor | None = None
        self._pending = 0
        self._connections: list[TenantConnection] = []
        self._readers: list[asyncio.Task] = []
        self._handlers: set[asyncio.Task] = set()
        self._groups: dict[Hashable, _PriceGroup] = {}
        self._ids = 0
        self.stats: dict[str, int] = {
            "tenants": 0,  # sessions opened
            "requests": 0,  # sealed requests decrypted
            "ok": 0,
            "busy": 0,  # admission rejections (answered, not lost)
            "errors": 0,
            "bad_records": 0,  # records that failed channel verification
            "computed": 0,  # artifacts priced/built fresh
            "warm_hits": 0,  # served from the artifact cache, no pricing
            "coalesced": 0,  # shared an identical in-flight computation
            "batched_groups": 0,  # flushed groups holding >= 2 requests
            "batched_requests": 0,  # requests priced through those groups
        }

    # -- lifecycle ---------------------------------------------------------
    async def __aenter__(self) -> "ProtectionServer":
        self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    def start(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.pricing_workers,
                thread_name_prefix="serve-pricing",
            )

    async def stop(self) -> None:
        """Close every connection and drain in-flight work."""
        for conn in self._connections:
            conn.inbox.put_nowait(None)
        if self._readers:
            await asyncio.gather(*self._readers, return_exceptions=True)
            self._readers.clear()
        while self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)
        for conn in self._connections:
            conn.replies.put_nowait(None)
        self._connections.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- handshake ---------------------------------------------------------
    def open_session(
        self,
        user_nonce: bytes,
        user_dh_public: int,
        kernel_hash: bytes,
    ) -> tuple[int, AttestationQuote, TenantConnection]:
        """§II handshake for one new tenant; starts its record reader.

        Raises :class:`~repro.common.errors.ReplayError` if the nonce
        was ever used on this device — before any keys are derived.
        """
        if self._pool is None:
            self.start()
        public, quote, session = self.device.open_session(
            user_nonce, user_dh_public, kernel_hash
        )
        conn = TenantConnection(self._ids, session)
        self._ids += 1
        self.stats["tenants"] += 1
        self._connections.append(conn)
        self._readers.append(asyncio.ensure_future(self._serve_connection(conn)))
        return public, quote, conn

    # -- per-connection record loop ----------------------------------------
    async def _serve_connection(self, conn: TenantConnection) -> None:
        """Decrypt this tenant's records strictly in sequence order."""
        while True:
            record = await conn.inbox.get()
            if record is None:
                break
            try:
                payload = conn.session.receive(record, aad=REQUEST_AAD)
                request = WorkRequest.decode(payload)
            except Exception:
                # Forged/replayed/malformed record: the channel refused
                # it (its own state is untouched) or the body didn't
                # parse; count and keep serving.
                self.stats["bad_records"] += 1
                continue
            self.stats["requests"] += 1
            if (
                self._pending >= self.config.queue_depth
                or conn.inflight >= self.config.per_tenant_inflight
            ):
                self.stats["busy"] += 1
                self._send_reply(conn, WorkReply(request.request_id, STATUS_BUSY))
                continue
            self._pending += 1
            conn.inflight += 1
            task = asyncio.ensure_future(self._handle(conn, request))
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)

    async def _handle(self, conn: TenantConnection, request: WorkRequest) -> None:
        try:
            reply = await self._process(request)
        except Exception as exc:  # never lose a request to an exception
            self.stats["errors"] += 1
            reply = WorkReply(
                request.request_id,
                STATUS_ERROR,
                detail=f"{type(exc).__name__}: {exc}",
            )
        finally:
            self._pending -= 1
            conn.inflight -= 1
        self._send_reply(conn, reply)

    def _send_reply(self, conn: TenantConnection, reply: WorkReply) -> None:
        # Seal + enqueue without an intervening await, mirroring the
        # client: sequence numbers are assigned at seal time and the
        # tenant decrypts in arrival order.
        record = conn.session.send(reply.encode(), aad=REPLY_AAD)
        conn.replies.put_nowait(record)

    # -- request processing ------------------------------------------------
    async def _process(self, request: WorkRequest) -> WorkReply:
        try:
            rs = resolve_request(request.name, request.scheme)
        except (KeyError, ValueError) as exc:
            self.stats["errors"] += 1
            return WorkReply(request.request_id, STATUS_ERROR, detail=str(exc))
        if rs.kind == "result":
            value, outcome = await self._serve_priced(rs)
        else:
            value, outcome = await self._serve_profile(rs)
        self.stats[outcome] += 1
        self.stats["ok"] += 1
        return WorkReply(
            request.request_id, STATUS_OK, kind=rs.kind, payload=rs.encode(value)
        )

    async def _serve_profile(self, rs: RequestSpec) -> tuple[object, str]:
        """Profile artifacts: single-flight around the artifact cache."""
        key = rs.artifact_key()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, self._fetch_sync, key, rs.build)

    async def _serve_priced(self, rs: RequestSpec) -> tuple[object, str]:
        """Result artifacts: batch compatible requests over one trace.

        Requests whose specs share a trace key and arrive within the
        batch window join one :class:`_PriceGroup`; duplicates of the
        same artifact key within the group coalesce onto one future.
        """
        loop = asyncio.get_running_loop()
        gkey = rs.group_key()
        group = self._groups.get(gkey)
        if group is None:
            group = _PriceGroup()
            self._groups[gkey] = group
            task = asyncio.ensure_future(self._flush_group(gkey, group))
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        future, first = group.add(rs.artifact_key(), rs, loop)
        value, outcome = await future
        if not first:
            return value, "coalesced"
        return value, outcome

    async def _flush_group(self, gkey: Hashable, group: _PriceGroup) -> None:
        await asyncio.sleep(self.config.batch_window_s)
        self._groups.pop(gkey, None)
        entries = list(group.entries.items())
        if len(entries) >= 2:
            self.stats["batched_groups"] += 1
            self.stats["batched_requests"] += len(entries)
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._pool, self._price_entries, entries
            )
        except Exception as exc:
            for _key, (_rs, future) in entries:
                if not future.done():
                    future.set_exception(exc)
            return
        for key, (_rs, future) in entries:
            if not future.done():
                future.set_result(results[key])

    def _price_entries(self, entries) -> dict[Hashable, tuple[object, str]]:
        """Price one group's unique artifacts (executor thread).

        The group shares one workload: the trace is materialised once
        (``build_workload`` itself goes through the artifact cache) and
        each requested scheme is priced against it through the scheme's
        ``pricing_session()`` — exactly what ``_price_spec`` computes,
        so the stored value and the sealed payload match offline pricing
        byte for byte.
        """
        from repro.core.schemes import scheme_suite

        workload_box: list = []
        out: dict[Hashable, tuple[object, str]] = {}
        for key, (rs, _future) in entries:

            def price(rs: RequestSpec = rs) -> object:
                if not workload_box:
                    workload_box.append(rs.spec.build_workload())
                workload = workload_box[0]
                scheme = scheme_suite(workload.protected_bytes)[rs.scheme]
                model = workload.performance_model()
                return model.run(
                    workload.trace.phases, scheme, batches=workload.trace.batches
                )

            out[key] = self._fetch_sync(key, price)
        return out

    def _fetch_sync(
        self, key: Hashable, builder: Callable[[], object]
    ) -> tuple[object, str]:
        """Single-flight + artifact-cache fetch (executor thread).

        Returns ``(value, outcome)`` where outcome is ``"coalesced"``
        (waited on an identical in-flight computation), ``"warm_hits"``
        (cache served it without building) or ``"computed"``.
        """
        future, leader = self.flights.begin(key)
        if not leader:
            return future.result(), "coalesced"
        try:
            misses_before = TRACE_CACHE.misses
            value = TRACE_CACHE.get_or_build(key, builder)
            outcome = "warm_hits" if TRACE_CACHE.misses == misses_before else "computed"
        except BaseException as exc:
            self.flights.finish(key, future, error=exc)
            raise
        self.flights.finish(key, future, result=value)
        return value, outcome
