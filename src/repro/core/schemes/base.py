"""Protection-scheme interface, traffic accounting, and shared helpers.

A :class:`ProtectionScheme` consumes the accelerator's block transfers
(:class:`~repro.core.access.MemAccess`) and returns the DRAM traffic each
one really generates: the data itself plus whatever metadata the scheme
needs (MACs, stored version numbers, integrity-tree nodes, cache
writebacks).  The performance model then prices that traffic on the DRAM
model.

Schemes price a stream of :class:`~repro.core.access.AccessBatch`
through one API, :meth:`ProtectionScheme.pricing_session`; the sweep
pipeline, streaming traces and the server all build on it.
Implementations vectorize, but the result must be *exactly* equal —
byte for byte, per traffic category — to processing the batches'
accesses in order with :meth:`ProtectionScheme.process`, the per-access
reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError
from repro.common.stats import StatsGroup
from repro.common.units import CACHE_BLOCK
from repro.core.access import AccessBatch, MemAccess
from repro.dram.model import TrafficProfile

#: Size of one stored MAC or VN entry in bytes (56-bit values in 8-byte
#: slots, as in the Intel MEE configuration the paper baselines against).
ENTRY_BYTES = 8
_ENTRIES_PER_LINE = CACHE_BLOCK // ENTRY_BYTES

#: Gathered bursts at least this large behave like streams on DDR4 (the
#: row-activate cost is amortized across the burst), so they are priced
#: in the sequential bucket of the traffic profile.
_SEQUENTIAL_BURST_THRESHOLD = 256


@dataclass
class ProtectionTraffic:
    """DRAM byte counts produced by protecting some accesses.

    ``data`` is the payload (including any read amplification needed to
    verify a coarse MAC); ``mac``, ``vn`` and ``tree`` are metadata.  Each
    category is split by spatial locality for the DRAM model.
    """

    data_seq: int = 0
    data_scat: int = 0
    mac_seq: int = 0
    mac_scat: int = 0
    vn_seq: int = 0
    vn_scat: int = 0
    tree_seq: int = 0
    tree_scat: int = 0

    def merge(self, other: "ProtectionTraffic") -> None:
        self.data_seq += other.data_seq
        self.data_scat += other.data_scat
        self.mac_seq += other.mac_seq
        self.mac_scat += other.mac_scat
        self.vn_seq += other.vn_seq
        self.vn_scat += other.vn_scat
        self.tree_seq += other.tree_seq
        self.tree_scat += other.tree_scat

    @property
    def data_bytes(self) -> int:
        return self.data_seq + self.data_scat

    @property
    def mac_bytes(self) -> int:
        return self.mac_seq + self.mac_scat

    @property
    def vn_bytes(self) -> int:
        return self.vn_seq + self.vn_scat

    @property
    def tree_bytes(self) -> int:
        return self.tree_seq + self.tree_scat

    @property
    def metadata_bytes(self) -> int:
        return self.mac_bytes + self.vn_bytes + self.tree_bytes

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.metadata_bytes

    @property
    def seq_bytes(self) -> int:
        return self.data_seq + self.mac_seq + self.vn_seq + self.tree_seq

    @property
    def scat_bytes(self) -> int:
        return self.data_scat + self.mac_scat + self.vn_scat + self.tree_scat

    def breakdown(self) -> dict[str, int]:
        """Byte totals per traffic category."""
        return {
            "data": self.data_bytes,
            "mac": self.mac_bytes,
            "vn": self.vn_bytes,
            "tree": self.tree_bytes,
        }

    def overhead_percents(self, baseline_bytes: int) -> dict[str, float]:
        """Per-category traffic as a percentage of ``baseline_bytes``.

        ``data`` counts only the bytes *beyond* the baseline (read
        amplification); ``total`` is the sum of the four categories,
        i.e. the full traffic increase over the baseline.
        """
        if baseline_bytes <= 0:
            raise ConfigError("baseline_bytes must be positive")
        percents = {
            "data": 100.0 * (self.data_bytes - baseline_bytes) / baseline_bytes,
            "mac": 100.0 * self.mac_bytes / baseline_bytes,
            "vn": 100.0 * self.vn_bytes / baseline_bytes,
            "tree": 100.0 * self.tree_bytes / baseline_bytes,
        }
        percents["total"] = sum(percents.values())
        return percents

    def to_profile(self) -> TrafficProfile:
        return TrafficProfile(
            sequential_bytes=self.seq_bytes,
            scattered_bytes=self.scat_bytes,
        )


class ProtectionScheme:
    """Interface of a memory-protection timing engine."""

    name: str = "abstract"

    def process(self, access: MemAccess) -> ProtectionTraffic:
        """Traffic generated by one block transfer (the reference walk)."""
        raise NotImplementedError

    def pricing_session(self) -> "PricingSession":
        """The pricing API: a handle that prices a stream of batches in order.

        ``[session.price(b) for b in batches]`` followed by
        ``session.close()`` equals calling :meth:`process` on every
        access of every batch in order, per batch; callers consume
        chunked traces (generator phases) batch by batch without ever
        holding the whole trace — stateful schemes keep their engine
        state open across the stream instead of reloading it per batch.
        """
        return PricingSession(self)

    def price_batch(self, batch: AccessBatch) -> ProtectionTraffic:
        """Traffic of one batch: a one-batch :meth:`pricing_session`."""
        with self.pricing_session() as session:
            return session.price(batch)

    def _price_batch_stateless(self, batch: AccessBatch) -> ProtectionTraffic:
        """Columnar pricing of a non-empty batch that needs no state
        carried across batches (the base session's hook)."""
        raise NotImplementedError

    def finish(self) -> ProtectionTraffic:
        """End-of-run traffic (dirty metadata writebacks).  Idempotent."""
        return ProtectionTraffic()

    def reset(self) -> None:
        """Discard all internal state (cache contents, stats)."""

    @property
    def onchip_state_bytes(self) -> int:
        """On-chip storage the scheme requires beyond the crypto engines."""
        return 0


class PricingSession:
    """In-order pricing of a batch stream with state held open.

    The base session prices each batch with the scheme's stateless
    columnar hook and closes to a no-op, which is exact for stateless
    schemes.  Stateful schemes return a subclass from
    :meth:`ProtectionScheme.pricing_session` that loads engine state
    once, prices every batch against it, and writes the state (and
    stats) back on :meth:`close` — so a multi-gigabyte trace can stream
    through in bounded memory.  ``close`` is idempotent and, used as a
    context manager, is *not* called when pricing raises: a failed run
    writes no state back.
    """

    def __init__(self, scheme: ProtectionScheme) -> None:
        self._scheme = scheme

    def price(self, batch: AccessBatch) -> ProtectionTraffic:
        if len(batch) == 0:
            # Touch no stats, exactly like walking zero accesses.
            return ProtectionTraffic()
        return self._scheme._price_batch_stateless(batch)

    def close(self) -> None:
        """Write accumulated state back to the scheme.  Idempotent."""

    def __enter__(self) -> "PricingSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


class NoProtection(ProtectionScheme):
    """The unprotected accelerator: data traffic only."""

    name = "NP"

    def __init__(self) -> None:
        self.stats = StatsGroup("np")

    def process(self, access: MemAccess) -> ProtectionTraffic:
        traffic = ProtectionTraffic()
        _add_data(traffic, access, access.size)
        self.stats.add("data_bytes", access.size)
        return traffic

    def _price_batch_stateless(self, batch: AccessBatch) -> ProtectionTraffic:
        stream = stream_mask(batch)
        traffic = ProtectionTraffic(
            data_seq=int(batch.size[stream].sum()),
            data_scat=int(batch.size[~stream].sum()),
        )
        self.stats.add("data_bytes", traffic.data_bytes)
        return traffic

    def reset(self) -> None:
        self.stats.reset()


def stream_mask(batch: AccessBatch) -> np.ndarray:
    """Vectorized :func:`_is_stream` over a batch's columns."""
    burst = np.where(batch.burst_bytes > 0, batch.burst_bytes, CACHE_BLOCK)
    return batch.sequential | (burst >= _SEQUENTIAL_BURST_THRESHOLD)


def _add_data(traffic: ProtectionTraffic, access: MemAccess, nbytes: int) -> None:
    if _is_stream(access):
        traffic.data_seq += nbytes
    else:
        traffic.data_scat += nbytes


def _is_stream(access: MemAccess) -> bool:
    """Whether the access is priced at streaming bandwidth."""
    if access.sequential:
        return True
    return _burst_bytes(access) >= _SEQUENTIAL_BURST_THRESHOLD


def _burst_bytes(access: MemAccess) -> int:
    """Contiguous burst size of a gathered access (the whole access when
    sequential)."""
    if access.sequential:
        return access.size
    return access.burst_bytes or CACHE_BLOCK
