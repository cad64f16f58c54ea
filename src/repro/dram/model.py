"""DRAM model facade: configuration, fast streaming path, detailed path.

The experiments process gigabytes of traffic, so the primary interface is
analytical: a :class:`TrafficProfile` (sequential bytes + scattered
block-granularity bytes) is converted into controller cycles using
bandwidth figures derived from the timing parameters.  The derivation is
validated against :class:`~repro.dram.controller.DetailedDram` in the
test-suite (``tests/test_dram.py``), keeping the fast path honest.

Sequential traffic streams rows with bank interleaving, so it achieves
near-peak bandwidth, limited only by refresh and a small row-turnaround
residue.  Scattered 64-byte traffic (random rows) is paced by the
activate constraints: one activate per tRRD and four per tFAW, whichever
binds first, times 64 bytes per activate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import CACHE_BLOCK, ceil_div
from repro.dram.address_map import AddressMap
from repro.dram.controller import DetailedDram, DramRequest
from repro.dram.timing import DDR4_2400, DramTiming


@dataclass
class TrafficProfile:
    """Byte counts of DRAM traffic split by spatial locality.

    ``sequential_bytes`` — large contiguous transfers (tiles, tensors,
    MAC streams riding along with their data).
    ``scattered_bytes`` — isolated block-granularity accesses landing on
    random rows (embedding gathers, metadata cache misses, tree nodes).
    """

    sequential_bytes: int = 0
    scattered_bytes: int = 0

    def add(self, other: "TrafficProfile") -> None:
        self.sequential_bytes += other.sequential_bytes
        self.scattered_bytes += other.scattered_bytes

    def scaled(self, factor: float) -> "TrafficProfile":
        return TrafficProfile(
            sequential_bytes=int(self.sequential_bytes * factor),
            scattered_bytes=int(self.scattered_bytes * factor),
        )

    @property
    def total_bytes(self) -> int:
        return self.sequential_bytes + self.scattered_bytes


@dataclass(frozen=True)
class DramConfig:
    """Geometry + speed grade of the off-chip memory system."""

    timing: DramTiming = DDR4_2400
    channels: int = 4
    ranks: int = 1
    banks: int = 16
    row_bytes: int = 2048
    #: Residual inefficiency of row turnarounds during streaming; measured
    #: against the detailed model (see tests/test_dram.py).
    stream_efficiency: float = 0.97

    def __post_init__(self) -> None:
        for name in ("channels", "ranks", "banks", "row_bytes"):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if not 0.5 <= self.stream_efficiency <= 1.0:
            raise ConfigError(f"stream_efficiency out of range: {self.stream_efficiency}")

    def cache_key(self) -> tuple:
        """Stable primitive tuple identifying this memory system.

        Field names are spelled out (never ``astuple``) so reordering a
        dataclass field cannot silently change artifact keys, and floats
        are encoded with :meth:`float.hex` so keys never depend on float
        ``repr`` formatting.
        """
        t = self.timing
        return (
            t.name, t.clock_hz.hex(), t.cl, t.rcd, t.rp, t.ras, t.wr,
            t.ccd, t.rrd, t.faw, t.rfc, t.refi, t.burst_cycles,
            self.channels, self.ranks, self.banks, self.row_bytes,
            self.stream_efficiency.hex(),
        )

    def address_map(self) -> AddressMap:
        return AddressMap(
            channels=self.channels,
            ranks=self.ranks,
            banks=self.banks,
            row_bytes=self.row_bytes,
        )

    @property
    def peak_bytes_per_cycle(self) -> float:
        """All channels streaming flat out."""
        return self.timing.bytes_per_cycle * self.channels

    @property
    def peak_bandwidth_gbs(self) -> float:
        """Peak bandwidth in GB/s (reporting only)."""
        return self.peak_bytes_per_cycle * self.timing.clock_hz / 1e9

    @property
    def sequential_bytes_per_cycle(self) -> float:
        """Achievable streaming rate after refresh and turnaround derating."""
        return (
            self.peak_bytes_per_cycle
            * self.stream_efficiency
            * self.timing.refresh_efficiency
        )

    @property
    def scattered_bytes_per_cycle(self) -> float:
        """Achievable rate for isolated 64-byte accesses on random rows.

        Each access costs one activate; activates are paced by
        max(tRRD, tFAW/4) per channel, and cannot exceed bus bandwidth.
        """
        timing = self.timing
        activate_interval = max(timing.rrd, timing.faw / 4)
        per_channel = min(
            timing.bytes_per_cycle,
            CACHE_BLOCK / activate_interval,
        )
        return per_channel * self.channels * timing.refresh_efficiency


class DramModel:
    """User-facing DRAM model with fast and detailed evaluation paths."""

    def __init__(self, config: DramConfig | None = None) -> None:
        self.config = config or DramConfig()

    # -- fast path ---------------------------------------------------------
    def cycles_for(self, profile: TrafficProfile) -> float:
        """Controller cycles to move ``profile`` through the memory system.

        Branch-free, so a profile of per-phase NumPy byte columns prices
        every phase in one call; a zero byte count contributes exactly
        0.0, so scalar profiles give the same floats as skipping it.
        """
        config = self.config
        return (profile.sequential_bytes / config.sequential_bytes_per_cycle
                + profile.scattered_bytes / config.scattered_bytes_per_cycle)

    def seconds_for(self, profile: TrafficProfile) -> float:
        return self.cycles_for(profile) / self.config.timing.clock_hz

    # -- detailed path -----------------------------------------------------
    def detailed(self) -> DetailedDram:
        """Fresh detailed simulator sharing this model's geometry."""
        return DetailedDram(self.config.timing, self.config.address_map())

    def detailed_cycles_for_range(
        self, base: int, nbytes: int, is_write: bool = False
    ) -> int:
        """Run the detailed model over one contiguous range (validation aid)."""
        sim = self.detailed()
        requests = [
            DramRequest(address=base + i * CACHE_BLOCK, is_write=is_write)
            for i in range(ceil_div(nbytes, CACHE_BLOCK))
        ]
        return sim.service(requests)
