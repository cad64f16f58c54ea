"""Performance model: phases × protection scheme × DRAM → execution time.

Mirrors the paper's performance evaluator (Fig. 11): for each phase the
accelerator either computes or waits for memory, with double buffering
overlapping the two, so phase time = max(compute, memory).  Memory time
prices the protection scheme's expanded traffic on the DRAM model and
accounts for the Enc/IV engine: a pipelined AES/MAC datapath provisioned
at ``crypto_efficiency`` of peak DRAM bandwidth, so protected data pays a
small throughput tax even when its metadata traffic is negligible — the
residual few-percent overhead the paper reports for MGX.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.common.errors import ConfigError
from repro.core.access import AccessBatch, Phase
from repro.core.schemes import NoProtection, ProtectionScheme, ProtectionTraffic
from repro.dram.model import DramModel


@dataclass(frozen=True)
class PerfConfig:
    """Clocking and crypto-engine provisioning of the evaluation."""

    accel_freq_hz: float
    #: Enc/IV engine throughput as a fraction of peak DRAM bandwidth.
    #: 1.0 disables the effect (NP always bypasses the engine).
    crypto_efficiency: float = 0.97

    def __post_init__(self) -> None:
        if self.accel_freq_hz <= 0:
            raise ConfigError("accelerator frequency must be positive")
        if not 0.5 <= self.crypto_efficiency <= 1.0:
            raise ConfigError(
                f"crypto_efficiency must be in [0.5, 1], got {self.crypto_efficiency}"
            )


@dataclass
class PhaseResult:
    """Timing decomposition of one phase (accelerator cycles)."""

    name: str
    compute_cycles: float
    memory_cycles: float

    @property
    def cycles(self) -> float:
        return max(self.compute_cycles, self.memory_cycles)

    @property
    def memory_bound(self) -> bool:
        return self.memory_cycles >= self.compute_cycles


@dataclass
class SimResult:
    """Outcome of running one workload under one protection scheme."""

    scheme: str
    total_cycles: float
    traffic: ProtectionTraffic
    phase_results: list[PhaseResult] = field(default_factory=list)

    @property
    def total_traffic_bytes(self) -> int:
        return self.traffic.total_bytes

    @property
    def memory_bound_fraction(self) -> float:
        if not self.phase_results:
            return 0.0
        bound = sum(1 for p in self.phase_results if p.memory_bound)
        return bound / len(self.phase_results)

    def normalized_to(self, baseline: "SimResult") -> float:
        """Normalized execution time relative to ``baseline`` (usually NP)."""
        if baseline.total_cycles <= 0:
            raise ConfigError("baseline has non-positive cycles")
        return self.total_cycles / baseline.total_cycles

    def traffic_increase_over(self, baseline: "SimResult") -> float:
        if baseline.total_traffic_bytes <= 0:
            raise ConfigError("baseline has no traffic")
        return self.total_traffic_bytes / baseline.total_traffic_bytes


class PerformanceModel:
    """Evaluates a phase list under one scheme on one memory system."""

    def __init__(self, dram: DramModel, perf: PerfConfig) -> None:
        self.dram = dram
        self.perf = perf
        #: accelerator cycles per DRAM-controller cycle
        self._clock_ratio = perf.accel_freq_hz / dram.config.timing.clock_hz

    def _memory_cycles(self, traffic: ProtectionTraffic, protected: bool) -> float:
        """Accelerator-clock cycles for one phase's DRAM traffic."""
        dram_cycles = self.dram.cycles_for(traffic.to_profile())
        cycles = dram_cycles * self._clock_ratio
        if protected and self.perf.crypto_efficiency < 1.0:
            crypto_rate = (
                self.dram.config.sequential_bytes_per_cycle
                * self.perf.crypto_efficiency
            )
            crypto_cycles = traffic.data_bytes / crypto_rate * self._clock_ratio
            cycles = max(cycles, crypto_cycles)
        return cycles

    def run(self, phases: Iterable[Phase], scheme: ProtectionScheme,
            keep_phase_results: bool = False,
            batches: Iterable[AccessBatch] | None = None) -> SimResult:
        """Execute the trace under ``scheme``; returns timing and traffic.

        ``batches`` optionally supplies precomputed structure-of-arrays
        views of the phases (one per phase, same order), letting a sweep
        convert the trace once and share the columns across schemes.

        ``phases`` (and ``batches``) may be any iterables, including
        generators: the whole trace is priced through one
        :meth:`~repro.core.schemes.base.ProtectionScheme.pricing_session`
        (stateful cached schemes stream every phase through their
        reuse-distance engine without reloading LRU state per phase),
        each phase as it arrives and then dropped, so a chunk-iterable
        trace far larger than memory runs in bounded space —
        byte-identical to the list form.
        """
        if (batches is not None and isinstance(phases, list)
                and isinstance(batches, list)
                and len(batches) != len(phases)):
            raise ConfigError(
                f"{len(batches)} batches supplied for {len(phases)} phases"
            )
        scheme.reset()
        protected = not isinstance(scheme, NoProtection)
        total = ProtectionTraffic()
        total_cycles = 0.0
        phase_results: list[PhaseResult] = []
        if batches is None:
            pairs = ((p, AccessBatch.from_phase(p)) for p in phases)
        else:
            pairs = zip(phases, batches)
        with scheme.pricing_session() as session:
            for phase, batch in pairs:
                traffic = session.price(batch)
                memory_cycles = self._memory_cycles(traffic, protected)
                total_cycles += max(phase.compute_cycles, memory_cycles)
                total.merge(traffic)
                if keep_phase_results:
                    phase_results.append(
                        PhaseResult(phase.name, phase.compute_cycles,
                                    memory_cycles)
                    )
        tail = scheme.finish()
        total.merge(tail)
        total_cycles += self._memory_cycles(tail, protected)
        return SimResult(
            scheme=scheme.name,
            total_cycles=total_cycles,
            traffic=total,
            phase_results=phase_results,
        )
