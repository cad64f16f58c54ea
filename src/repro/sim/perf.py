"""Performance model: trace × protection scheme × DRAM → execution time.

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

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigError
from repro.core.access import Trace
from repro.core.schemes import NoProtection, ProtectionScheme, ProtectionTraffic
from repro.core.schemes.base import PhaseTraffic
from repro.dram.model import DramModel


@dataclass(frozen=True)
class PerfConfig:
    """Clocking and crypto-engine provisioning of the evaluation."""

    accel_freq_hz: float
    #: Enc/IV engine throughput as a fraction of peak DRAM bandwidth.
    #: 1.0 disables the effect (NP always bypasses the engine).
    crypto_efficiency: float = 0.97

    def __post_init__(self) -> None:
        if not math.isfinite(self.accel_freq_hz) or self.accel_freq_hz <= 0:
            raise ConfigError("accelerator frequency must be positive and "
                              f"finite, got {self.accel_freq_hz}")
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
    """Evaluates a trace under one scheme on one memory system."""

    def __init__(self, dram: DramModel, perf: PerfConfig) -> None:
        self.dram = dram
        self.perf = perf
        #: accelerator cycles per DRAM-controller cycle
        self._clock_ratio = perf.accel_freq_hz / dram.config.timing.clock_hz

    def _memory_cycles(self, traffic: PhaseTraffic,
                       protected: bool) -> np.ndarray:
        """Accelerator-clock cycles of each phase's DRAM traffic."""
        dram_cycles = self.dram.cycles_for(traffic.to_profile())
        cycles = dram_cycles * self._clock_ratio
        if protected and self.perf.crypto_efficiency < 1.0:
            crypto_rate = (
                self.dram.config.sequential_bytes_per_cycle
                * self.perf.crypto_efficiency
            )
            crypto_cycles = traffic.data_bytes / crypto_rate * self._clock_ratio
            cycles = np.maximum(cycles, crypto_cycles)
        return cycles

    def run(self, trace: Trace, scheme: ProtectionScheme,
            keep_phase_results: bool = False) -> SimResult:
        """Execute the trace under ``scheme``; returns timing and traffic.

        The whole trace is priced with one ``price`` call of one
        :meth:`~repro.core.schemes.base.ProtectionScheme.pricing_session`:
        stateful cached schemes hand all of its runs to their
        reuse-distance engine at once, and every phase gets its memory
        cycles in one vectorized step.  A trace without phases prices
        only the scheme's ``finish()`` tail.
        """
        scheme.reset()
        protected = not isinstance(scheme, NoProtection)
        total = ProtectionTraffic()
        total_cycles = 0.0
        phase_results: list[PhaseResult] = []
        with scheme.pricing_session() as session:
            if trace.names:
                traffic = session.price(trace.batch, trace.offsets)
                memory = self._memory_cycles(traffic, protected)
                compute = np.array(trace.compute_cycles, dtype=np.float64)
                # Summed in phase order, as floats: pairwise summation
                # (``np.sum``) would change the low bits.
                for cycles in np.maximum(compute, memory).tolist():
                    total_cycles += cycles
                total.merge(traffic.total())
                if keep_phase_results:
                    phase_results = [
                        PhaseResult(name, compute_cycles, cycles)
                        for name, compute_cycles, cycles in zip(
                            trace.names, trace.compute_cycles,
                            memory.tolist())
                    ]
        tail = scheme.finish()
        total.merge(tail)
        total_cycles += self._memory_cycles(PhaseTraffic.of(tail),
                                            protected).tolist()[0]
        return SimResult(
            scheme=scheme.name,
            total_cycles=total_cycles,
            traffic=total,
            phase_results=phase_results,
        )
