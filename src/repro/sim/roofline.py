"""Roofline analysis: where each workload sits and what protection costs.

For a balanced accelerator (§VI-A), protection overhead surfaces only in
memory-bound phases.  This utility classifies a trace's phases against
the machine's compute roof and bandwidth roof, reporting the
arithmetic-intensity distribution and the fraction of execution exposed
to memory overhead — the quantity that converts Fig. 12's traffic
numbers into Fig. 13's time numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.core.access import Trace
from repro.core.schemes import NoProtection
from repro.dram.model import DramModel
from repro.sim.perf import PerfConfig, PerformanceModel


@dataclass(frozen=True)
class PhaseRoofline:
    """One phase's position against the two roofs."""

    name: str
    compute_cycles: float
    memory_cycles: float
    bytes_moved: int

    @property
    def memory_bound(self) -> bool:
        return self.memory_cycles >= self.compute_cycles

    @property
    def intensity_cycles_per_byte(self) -> float:
        """Compute cycles per DRAM byte — the trace-level analogue of
        arithmetic intensity."""
        return self.compute_cycles / self.bytes_moved if self.bytes_moved else float("inf")


@dataclass
class RooflineReport:
    """Aggregate roofline classification of a trace on a machine."""

    phases: list[PhaseRoofline]

    @property
    def memory_bound_fraction_of_time(self) -> float:
        """Share of execution time spent in memory-bound phases — the
        ceiling on how much protection overhead can show up."""
        total = sum(max(p.compute_cycles, p.memory_cycles) for p in self.phases)
        if total == 0:
            return 0.0
        bound = sum(
            max(p.compute_cycles, p.memory_cycles)
            for p in self.phases
            if p.memory_bound
        )
        return bound / total

    @property
    def memory_bound_phase_count(self) -> int:
        return sum(1 for p in self.phases if p.memory_bound)

    def predicted_overhead(self, traffic_increase: float) -> float:
        """First-order prediction of execution overhead from a traffic
        ratio: memory-bound phases stretch with traffic, compute-bound
        phases absorb it (until they flip)."""
        if traffic_increase < 1.0:
            raise ConfigError("traffic increase must be >= 1.0")
        total = 0.0
        stretched = 0.0
        for p in self.phases:
            base = max(p.compute_cycles, p.memory_cycles)
            total += base
            stretched += max(p.compute_cycles, p.memory_cycles * traffic_increase)
        return stretched / total if total else 1.0


def analyze(trace: Trace, dram: DramModel, accel_freq_hz: float) -> RooflineReport:
    """Classify every phase of a trace (unprotected baseline)."""
    model = PerformanceModel(dram, PerfConfig(accel_freq_hz=accel_freq_hz,
                                              crypto_efficiency=1.0))
    result = model.run(trace, NoProtection(), keep_phase_results=True)
    report_phases = [
        PhaseRoofline(
            name=pr.name,
            compute_cycles=pr.compute_cycles,
            memory_cycles=pr.memory_cycles,
            bytes_moved=nbytes,
        )
        for pr, nbytes in zip(result.phase_results, trace.phase_bytes())
    ]
    return RooflineReport(phases=report_phases)
