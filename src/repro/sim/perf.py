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

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.common.errors import ConfigError
from repro.core.access import AccessBatch, Phase
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


#: Access budget of one pricing chunk: :meth:`PerformanceModel.run`
#: groups contiguous phases into chunks of at most this many accesses (a
#: longer phase is a chunk of its own) and prices each chunk with one
#: ``PricingSession.price`` call.  Every suite trace fits in one chunk,
#: while a generator trace still streams in bounded memory.
CHUNK_ACCESSES = 1024


class PerformanceModel:
    """Evaluates a phase list under one scheme on one memory system."""

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

    def run(self, phases: Iterable[Phase], scheme: ProtectionScheme,
            keep_phase_results: bool = False,
            batches: Iterable[AccessBatch] | None = None) -> SimResult:
        """Execute the trace under ``scheme``; returns timing and traffic.

        ``batches`` optionally supplies precomputed structure-of-arrays
        views of the phases (one per phase, same order), letting a sweep
        convert the trace once and share the columns across schemes.

        ``phases`` (and ``batches``) may be any iterables, including
        generators.  The whole trace is priced through one
        :meth:`~repro.core.schemes.base.ProtectionScheme.pricing_session`,
        one ``price`` call per chunk of contiguous phases
        (:data:`CHUNK_ACCESSES`): stateful cached schemes hand each
        chunk's runs to their reuse-distance engine in one call, without
        reloading LRU state, and every chunk's phases get their memory
        cycles in one vectorized step.  A chunk is dropped once priced,
        so a chunk-iterable trace far larger than memory runs in bounded
        space — byte-identical to the list form.  Phases and batches
        must pair up exactly; a surplus on either side is a
        :class:`ConfigError`.
        """
        scheme.reset()
        protected = not isinstance(scheme, NoProtection)
        total = ProtectionTraffic()
        total_cycles = 0.0
        phase_results: list[PhaseResult] = []
        with scheme.pricing_session() as session:
            for chunk, batch, offsets in _chunks(phases, batches):
                traffic = session.price(batch, offsets)
                memory = self._memory_cycles(traffic, protected)
                compute = np.array([p.compute_cycles for p in chunk],
                                   dtype=np.float64)
                # Summed in phase order, as floats: pairwise summation
                # (``np.sum``) would change the low bits.
                for cycles in np.maximum(compute, memory).tolist():
                    total_cycles += cycles
                total.merge(traffic.total())
                if keep_phase_results:
                    phase_results.extend(
                        PhaseResult(phase.name, phase.compute_cycles, cycles)
                        for phase, cycles in zip(chunk, memory.tolist())
                    )
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


def _chunks(phases: Iterable[Phase], batches: Iterable[AccessBatch] | None,
            ) -> Iterator[tuple[list[Phase], AccessBatch, np.ndarray]]:
    """Contiguous phases grouped up to :data:`CHUNK_ACCESSES` accesses,
    each chunk as (phases, concatenated batch, phase offsets)."""
    if batches is None:
        pairs = ((phase, AccessBatch.from_phase(phase)) for phase in phases)
    else:
        pairs = _strict_pairs(phases, batches)
    chunk: list[Phase] = []
    chunk_batches: list[AccessBatch] = []
    offsets = [0]
    for phase, batch in pairs:
        if chunk and offsets[-1] + len(batch) > CHUNK_ACCESSES:
            yield chunk, AccessBatch.concat(chunk_batches), np.array(offsets)
            chunk, chunk_batches, offsets = [], [], [0]
        chunk.append(phase)
        chunk_batches.append(batch)
        offsets.append(offsets[-1] + len(batch))
    if chunk:
        yield chunk, AccessBatch.concat(chunk_batches), np.array(offsets)


def _strict_pairs(phases: Iterable[Phase], batches: Iterable[AccessBatch],
                  ) -> Iterator[tuple[Phase, AccessBatch]]:
    """``zip(phases, batches)`` that raises unless both run out together."""
    phase_iter, batch_iter = iter(phases), iter(batches)
    paired = 0
    for phase in phase_iter:
        batch = next(batch_iter, None)
        if batch is None:
            n_phases = paired + 1 + sum(1 for _ in phase_iter)
            raise ConfigError(
                f"{paired} batches supplied for {n_phases} phases")
        paired += 1
        yield phase, batch
    surplus = sum(1 for _ in batch_iter)
    if surplus:
        raise ConfigError(
            f"{paired + surplus} batches supplied for {paired} phases")
