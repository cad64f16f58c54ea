"""Ablation sweeps over the design choices DESIGN.md calls out.

Four sensitivity studies that the paper motivates but does not plot:

* ``mac_granularity`` — MGX's MAC block size from 64 B to 4 KiB: the
  knee where amortization saturates (and why 512 B is a good default).
* ``cache_size`` — the baseline's metadata cache from 8 KiB to 1 MiB:
  streaming workloads defeat any reasonably sized cache, which is the
  premise of generating VNs instead of caching them.
* ``dram_grade`` — DDR4-2400 vs DDR4-3200: overheads are ratios of
  traffic and barely move with raw bandwidth.
* ``crypto_efficiency`` — Enc/IV engine provisioning vs the residual
  MGX overhead (the paper's ~3-5% floor).

Each study function returns an :class:`ExperimentResult` and is
exercised by ``benchmarks/test_ablation_bench.py``.  The studies are
also **table artifacts** in the suite's content-addressed job graph:
:func:`profile_specs` registers one
:func:`~repro.sim.scheduler.ablation_table_spec` per study (via
``registry.PROFILE_SPECS["ablations"]``), so ``--jobs`` runs compute
them on the file-lock queue's workers, and
:func:`run_ablation` serves every table through the shared cache — a
warm rerun restores all of them without recomputation.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.schemes import (
    MacPolicy,
    CounterModeProtection,
    NoProtection,
    make_baseline,
)
from repro.dnn.accelerator import CLOUD
from repro.dnn.models import build_model
from repro.dnn.tracegen import DnnTraceGenerator
from repro.dram.model import DramConfig, DramModel
from repro.dram.timing import DDR4_2400, DDR4_3200
from repro.experiments.base import ExperimentResult
from repro.sim.perf import PerfConfig, PerformanceModel


#: Sweep points of each study — module constants so the studies and the
#: table-artifact keys (:func:`table_key_params`) can never disagree.
_MAC_GRANULARITIES = (64, 128, 256, 512, 1024, 2048, 4096)
_CACHE_SIZES_FULL = (8, 16, 32, 64, 128, 256, 512, 1024)
_CACHE_SIZES_QUICK = (8, 32, 128)
_CRYPTO_EFFICIENCIES = (1.0, 0.99, 0.97, 0.95, 0.90, 0.80)


def _ablation_model(quick: bool) -> str:
    return "AlexNet" if quick else "ResNet"


def table_key_params(name: str, quick: bool) -> tuple:
    """The study's parameter content, folded into its artifact key.

    Primitive and repr-stable (floats as ``float.hex()``, per the
    README's key rules): changing a study's workload or sweep points
    re-keys its cached table, exactly like the fig16/fig19 profile keys
    embed their pipeline configs.
    """
    model = _ablation_model(quick)
    if name == "mac-granularity":
        return (model, _MAC_GRANULARITIES)
    if name == "cache-size":
        return (model, _CACHE_SIZES_QUICK if quick else _CACHE_SIZES_FULL)
    if name == "dram-grade":
        return (model, tuple(t.name for t in (DDR4_2400, DDR4_3200)))
    if name == "crypto-efficiency":
        return (model, tuple(e.hex() for e in _CRYPTO_EFFICIENCIES))
    raise KeyError(name)


def _trace(model_name: str = "ResNet"):
    return DnnTraceGenerator(build_model(model_name), CLOUD).inference()


def _perf(dram_config: DramConfig | None = None,
          crypto_efficiency: float = 0.97) -> PerformanceModel:
    return PerformanceModel(
        DramModel(dram_config or CLOUD.dram),
        PerfConfig(accel_freq_hz=CLOUD.array.freq_hz,
                   crypto_efficiency=crypto_efficiency),
    )


def mac_granularity_sweep(quick: bool = False) -> ExperimentResult:
    """MGX traffic/time vs MAC granularity (embedding override removed
    so the granularity acts uniformly)."""
    result = ExperimentResult(
        experiment_id="ablation-mac-granularity",
        title="Ablation — MGX MAC granularity sweep (ResNet, Cloud)",
        columns=["granularity", "traffic", "time"],
        notes="512 B captures nearly all of the amortization win; the paper's choice.",
    )
    trace = _trace(_ablation_model(quick))
    perf = _perf()
    baseline = perf.run(trace.phases, NoProtection())
    for granularity in _MAC_GRANULARITIES:
        scheme = CounterModeProtection(
            name=f"MGX-{granularity}",
            vn_onchip=True,
            mac_policy=MacPolicy(default=granularity),
            protected_bytes=CLOUD.protected_bytes,
        )
        run = perf.run(trace.phases, scheme)
        result.add_row(
            granularity=granularity,
            traffic=run.traffic_increase_over(baseline),
            time=run.normalized_to(baseline),
        )
    result.summary["traffic_64"] = result.rows[0]["traffic"]
    result.summary["traffic_512"] = result.rows[3]["traffic"]
    result.summary["traffic_4096"] = result.rows[-1]["traffic"]
    return result


def cache_size_sweep(quick: bool = False) -> ExperimentResult:
    """Baseline traffic vs metadata cache capacity.

    The paper argues (§VI-A) that growing the cache "does not help
    unless it is big enough to capture temporal locality across layers";
    this sweep shows the plateau.
    """
    result = ExperimentResult(
        experiment_id="ablation-cache-size",
        title="Ablation — baseline metadata cache size sweep (ResNet, Cloud)",
        columns=["cache_kib", "traffic", "time"],
    )
    trace = _trace(_ablation_model(quick))
    perf = _perf()
    baseline = perf.run(trace.phases, NoProtection())
    sizes = _CACHE_SIZES_QUICK if quick else _CACHE_SIZES_FULL
    for kib in sizes:
        scheme = make_baseline(CLOUD.protected_bytes, cache_bytes=kib * 1024)
        run = perf.run(trace.phases, scheme)
        result.add_row(
            cache_kib=kib,
            traffic=run.traffic_increase_over(baseline),
            time=run.normalized_to(baseline),
        )
    first, last = result.rows[0]["traffic"], result.rows[-1]["traffic"]
    result.summary["traffic_smallest"] = first
    result.summary["traffic_largest"] = last
    result.summary["improvement_pct"] = 100.0 * (first - last) / (first - 1.0)
    return result


def dram_grade_sweep(quick: bool = False) -> ExperimentResult:
    """Overhead ratios across DDR4 speed grades."""
    result = ExperimentResult(
        experiment_id="ablation-dram-grade",
        title="Ablation — DDR4 speed grade sensitivity (ResNet, Cloud)",
        columns=["grade", "BP_time", "MGX_time"],
        notes="Overheads are traffic ratios; faster DRAM shifts the compute/"
              "memory balance slightly but not the MGX-vs-BP story.",
    )
    trace = _trace(_ablation_model(quick))
    from repro.core.schemes import make_mgx

    for timing in (DDR4_2400, DDR4_3200):
        dram_config = replace(CLOUD.dram, timing=timing)
        perf = _perf(dram_config)
        baseline = perf.run(trace.phases, NoProtection())
        bp = perf.run(trace.phases, make_baseline(CLOUD.protected_bytes))
        mgx = perf.run(trace.phases, make_mgx(CLOUD.protected_bytes))
        result.add_row(
            grade=timing.name,
            BP_time=bp.normalized_to(baseline),
            MGX_time=mgx.normalized_to(baseline),
        )
    return result


def crypto_efficiency_sweep(quick: bool = False) -> ExperimentResult:
    """Residual MGX overhead vs Enc/IV engine provisioning."""
    result = ExperimentResult(
        experiment_id="ablation-crypto",
        title="Ablation — Enc/IV engine throughput vs MGX overhead (ResNet, Cloud)",
        columns=["crypto_efficiency", "MGX_time"],
        notes="The paper's few-percent MGX overheads imply an engine "
              "provisioned slightly below peak DRAM bandwidth.",
    )
    trace = _trace(_ablation_model(quick))
    from repro.core.schemes import make_mgx

    for efficiency in _CRYPTO_EFFICIENCIES:
        perf = _perf(crypto_efficiency=efficiency)
        baseline = perf.run(trace.phases, NoProtection())
        mgx = perf.run(trace.phases, make_mgx(CLOUD.protected_bytes))
        result.add_row(
            crypto_efficiency=efficiency,
            MGX_time=mgx.normalized_to(baseline),
        )
    return result


ABLATIONS = {
    "mac-granularity": mac_granularity_sweep,
    "cache-size": cache_size_sweep,
    "dram-grade": dram_grade_sweep,
    "crypto-efficiency": crypto_efficiency_sweep,
}


def sweep_specs(quick: bool = False) -> list:
    """Suite sweeps the ablations consume: none — their schemes are
    bespoke (granularity/cache/DRAM/crypto variants outside the suite),
    so each study prices inside its own table artifact."""
    return []


def profile_specs(quick: bool = False) -> list:
    """One table artifact per ablation study (graph entry)."""
    from repro.sim.scheduler import ablation_table_spec

    return [ablation_table_spec(name, quick) for name in ABLATIONS]


def run_ablation(name: str, quick: bool = False) -> ExperimentResult:
    """One ablation table, served through the shared artifact cache.

    The table is a ``profile`` artifact of the suite graph: a warm cache
    restores it without rerunning the study, and cold runs serialize
    through the same :meth:`~repro.experiments.base.ExperimentResult.
    to_doc` round-trip the distributed workers use, so every path
    renders byte-identical text.
    """
    from repro.sim.scheduler import ablation_table_spec

    if name not in ABLATIONS:
        raise KeyError(
            f"unknown ablation {name!r}; known: {sorted(ABLATIONS)}"
        )
    return ExperimentResult.from_doc(ablation_table_spec(name, quick).fetch())
