"""Beyond-the-figures studies the paper discusses but does not plot.

* ``spmspv`` — §V-B: SpMSpV's random attribute gathers vs SpMV's
  streams: MGX keeps the same VN scheme, only the current-attribute
  vector needs fine-grained MACs, and overhead stays low.
* ``sssp`` — §V-A lists SSSP among the GraphBLAS semirings; same SpMV
  engine, tropical semiring, same protection behaviour.
* ``batch_sweep`` — inference batch size vs protection overhead: larger
  batches amortize weights and shift the compute/memory balance.
* ``dataflow`` — weight-stationary vs output-stationary arrays: the
  protection story is dataflow-independent (same traffic, different
  compute packing).

Every study is also a **table artifact** in the suite's job graph
(:func:`profile_specs` → ``registry.PROFILE_SPECS["extras"]``), and the
ordinary suite sweeps a study consumes (``spmspv``/``sssp``/``batch``)
are registered as its soft dependencies (:func:`sweep_specs`,
:func:`table_dep_specs`): distributed drains price those sweeps as
shared trace/result/sweep nodes first, and the table node then
assembles its rows from the cache.
"""

from __future__ import annotations

from dataclasses import replace

from repro.dnn.accelerator import CLOUD
from repro.dnn.models import build_model
from repro.dnn.systolic import Dataflow
from repro.dnn.tracegen import DnnTraceGenerator
from repro.dram.model import DramModel
from repro.experiments.base import ExperimentResult
from repro.sim.perf import PerfConfig, PerformanceModel
from repro.sim.runner import SCHEMES, dnn_sweep, graph_sweep, sweep_schemes


def _spmspv_params(quick: bool) -> tuple[tuple[str, ...], int]:
    graphs = ("google-plus",) if quick else ("google-plus", "pokec", "ogbl-ppa")
    return graphs, (256 if quick else 64)


def _sssp_params(quick: bool) -> tuple[tuple[str, ...], int]:
    graphs = ("google-plus",) if quick else ("google-plus", "reddit", "ogbl-ppa")
    return graphs, (256 if quick else 64)


def _batch_params(quick: bool) -> tuple[str, tuple[int, ...]]:
    model_name = "AlexNet" if quick else "ResNet"
    batches = (1, 4) if quick else (1, 2, 4, 8, 16)
    return model_name, batches


def spmspv_study(quick: bool = False) -> ExperimentResult:
    """SpMV vs SpMSpV protection overhead on the same graphs."""
    result = ExperimentResult(
        experiment_id="extra-spmspv",
        title="Extra — SpMV vs SpMSpV protection overhead (§V-B)",
        columns=["workload", "BP", "MGX", "traffic_BP", "traffic_MGX"],
    )
    graphs, scale = _spmspv_params(quick)
    for bench in graphs:
        for algo in ("PR", "SpMSpV"):
            sweep = graph_sweep(bench, algo, iterations=2, scale_divisor=scale)
            result.add_row(
                workload=f"{algo}-{bench}",
                BP=sweep.normalized_time("BP"),
                MGX=sweep.normalized_time("MGX"),
                traffic_BP=sweep.traffic_increase("BP"),
                traffic_MGX=sweep.traffic_increase("MGX"),
            )
    mgx = [r["MGX"] for r in result.rows]
    result.summary["max_MGX"] = max(mgx)
    result.notes = (
        "SpMSpV gathers the attribute vector randomly; MGX still avoids "
        "stored VNs entirely and only the gathered vector pays fine MACs."
    )
    return result


def sssp_study(quick: bool = False) -> ExperimentResult:
    """SSSP on the tropical semiring through the same SpMV engine."""
    result = ExperimentResult(
        experiment_id="extra-sssp",
        title="Extra — SSSP under protection (tropical semiring, §V-A)",
        columns=["workload"] + [s for s in SCHEMES if s != "NP"],
    )
    graphs, scale = _sssp_params(quick)
    for bench in graphs:
        sweep = graph_sweep(bench, "SSSP", iterations=4, scale_divisor=scale)
        result.add_row(
            workload=f"SSSP-{bench}",
            **{s: sweep.normalized_time(s) for s in SCHEMES if s != "NP"},
        )
    result.summary["avg_MGX"] = result.mean("MGX")
    return result


def batch_sweep(quick: bool = False, use_cache: bool = True) -> ExperimentResult:
    """Inference batch size vs BP/MGX execution overhead (ResNet, Cloud).

    ``use_cache=False`` regenerates the sweeps (the benchmark's timed
    body uses it so repeated rounds keep measuring computation).
    """
    result = ExperimentResult(
        experiment_id="extra-batch",
        title="Extra — batch size vs protection overhead (ResNet, Cloud)",
        columns=["batch", "BP", "MGX"],
        notes="Weights amortize with batch while feature traffic (with its "
              "costlier write-side metadata) grows in step, so the overhead "
              "ratio is remarkably batch-stable.",
    )
    model_name, batches = _batch_params(quick)
    for batch in batches:
        # The ordinary suite sweep: cached under the dnn-sweep key, so a
        # distributed drain's result nodes (and other figures using the
        # same workload) share the pricing.
        sweep = dnn_sweep(model_name, "Cloud", batch=batch,
                          use_cache=use_cache)
        result.add_row(batch=batch, BP=sweep.normalized_time("BP"),
                       MGX=sweep.normalized_time("MGX"))
    result.summary["BP_batch1"] = result.rows[0]["BP"]
    result.summary["BP_batch_max"] = result.rows[-1]["BP"]
    return result


def dataflow_study(quick: bool = False) -> ExperimentResult:
    """Weight-stationary vs output-stationary arrays under protection."""
    result = ExperimentResult(
        experiment_id="extra-dataflow",
        title="Extra — systolic dataflow vs protection overhead (Cloud)",
        columns=["dataflow", "BP", "MGX"],
        notes="Traffic is dataflow-independent in this model; only the "
              "compute packing (and thus how much overhead compute can "
              "hide) changes.",
    )
    model_name = "AlexNet" if quick else "ResNet"
    for dataflow in (Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY):
        config = replace(CLOUD, array=replace(CLOUD.array, dataflow=dataflow))
        trace = DnnTraceGenerator(build_model(model_name), config).inference()
        perf = PerformanceModel(
            DramModel(config.dram), PerfConfig(accel_freq_hz=config.array.freq_hz)
        )
        sweep = sweep_schemes(dataflow.value, trace.trace, perf,
                              config.protected_bytes)
        result.add_row(dataflow=dataflow.value,
                       BP=sweep.normalized_time("BP"),
                       MGX=sweep.normalized_time("MGX"))
    return result


def storage_study(quick: bool = False) -> ExperimentResult:
    """Metadata DRAM capacity overhead (§III-A); see
    :mod:`repro.experiments.storage`."""
    from repro.experiments.storage import run

    return run(quick=quick)


EXTRAS = {
    "spmspv": spmspv_study,
    "sssp": sssp_study,
    "batch": batch_sweep,
    "dataflow": dataflow_study,
    "storage": storage_study,
}


def table_dep_specs(name: str, quick: bool = False) -> list:
    """The ordinary suite sweeps one study's table assembles its rows
    from (the table artifact's soft dependencies in the job graph)."""
    from repro.sim.scheduler import dnn_spec, graph_spec

    if name == "spmspv":
        graphs, scale = _spmspv_params(quick)
        return [
            graph_spec(bench, algo, iterations=2, scale_divisor=scale)
            for bench in graphs
            for algo in ("PR", "SpMSpV")
        ]
    if name == "sssp":
        graphs, scale = _sssp_params(quick)
        return [
            graph_spec(bench, "SSSP", iterations=4, scale_divisor=scale)
            for bench in graphs
        ]
    if name == "batch":
        model_name, batches = _batch_params(quick)
        return [dnn_spec(model_name, "Cloud", batch=batch)
                for batch in batches]
    # dataflow mutates the accelerator config and storage is closed-form:
    # neither touches the suite cache.
    return []


def sweep_specs(quick: bool = False) -> list:
    """All suite sweeps the extras consume, for drain sharing."""
    return [
        spec for name in EXTRAS for spec in table_dep_specs(name, quick)
    ]


def table_key_params(name: str, quick: bool) -> tuple:
    """The study's parameter content, folded into its artifact key.

    For the sweep-assembling studies this is the tuple of underlying
    sweep keys (already primitive and repr-stable), so any change to
    the graphs, scales, iterations or batches re-keys the cached table;
    ``dataflow``/``storage`` fold in their own quick-dependent inputs.
    """
    if name in ("spmspv", "sssp", "batch"):
        return tuple(s.sweep_key() for s in table_dep_specs(name, quick))
    if name == "dataflow":
        return ("AlexNet" if quick else "ResNet",
                tuple(d.value for d in (Dataflow.WEIGHT_STATIONARY,
                                        Dataflow.OUTPUT_STATIONARY)))
    if name == "storage":
        from repro.common.units import GIB

        return ((1 * GIB) if quick else (16 * GIB),)
    raise KeyError(name)


def profile_specs(quick: bool = False) -> list:
    """One table artifact per extra study (graph entry)."""
    from repro.sim.scheduler import extra_table_spec

    return [extra_table_spec(name, quick) for name in EXTRAS]


def run_extra(name: str, quick: bool = False) -> ExperimentResult:
    """One extra-study table, served through the shared artifact cache
    (see :func:`repro.experiments.ablations.run_ablation`)."""
    from repro.sim.scheduler import extra_table_spec

    if name not in EXTRAS:
        raise KeyError(
            f"unknown extra study {name!r}; known: {sorted(EXTRAS)}"
        )
    return ExperimentResult.from_doc(extra_table_spec(name, quick).fetch())
