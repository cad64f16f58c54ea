"""Headline numbers (abstract / §I / §IX): protection overhead averages.

The paper's one-line claim: MGX lowers memory-protection overhead from
28% to 4% for DNN accelerators and from 33% to 5% for graph accelerators;
per-task MGX overheads are 3.2% (inference), 4.7% (training), 5.1%
(PageRank) and 4.9% (BFS).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.graph.generators import GRAPH_BENCHMARKS
from repro.sim.runner import dnn_sweep, graph_sweep
from repro.sim.scheduler import SweepSpec, dnn_spec, graph_spec

_INFERENCE = ("VGG", "AlexNet", "GoogleNet", "ResNet", "BERT", "DLRM")
_TRAINING = ("VGG", "AlexNet", "GoogleNet", "ResNet", "BERT")
_QUICK_MODELS = ("AlexNet",)
_QUICK_GRAPHS = ("google-plus",)


def sweep_specs(quick: bool = False) -> list[SweepSpec]:
    """The (workload × scheme) sweeps this table needs, as graph nodes."""
    inference = _QUICK_MODELS if quick else _INFERENCE
    training = _QUICK_MODELS if quick else _TRAINING
    graphs = _QUICK_GRAPHS if quick else GRAPH_BENCHMARKS
    scale = 256 if quick else 64
    iterations = 2 if quick else 5
    specs = [
        dnn_spec(model, config)
        for model in inference for config in ("Cloud", "Edge")
    ]
    specs += [
        dnn_spec(model, config, training=True)
        for model in training for config in ("Cloud", "Edge")
    ]
    specs += [
        graph_spec(bench, algo, iterations=iterations, scale_divisor=scale)
        for algo in ("PR", "BFS")
        for bench in graphs
    ]
    return specs


def _avg_overheads(sweeps) -> dict[str, float]:
    bp = [s.overhead_percent("BP") for s in sweeps]
    mgx = [s.overhead_percent("MGX") for s in sweeps]
    return {"BP": sum(bp) / len(bp), "MGX": sum(mgx) / len(mgx)}


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="headline",
        title="Headline — average protection overhead (%), BP vs MGX",
        columns=["task", "BP_pct", "MGX_pct"],
    )
    inference = _QUICK_MODELS if quick else _INFERENCE
    training = _QUICK_MODELS if quick else _TRAINING
    graphs = _QUICK_GRAPHS if quick else GRAPH_BENCHMARKS
    scale = 256 if quick else 64
    iterations = 2 if quick else 5

    tasks = {
        "DNN-Inference": [
            dnn_sweep(m, cfg)
            for m in inference for cfg in ("Cloud", "Edge")
        ],
        "DNN-Training": [
            dnn_sweep(m, cfg, training=True)
            for m in training for cfg in ("Cloud", "Edge")
        ],
        "PageRank": [
            graph_sweep(b, "PR", iterations=iterations, scale_divisor=scale)
            for b in graphs
        ],
        "BFS": [
            graph_sweep(b, "BFS", iterations=iterations, scale_divisor=scale)
            for b in graphs
        ],
    }
    for task, sweeps in tasks.items():
        avg = _avg_overheads(sweeps)
        result.add_row(task=task, BP_pct=avg["BP"], MGX_pct=avg["MGX"])
        result.summary[f"{task}_MGX_pct"] = avg["MGX"]
        result.summary[f"{task}_BP_pct"] = avg["BP"]

    dnn_bp = (result.rows[0]["BP_pct"] + result.rows[1]["BP_pct"]) / 2
    dnn_mgx = (result.rows[0]["MGX_pct"] + result.rows[1]["MGX_pct"]) / 2
    graph_bp = (result.rows[2]["BP_pct"] + result.rows[3]["BP_pct"]) / 2
    graph_mgx = (result.rows[2]["MGX_pct"] + result.rows[3]["MGX_pct"]) / 2
    result.summary.update(
        DNN_BP_avg_pct=dnn_bp, DNN_MGX_avg_pct=dnn_mgx,
        Graph_BP_avg_pct=graph_bp, Graph_MGX_avg_pct=graph_mgx,
    )
    result.paper.update(
        {
            "DNN-Inference_MGX_pct": 3.2,
            "DNN-Training_MGX_pct": 4.7,
            "PageRank_MGX_pct": 5.1,
            "BFS_MGX_pct": 4.9,
            "DNN_BP_avg_pct": 28.0,
            "DNN_MGX_avg_pct": 4.0,
            "Graph_BP_avg_pct": 33.0,
            "Graph_MGX_avg_pct": 5.0,
        }
    )
    return result
