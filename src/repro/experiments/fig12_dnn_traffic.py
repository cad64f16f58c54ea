"""Figure 12: DNN memory-traffic increase under BP and MGX.

(a) inference and (b) training, on both the Cloud and Edge machines.
Paper reference: inference BP +36.0% (Cloud) / +36.3% (Edge) with DLRM
at +55%; training BP +37.8% / +42.9%; MGX +2.4% inference (both) and
+2.7% / +3.5% training.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.sim.runner import dnn_sweep
from repro.sim.scheduler import SweepSpec, dnn_spec

_INFERENCE = ("VGG", "AlexNet", "GoogleNet", "ResNet", "BERT", "DLRM")
_TRAINING = ("VGG", "AlexNet", "GoogleNet", "ResNet", "BERT")
_QUICK = ("AlexNet", "DLRM")


def sweep_specs(quick: bool = False) -> list[SweepSpec]:
    """The (workload × scheme) sweeps this figure needs, as graph nodes."""
    inference = _QUICK if quick else _INFERENCE
    training = tuple(m for m in _QUICK if m != "DLRM") if quick else _TRAINING
    return [
        dnn_spec(model, config, training=training_flag)
        for training_flag, models in ((False, inference), (True, training))
        for config in ("Cloud", "Edge")
        for model in models
    ]


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig12",
        title="Fig. 12 — DNN memory traffic increase (normalized to NP)",
        columns=["workload", "config", "BP", "MGX"],
    )
    inference = _QUICK if quick else _INFERENCE
    training = tuple(m for m in _QUICK if m != "DLRM") if quick else _TRAINING

    sums: dict[tuple[str, str, str], list[float]] = {}
    for training_flag, models, tag in ((False, inference, "Inf"), (True, training, "Train")):
        for config in ("Cloud", "Edge"):
            for model in models:
                sweep = dnn_sweep(model, config, training=training_flag)
                bp = sweep.traffic_increase("BP")
                mgx = sweep.traffic_increase("MGX")
                result.add_row(workload=f"{model}-{tag}", config=config, BP=bp, MGX=mgx)
                for scheme, value in (("BP", bp), ("MGX", mgx)):
                    sums.setdefault((tag, config, scheme), []).append(value)

    for (tag, config, scheme), values in sums.items():
        key = f"avg_{tag}_{config}_{scheme}"
        result.summary[key] = sum(values) / len(values)
    result.paper.update(
        avg_Inf_Cloud_BP=1.360, avg_Inf_Edge_BP=1.363,
        avg_Train_Cloud_BP=1.378, avg_Train_Edge_BP=1.429,
        avg_Inf_Cloud_MGX=1.024, avg_Inf_Edge_MGX=1.024,
        avg_Train_Cloud_MGX=1.027, avg_Train_Edge_MGX=1.035,
    )
    return result
