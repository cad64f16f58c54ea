"""Figure 13: normalized execution time of DNN inference and training.

All four protection schemes (BP, MGX, MGX_VN, MGX_MAC) on Cloud and
Edge.  Paper reference: BP 1.24× (inference) and 1.32× (training) on
average; MGX 3.2% / 4.7%; MGX_VN 1.08× / 1.12×; MGX_MAC 1.16× / 1.20×.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.sim.runner import SCHEMES, dnn_sweep
from repro.sim.scheduler import SweepSpec

_INFERENCE = ("VGG", "AlexNet", "GoogleNet", "ResNet", "BERT", "DLRM")
_TRAINING = ("VGG", "AlexNet", "GoogleNet", "ResNet", "BERT")
_QUICK = ("AlexNet", "DLRM")
_REPORT_SCHEMES = [s for s in SCHEMES if s != "NP"]


def sweep_specs(quick: bool = False) -> list[SweepSpec]:
    """The (workload × scheme) sweeps this figure needs, as graph nodes.

    Fig. 13 (execution time) sweeps exactly the workload grid of Fig. 12
    (traffic) — one definition, so the two can't silently diverge.
    """
    from repro.experiments.fig12_dnn_traffic import sweep_specs as fig12_specs

    return fig12_specs(quick)


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig13",
        title="Fig. 13 — DNN normalized execution time",
        columns=["workload", "config"] + _REPORT_SCHEMES,
    )
    inference = _QUICK if quick else _INFERENCE
    training = tuple(m for m in _QUICK if m != "DLRM") if quick else _TRAINING

    sums: dict[tuple[str, str], list[float]] = {}
    for training_flag, models, tag in ((False, inference, "Inf"), (True, training, "Train")):
        for config in ("Cloud", "Edge"):
            for model in models:
                sweep = dnn_sweep(model, config, training=training_flag)
                values = {s: sweep.normalized_time(s) for s in _REPORT_SCHEMES}
                result.add_row(workload=f"{model}-{tag}", config=config, **values)
                for scheme, value in values.items():
                    sums.setdefault((tag, scheme), []).append(value)

    for (tag, scheme), values in sums.items():
        result.summary[f"avg_{tag}_{scheme}"] = sum(values) / len(values)
    result.paper.update(
        avg_Inf_BP=1.24, avg_Train_BP=1.32,
        avg_Inf_MGX=1.032, avg_Train_MGX=1.047,
        avg_Inf_MGX_VN=1.08, avg_Train_MGX_VN=1.12,
        avg_Inf_MGX_MAC=1.16, avg_Train_MGX_MAC=1.20,
    )
    return result
