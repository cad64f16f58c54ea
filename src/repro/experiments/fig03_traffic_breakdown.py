"""Figure 3: memory-traffic overhead breakdown of traditional protection.

For every benchmark (DNN inference & training, PageRank, BFS) run the
conventional scheme (BP) and split its metadata traffic into the MAC
component and the VN component (stored VNs + their integrity tree), as
percentages of the unprotected traffic.

Paper reference points: every workload ≥ 23.1%, worst ≥ 49.2%; averages
36.1% (DNN inference), 40.4% (training), 26.3% (PageRank), 25.6% (BFS);
VN overhead exceeds MAC overhead because of the tree.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.graph.generators import GRAPH_BENCHMARKS
from repro.sim.runner import dnn_sweep, graph_sweep
from repro.sim.scheduler import SweepSpec, dnn_spec, graph_spec

_INFERENCE = ("VGG", "AlexNet", "GoogleNet", "ResNet", "BERT", "DLRM")
_TRAINING = ("VGG", "AlexNet", "GoogleNet", "ResNet", "BERT")

_QUICK_INFERENCE = ("AlexNet", "DLRM")
_QUICK_TRAINING = ("AlexNet",)
_QUICK_GRAPHS = ("google-plus", "ogbl-ppa")


def sweep_specs(quick: bool = False) -> list[SweepSpec]:
    """The (workload × scheme) sweeps this figure needs, as graph nodes."""
    inference = _QUICK_INFERENCE if quick else _INFERENCE
    training = _QUICK_TRAINING if quick else _TRAINING
    graphs = _QUICK_GRAPHS if quick else GRAPH_BENCHMARKS
    scale = 256 if quick else 64
    iterations = 2 if quick else 5
    specs = [dnn_spec(model, "Cloud") for model in inference]
    specs += [dnn_spec(model, "Cloud", training=True) for model in training]
    specs += [
        graph_spec(bench, algo, iterations=iterations, scale_divisor=scale)
        for algo in ("PR", "BFS")
        for bench in graphs
    ]
    return specs


def _breakdown(sweep) -> tuple[float, float, float]:
    """(mac %, vn+tree %, total %) of BP over NP data traffic."""
    percents = sweep.results["BP"].traffic.overhead_percents(
        sweep.results["NP"].traffic.total_bytes
    )
    # VN overhead includes the integrity tree protecting the stored VNs;
    # the total also counts read amplification ("data" beyond baseline).
    return percents["mac"], percents["vn"] + percents["tree"], percents["total"]


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig03",
        title="Fig. 3 — Memory traffic overhead of traditional protection (BP)",
        columns=["workload", "mac_pct", "vn_pct", "total_pct"],
        notes="vn_pct includes the integrity-tree traffic protecting stored VNs.",
    )
    inference = _QUICK_INFERENCE if quick else _INFERENCE
    training = _QUICK_TRAINING if quick else _TRAINING
    graphs = _QUICK_GRAPHS if quick else GRAPH_BENCHMARKS
    scale = 256 if quick else 64
    iterations = 2 if quick else 5

    groups: dict[str, list[float]] = {"Inf": [], "Train": [], "PR": [], "BFS": []}
    for model in inference:
        mac, vn, total = _breakdown(dnn_sweep(model, "Cloud"))
        result.add_row(workload=f"{model}-Inf", mac_pct=mac, vn_pct=vn, total_pct=total)
        groups["Inf"].append(total)
    for model in training:
        mac, vn, total = _breakdown(dnn_sweep(model, "Cloud", training=True))
        result.add_row(workload=f"{model}-Train", mac_pct=mac, vn_pct=vn, total_pct=total)
        groups["Train"].append(total)
    for algo in ("PR", "BFS"):
        for bench in graphs:
            mac, vn, total = _breakdown(
                graph_sweep(bench, algo, iterations=iterations, scale_divisor=scale)
            )
            result.add_row(workload=f"{algo}-{bench}", mac_pct=mac, vn_pct=vn,
                           total_pct=total)
            groups[algo].append(total)

    for group, values in groups.items():
        if values:
            result.summary[f"avg_{group}_pct"] = sum(values) / len(values)
    result.paper.update(
        avg_Inf_pct=36.1, avg_Train_pct=40.4, avg_PR_pct=26.3, avg_BFS_pct=25.6
    )
    return result
