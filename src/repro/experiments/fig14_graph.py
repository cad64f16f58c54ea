"""Figure 14: graph accelerator traffic (a) and execution time (b).

PageRank and BFS over the six benchmark graphs under every scheme.
Paper reference: traffic BP +26.3% (PR) / +25.6% (BFS), MGX +1.5% /
+1.4%; execution BP up to 1.42× / 1.39× (avg 32.7% across both), MGX
≤ 5.2% (avg 5.0%), MGX_VN 9.4% avg, MGX_MAC 18.0% avg.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.graph.generators import GRAPH_BENCHMARKS
from repro.sim.runner import SCHEMES, graph_sweep
from repro.sim.scheduler import SweepSpec, graph_spec

_QUICK_GRAPHS = ("google-plus", "ogbl-ppa")
_REPORT_SCHEMES = [s for s in SCHEMES if s != "NP"]


def sweep_specs(quick: bool = False) -> list[SweepSpec]:
    """The (workload × scheme) sweeps this figure needs, as graph nodes."""
    graphs = _QUICK_GRAPHS if quick else GRAPH_BENCHMARKS
    scale = 256 if quick else 64
    iterations = 2 if quick else 5
    return [
        graph_spec(bench, algo, iterations=iterations, scale_divisor=scale)
        for algo in ("PR", "BFS")
        for bench in graphs
    ]


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig14",
        title="Fig. 14 — Graph accelerator: traffic increase and normalized time",
        columns=["workload", "traffic_BP", "traffic_MGX"]
        + [f"time_{s}" for s in _REPORT_SCHEMES],
    )
    graphs = _QUICK_GRAPHS if quick else GRAPH_BENCHMARKS
    scale = 256 if quick else 64
    iterations = 2 if quick else 5

    sums: dict[str, list[float]] = {}
    for algo in ("PR", "BFS"):
        for bench in graphs:
            sweep = graph_sweep(bench, algo, iterations=iterations, scale_divisor=scale)
            row = {
                "workload": f"{algo}-{bench}",
                "traffic_BP": sweep.traffic_increase("BP"),
                "traffic_MGX": sweep.traffic_increase("MGX"),
            }
            for scheme in _REPORT_SCHEMES:
                row[f"time_{scheme}"] = sweep.normalized_time(scheme)
            result.add_row(**row)
            sums.setdefault(f"traffic_{algo}_BP", []).append(row["traffic_BP"])
            sums.setdefault(f"traffic_{algo}_MGX", []).append(row["traffic_MGX"])
            for scheme in _REPORT_SCHEMES:
                sums.setdefault(f"time_{scheme}", []).append(row[f"time_{scheme}"])

    for key, values in sums.items():
        result.summary[f"avg_{key}"] = sum(values) / len(values)
    result.paper.update(
        avg_traffic_PR_BP=1.263, avg_traffic_BFS_BP=1.256,
        avg_traffic_PR_MGX=1.015, avg_traffic_BFS_MGX=1.014,
        avg_time_BP=1.327, avg_time_MGX=1.050,
        avg_time_MGX_VN=1.094, avg_time_MGX_MAC=1.180,
    )
    return result
