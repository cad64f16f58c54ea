"""Figure 16: GACT (Darwin) normalized execution time per workload.

Nine workloads — chromosomes 1, X, Y × sequencers PacBio, ONT2D, ONT1D —
under BP and MGX_VN (Darwin cannot use coarse MACs, §VII-A).  The tile
load per read is *measured* by running the functional pipeline: D-SOFT
filters candidates over the synthetic reference, and the candidate count
feeds the timing model.

The measurement is the figure's expensive part, so it lives in the
artifact graph: each (chromosome, sequencer) pair is a ``profile``
artifact (:func:`~repro.genome.profile.measure_tile_profile`) that
``--jobs`` queue workers — on this machine or another — compute in
parallel, and that a warm cache restores without touching the pipeline.  The
timing model itself is closed-form and recomputed each run.

Paper reference: BP 14% average (traffic +34%); MGX_VN 4% (traffic
+12.5%).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.genome.darwin import DarwinConfig, simulate_gact_workload
from repro.genome.sequences import CHROMOSOMES, SEQUENCERS
from repro.sim.scheduler import ProfileSpec, gact_profile_spec

_QUICK_WORKLOADS = (("chrY", "PacBio"), ("chrY", "ONT1D"))


def _workloads(quick: bool) -> tuple[tuple[tuple[str, str], ...], int, int]:
    """(workload pairs, aligned reads, functional probe reads) per mode."""
    if quick:
        return _QUICK_WORKLOADS, 50, 2
    workloads = tuple(
        (chromosome, sequencer)
        for chromosome in CHROMOSOMES
        for sequencer in SEQUENCERS
    )
    return workloads, 500, 4


def profile_specs(quick: bool = False) -> list[ProfileSpec]:
    """The functional-pipeline artifacts this figure needs (graph nodes)."""
    workloads, _n_reads, probe_reads = _workloads(quick)
    return [
        gact_profile_spec(chromosome, sequencer, probe_reads)
        for chromosome, sequencer in workloads
    ]


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig16",
        title="Fig. 16 — GACT normalized execution time (BP vs MGX_VN)",
        columns=["workload", "BP", "MGX_VN", "traffic_BP", "traffic_MGX_VN",
                 "tiles_per_read"],
        notes="tiles_per_read factor measured via the functional D-SOFT filter.",
    )
    workloads, n_reads, probe_reads = _workloads(quick)

    bp_values, vn_values = [], []
    for chromosome, sequencer in workloads:
        profile = gact_profile_spec(chromosome, sequencer, probe_reads).fetch()
        factor = profile["tiles_per_read"]
        config = DarwinConfig(tiles_per_read_factor=factor)
        res = simulate_gact_workload(n_reads, sequencer, config,
                                     schemes=("NP", "BP", "MGX_VN"))
        base = res["NP"]
        bp = res["BP"].total_cycles / base.total_cycles
        vn = res["MGX_VN"].total_cycles / base.total_cycles
        result.add_row(
            workload=f"{chromosome}-{sequencer}",
            BP=bp,
            MGX_VN=vn,
            traffic_BP=res["BP"].total_bytes / base.total_bytes,
            traffic_MGX_VN=res["MGX_VN"].total_bytes / base.total_bytes,
            tiles_per_read=factor,
        )
        bp_values.append(bp)
        vn_values.append(vn)

    result.summary["avg_BP"] = sum(bp_values) / len(bp_values)
    result.summary["avg_MGX_VN"] = sum(vn_values) / len(vn_values)
    result.summary["avg_traffic_BP"] = result.mean("traffic_BP")
    result.summary["avg_traffic_MGX_VN"] = result.mean("traffic_MGX_VN")
    result.paper.update(avg_BP=1.14, avg_MGX_VN=1.04,
                        avg_traffic_BP=1.34, avg_traffic_MGX_VN=1.125)
    return result
