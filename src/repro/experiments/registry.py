"""Experiment registry: one entry per reproduced table/figure.

Experiments also register artifact-spec providers, which let
:func:`run_all` (and the CLI) hand the whole suite's job graph to the
scheduler at once: sweep-based figures contribute ``sweep_specs``
(trace + per-scheme price + assembled-sweep nodes) and the functional
figures contribute ``profile_specs`` (fig16's measured tile factors,
fig19's per-GOP decode profiles).  With ``jobs >= 2``,
:func:`drain_suite` computes every missing artifact with that many
file-lock queue workers (:mod:`repro.sim.queue`) before the drivers
run — in the attached cache dir, cooperating with any peers sharing it,
or in a temporary one.  The drivers then assemble their tables from the
cache — deterministically, so the output is byte-identical to a serial
run.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator

from repro.experiments import (
    ablations,
    extras,
    fig03_traffic_breakdown,
    fig12_dnn_traffic,
    fig13_dnn_perf,
    fig14_graph,
    fig16_gact,
    fig19_h264_pattern,
    tables,
)
from repro.experiments.base import ExperimentResult
from repro.sim.scheduler import ProfileSpec, SweepSpec

#: experiment id → run(quick=False) callable
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig03": fig03_traffic_breakdown.run,
    "fig12": fig12_dnn_traffic.run,
    "fig13": fig13_dnn_perf.run,
    "fig14": fig14_graph.run,
    "fig16": fig16_gact.run,
    "fig19": fig19_h264_pattern.run,
    "headline": tables.run,
}

#: experiment id → sweep_specs(quick) provider (sweep-based figures,
#: plus the suite sweeps the extras' tables assemble their rows from).
SWEEP_SPECS: dict[str, Callable[[bool], list[SweepSpec]]] = {
    "fig03": fig03_traffic_breakdown.sweep_specs,
    "fig12": fig12_dnn_traffic.sweep_specs,
    "fig13": fig13_dnn_perf.sweep_specs,
    "fig14": fig14_graph.sweep_specs,
    "headline": tables.sweep_specs,
    "ablations": ablations.sweep_specs,
    "extras": extras.sweep_specs,
}

#: experiment id → profile_specs(quick) provider: the functional figures
#: (fig16/fig19 pipelines) and the ablation/extra families, whose whole
#: rendered tables are ``profile`` artifacts in the job graph.
PROFILE_SPECS: dict[str, Callable[[bool], list[ProfileSpec]]] = {
    "fig16": fig16_gact.profile_specs,
    "fig19": fig19_h264_pattern.profile_specs,
    "ablations": ablations.profile_specs,
    "extras": extras.profile_specs,
}

#: The non-figure experiment families (their ids in the spec registries).
FAMILIES = ("ablations", "extras")

#: Every artifact-producing experiment id: the whole suite's graph
#: (``suite_graph(FULL_SUITE, quick)``) is the GC's default mark set.
FULL_SUITE = (*EXPERIMENTS, *FAMILIES)


# ---------------------------------------------------------------------------
# Serving request resolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RequestSpec:
    """One serving request, resolved to its artifact-graph address.

    The serving front-end (:mod:`repro.serve`) accepts requests **by
    registered name** (:data:`SERVE_CATALOG`); resolution turns a name
    (plus, for priced workloads, a protection scheme) into the exact
    artifact the suite's job graph would produce for the same
    configuration.  ``kind`` is ``"result"`` for (workload × scheme)
    pricings — DNN inference, PageRank/BFS — and ``"profile"`` for the
    functional pipelines (genome alignment, video decode); in both
    cases :meth:`artifact_key` is the same content address
    :func:`~repro.sim.scheduler.compute_job` stores under, so the
    server, the offline drains and the warm cache all share artifacts.
    """

    name: str
    kind: str  # "result" | "profile"
    spec: "SweepSpec | ProfileSpec"
    scheme: str | None = None

    def artifact_key(self) -> Hashable:
        """The exact artifact-graph key this request resolves to."""
        if self.kind == "result":
            return self.spec.result_key(self.scheme)
        return self.spec.artifact_key()

    def group_key(self) -> Hashable:
        """The batching group: requests sharing it share one trace.

        Result requests over the same workload trace are *compatible* —
        the server builds the trace once and prices every requested
        scheme against it through ``pricing_session()``.  Profile
        requests never batch (each is one opaque pipeline run).
        """
        if self.kind == "result":
            return self.spec.trace_key()
        return self.artifact_key()

    def build(self) -> object:
        """Compute the artifact value — identical to ``compute_job``'s.

        ``result`` requests price through
        :func:`repro.sim.scheduler._price_spec` (the artifact graph's
        single pricing path, which prices the whole trace with one call
        of the scheme's ``pricing_session()``); ``profile`` requests run
        the registered pipeline entry point.
        """
        if self.kind == "result":
            from repro.sim.scheduler import _price_spec

            return _price_spec(self.spec, self.scheme)
        return self.spec.build_profile()

    def encode(self, value: object) -> str:
        """Serialize an artifact value to the response payload.

        The codec is the disk tier's: deterministic JSON, so a payload
        encoded from a warm cache hit is byte-identical to one encoded
        from a fresh computation — and to the spill an offline
        artifact-graph drain writes for the same key.
        """
        from repro.experiments.storage import dumps_profile, dumps_result

        if self.kind == "result":
            return dumps_result(value)
        return dumps_profile(value)

    def offline_payload(self) -> str:
        """Cache-bypassed recompute + encode, for response verification."""
        return self.encode(self.build())


def _dnn_request(model: str) -> Callable[[str | None], RequestSpec]:
    from repro.sim.scheduler import dnn_spec

    def make(scheme: str | None) -> RequestSpec:
        return RequestSpec(name=f"dnn-{model.lower()}", kind="result",
                           spec=dnn_spec(model, "Cloud", False, 1),
                           scheme=scheme or "MGX")
    return make


def _graph_request(name: str, benchmark: str,
                   algorithm: str) -> Callable[[str | None], RequestSpec]:
    from repro.sim.scheduler import graph_spec

    def make(scheme: str | None) -> RequestSpec:
        return RequestSpec(name=name, kind="result",
                           spec=graph_spec(benchmark, algorithm, iterations=2,
                                           scale_divisor=256),
                           scheme=scheme or "MGX")
    return make


def _gact_request(scheme: str | None) -> RequestSpec:
    from repro.sim.scheduler import gact_profile_spec

    return RequestSpec(name="genome-align", kind="profile",
                       spec=gact_profile_spec("chrY", "PacBio", 2))


def _gop_request(scheme: str | None) -> RequestSpec:
    from repro.sim.scheduler import gop_profile_spec

    return RequestSpec(name="video-decode", kind="profile",
                       spec=gop_profile_spec("IBPB", 8, 8))


#: Registered serving workloads: request name → RequestSpec factory
#: (taking the requested scheme, ``None`` for the default).  The priced
#: workloads use the quick-suite parameters, so a serving deployment
#: sharing a cache dir with a ``--quick`` drain starts warm.
SERVE_CATALOG: dict[str, Callable[[str | None], RequestSpec]] = {
    "dnn-alexnet": _dnn_request("AlexNet"),
    "dnn-dlrm": _dnn_request("DLRM"),
    "pagerank": _graph_request("pagerank", "google-plus", "PR"),
    "bfs": _graph_request("bfs", "ogbl-ppa", "BFS"),
    "genome-align": _gact_request,
    "video-decode": _gop_request,
}


def resolve_request(name: str, scheme: str | None = None) -> RequestSpec:
    """Resolve a serving request name (+ scheme) to its artifact spec.

    Raises ``KeyError`` for unknown names and ``ValueError`` for unknown
    schemes — the server maps both to protocol-level error replies.
    """
    try:
        factory = SERVE_CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown serve request {name!r}; known: {sorted(SERVE_CATALOG)}"
        ) from None
    if scheme is not None:
        from repro.sim.runner import SCHEMES

        if scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; known: {list(SCHEMES)}"
            )
    return factory(scheme)


def suite_specs(experiment_ids,
                quick: bool = False) -> list["SweepSpec | ProfileSpec"]:
    """All artifacts the given experiments need (duplicates included;
    the scheduler deduplicates first-seen)."""
    specs: list = []
    for eid in experiment_ids:
        if eid in SWEEP_SPECS:
            specs.extend(SWEEP_SPECS[eid](quick))
        if eid in PROFILE_SPECS:
            specs.extend(PROFILE_SPECS[eid](quick))
    return specs


def suite_graph(experiment_ids, quick: bool = False):
    """The experiments' full artifact-job graph (for distributed drains).

    Deterministic in ``(experiment_ids, quick)``: every process that
    computes it — on any machine — gets the identical job list, which is
    what lets the file-lock queue coordinate by job id alone.
    """
    from repro.sim.scheduler import build_graph

    return build_graph(suite_specs(experiment_ids, quick))


@contextlib.contextmanager
def drain_suite(experiment_ids, quick: bool, jobs: int) -> Iterator[dict]:
    """Drain the experiments' artifact graph with ``jobs`` queue workers.

    The drain runs in the attached cache dir; without one, or with the
    cache disabled (``--no-cache``), it runs in a temporary directory.
    Inside the ``with`` block that directory stays attached with the
    cache enabled, so the drivers render from the filled cache; on exit
    the previous attachment is restored and a temporary directory is
    removed.  Yields :func:`~repro.sim.queue.run_workers`' summary.
    """
    from repro.sim.queue import run_workers
    from repro.sim.runner import TRACE_CACHE

    saved_dir, saved_enabled = TRACE_CACHE.cache_dir, TRACE_CACHE.enabled
    if saved_dir is not None and saved_enabled:
        where = contextlib.nullcontext(saved_dir)
    else:
        where = tempfile.TemporaryDirectory(prefix="repro-drain-")
    with where as drain_dir:
        TRACE_CACHE.set_cache_dir(drain_dir)
        TRACE_CACHE.enabled = True
        try:
            yield run_workers(suite_graph(experiment_ids, quick), drain_dir,
                              jobs)
        finally:
            TRACE_CACHE.set_cache_dir(saved_dir)
            TRACE_CACHE.enabled = saved_enabled


def run_experiment(experiment_id: str, quick: bool = False) -> ExperimentResult:
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return runner(quick=quick)


def run_all(quick: bool = False, jobs: int = 1) -> dict[str, ExperimentResult]:
    """Run every experiment; ``jobs >= 2`` drains the suite's graph first.

    The drain covers the union of all experiments' artifact specs; the
    drivers then consume cached results in their own deterministic
    order, so the tables match a serial run byte for byte.
    """
    drain = (drain_suite(EXPERIMENTS, quick, jobs) if jobs > 1
             else contextlib.nullcontext())
    with drain:
        return {eid: run_experiment(eid, quick=quick) for eid in EXPERIMENTS}
