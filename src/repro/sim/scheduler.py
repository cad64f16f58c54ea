"""Artifact-graph scheduler: the suite's content-addressed job graph.

The whole evaluation — timing sweeps *and* functionally-verified crypto
pipelines — is modelled as one **artifact graph**.  A job is
``(kind, content key, dependencies)`` and produces a codec-serialized
artifact in the shared cache (:data:`~repro.sim.runner.TRACE_CACHE`,
whose disk tier is the cross-process / cross-machine substrate):

* ``trace`` — a workload's generated trace, spilled through the trace
  cache so every consumer can reach it without re-shipping it;
* ``result`` — one (workload × scheme) pricing, depending on its trace;
* ``sweep`` — the assembled five-scheme sweep under the exact cache key
  the serial drivers use, depending on its five results;
* ``profile`` — a functional-pipeline or table artifact: fig16's
  measured per-(chromosome, sequencer) D-SOFT tile factors, fig19's
  per-GOP decode/traffic profiles (see :mod:`repro.genome.profile` and
  :mod:`repro.video.profile`), and the ablation/extra families' whole
  rendered tables (``ExperimentResult.to_doc()`` docs; a table node
  soft-depends on the suite sweeps it assembles its rows from).

:func:`compute_job` is the single execution path, and a job is done
when its artifact exists on the disk tier
(:meth:`~repro.sim.runner.TraceCache.has_spill`).  The file-lock queue
(:mod:`repro.sim.queue`) is the only parallel executor:
``python -m repro.experiments --jobs N`` and ``run_all(jobs=N)`` drain
the selection's graph with N local queue workers, and the drivers then
render their tables from the cache — byte-identical to a serial run.
Serially, :meth:`SweepSpec.fetch` and :meth:`ProfileSpec.fetch` are the
drivers' entry points for one artifact each.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.perf import SimResult
    from repro.sim.runner import SchemeSweep, Workload

# ---------------------------------------------------------------------------
# Single-flight coalescing
# ---------------------------------------------------------------------------

class SingleFlight:
    """Coalesce concurrent computations of one artifact key.

    The serving front-end (:mod:`repro.serve`) receives many identical
    requests at once — N tenants asking for the same ``ArtifactJob`` key.
    Computing the artifact N times is wasted work (the results are
    byte-identical), so the first caller of :meth:`run` for a key becomes
    the **leader** and actually computes; every concurrent caller with
    the same key becomes a **follower** and waits on the leader's future
    instead.  Once the leader finishes, the key leaves the in-flight
    table — a later call computes afresh (the artifact cache, not this
    table, is the memoization layer).

    Thread-safe: leaders may run on executor threads while followers
    wait from others.  A leader's exception propagates to every waiter
    of that flight and is not sticky.  ``leaders``/``followers`` count
    flights for observability (the serve stats and the coalescing tests
    pin against them).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, Future] = {}
        self.leaders = 0
        self.followers = 0

    def begin(self, key: Hashable) -> tuple[Future, bool]:
        """Join (or open) the flight for ``key``.

        Returns ``(future, leader)``.  A leader **must** complete the
        future via :meth:`finish`; followers just wait on it.
        """
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                self.followers += 1
                return future, False
            future = Future()
            self._inflight[key] = future
            self.leaders += 1
            return future, True

    def finish(self, key: Hashable, future: Future,
               result: object = None, error: BaseException | None = None) -> None:
        """Retire a leader's flight, waking every follower."""
        with self._lock:
            self._inflight.pop(key, None)
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def run(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Compute (or wait for) the value of ``key`` — blocking form."""
        future, leader = self.begin(key)
        if not leader:
            return future.result()
        try:
            value = compute()
        except BaseException as exc:
            self.finish(key, future, error=exc)
            raise
        self.finish(key, future, result=value)
        return value


# ---------------------------------------------------------------------------
# Workload specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """A (workload, all-schemes) sweep request the scheduler can ship.

    Specs are tiny and picklable: queue workers rebuild the workload
    from the spec through their own trace cache (memory tier, then the
    shared disk store, then regeneration), so no trace crosses a pipe.
    """

    kind: str  # "dnn" | "graph"
    params: tuple

    def sweep_key(self) -> Hashable:
        """The exact TRACE_CACHE key the serial drivers use."""
        if self.kind == "dnn":
            return ("dnn-sweep", *self.params)
        from repro.graph.graphlily import GraphAcceleratorConfig

        return ("graph-sweep", *self.params, GraphAcceleratorConfig().cache_key())

    def trace_key(self) -> Hashable:
        """The workload's trace-artifact key (the warm node's output)."""
        if self.kind == "dnn":
            return ("dnn-trace", *self.params)
        from repro.graph.graphlily import GraphAcceleratorConfig

        return ("graph-trace", *self.params, GraphAcceleratorConfig().cache_key())

    def result_key(self, scheme: str) -> Hashable:
        """The (workload × scheme) result-artifact key (a price node)."""
        if self.kind == "dnn":
            return ("dnn-result", *self.params, scheme)
        from repro.graph.graphlily import GraphAcceleratorConfig

        return ("graph-result", *self.params,
                GraphAcceleratorConfig().cache_key(), scheme)

    def label(self) -> str:
        """The workload label, computed without building the trace."""
        from repro.sim.runner import dnn_label, graph_label

        if self.kind == "dnn":
            model, config, training, _batch = self.params
            return dnn_label(model, config, training)
        return graph_label(self.params[0], self.params[1])

    def build_workload(self) -> "Workload":
        from repro.sim import runner

        if self.kind == "dnn":
            model, config, training, batch = self.params
            return runner.dnn_workload(model, config, training=training,
                                       batch=batch)
        benchmark, algorithm, iterations, scale_divisor = self.params
        return runner.graph_workload(benchmark, algorithm,
                                     iterations=iterations,
                                     scale_divisor=scale_divisor)

    def fetch(self) -> "SchemeSweep":
        """The cached sweep, priced on a miss — the figure drivers' entry."""
        from repro.sim import runner

        if self.kind == "dnn":
            model, config, training, batch = self.params
            return runner.dnn_sweep(model, config, training=training, batch=batch)
        benchmark, algorithm, iterations, scale_divisor = self.params
        return runner.graph_sweep(benchmark, algorithm, iterations=iterations,
                                  scale_divisor=scale_divisor)


def dnn_spec(model: str, config: str = "Cloud", training: bool = False,
             batch: int = 1) -> SweepSpec:
    return SweepSpec("dnn", (model, config, training, batch))


def graph_spec(benchmark: str, algorithm: str = "PR",
               iterations: int | None = None,
               scale_divisor: int = 64) -> SweepSpec:
    return SweepSpec("graph", (benchmark, algorithm, iterations, scale_divisor))


@dataclass(frozen=True)
class ProfileSpec:
    """A functional-pipeline or table artifact request (profile nodes).

    Like :class:`SweepSpec`, a profile spec is tiny, picklable and
    hashable; its artifact is a JSON-primitive dict produced by a pure
    entry point and keyed on the full configuration content, so equal
    configurations share one cached measurement across processes and
    machines.  Kinds:

    * ``gact``/``gop`` — fig16/fig19 functional pipelines
      (:mod:`repro.genome.profile`, :mod:`repro.video.profile`);
    * ``ablation``/``extra`` — whole rendered tables of the ablation and
      beyond-the-figures families, serialized as
      :meth:`~repro.experiments.base.ExperimentResult.to_doc` docs.  A
      table node may depend on suite sweeps it consumes (see
      :meth:`dep_keys`), which the graph wires up when those sweeps are
      present so cooperating workers assemble tables from cached results
      instead of repricing.
    """

    kind: str  # "gact" | "gop" | "ablation" | "extra"
    params: tuple

    def artifact_key(self) -> Hashable:
        if self.kind == "gact":
            from repro.genome.dsoft import DsoftConfig

            chromosome, sequencer, probe_reads, seed = self.params
            return ("gact-profile", chromosome, sequencer, probe_reads,
                    seed, DsoftConfig().cache_key())
        if self.kind == "gop":
            from repro.video.decoder import DecoderConfig
            from repro.video.profile import (
                FUNCTIONAL_DATA_BYTES,
                FUNCTIONAL_MAC_GRANULARITY,
            )

            pattern, n_frames, functional_frames = self.params
            return ("gop-profile", pattern, n_frames, functional_frames,
                    FUNCTIONAL_DATA_BYTES, FUNCTIONAL_MAC_GRANULARITY,
                    DecoderConfig().cache_key())
        if self.kind in ("ablation", "extra"):
            if self.kind == "ablation":
                from repro.experiments.ablations import table_key_params
            else:
                from repro.experiments.extras import table_key_params

            name, quick = self.params
            # The study's parameter content is part of the address, like
            # the gact/gop keys embed their pipeline configs: changing a
            # study's inputs re-keys its table instead of serving stale
            # rows from a shared cache dir.
            return (f"{self.kind}-profile", name, quick,
                    *table_key_params(name, quick))
        raise ValueError(f"unknown profile spec kind {self.kind!r}")

    def dep_keys(self) -> tuple:
        """Artifact keys this node consumes when they are available.

        Only table nodes have any: the extras assemble their rows from
        ordinary suite sweeps.  These are *soft* dependencies —
        :func:`build_graph` wires up only the ones the same graph
        produces, and a table node can always rebuild a missing sweep
        inline through the trace cache.
        """
        if self.kind == "extra":
            from repro.experiments.extras import table_dep_specs

            name, quick = self.params
            return tuple(s.sweep_key() for s in table_dep_specs(name, quick))
        return ()

    def build_profile(self) -> dict:
        """Run the pipeline/study (the expensive, cacheable part)."""
        if self.kind == "gact":
            from repro.genome.profile import measure_tile_profile

            chromosome, sequencer, probe_reads, seed = self.params
            return measure_tile_profile(chromosome, sequencer, probe_reads,
                                        seed=seed)
        if self.kind == "gop":
            from repro.video.profile import decode_profile

            pattern, n_frames, functional_frames = self.params
            return decode_profile(pattern, n_frames, functional_frames)
        if self.kind == "ablation":
            from repro.experiments.ablations import ABLATIONS

            name, quick = self.params
            return ABLATIONS[name](quick=quick).to_doc()
        if self.kind == "extra":
            from repro.experiments.extras import EXTRAS

            name, quick = self.params
            return EXTRAS[name](quick=quick).to_doc()
        raise ValueError(f"unknown profile spec kind {self.kind!r}")

    def fetch(self) -> dict:
        """The cached profile, built on a miss — the figure drivers' entry."""
        from repro.sim.runner import TRACE_CACHE

        return TRACE_CACHE.get_or_build(self.artifact_key(), self.build_profile)


def gact_profile_spec(chromosome: str, sequencer: str, probe_reads: int,
                      seed: int = 11) -> ProfileSpec:
    """Fig. 16's measured D-SOFT tile factor for one (chromosome, sequencer)."""
    return ProfileSpec("gact", (chromosome, sequencer, probe_reads, seed))


def gop_profile_spec(pattern: str, n_frames: int,
                     functional_frames: int) -> ProfileSpec:
    """Fig. 19's decode/traffic profile for one GOP configuration."""
    return ProfileSpec("gop", (pattern, n_frames, functional_frames))


def ablation_table_spec(name: str, quick: bool = False) -> ProfileSpec:
    """One ablation study's whole rendered table as a graph artifact."""
    return ProfileSpec("ablation", (name, bool(quick)))


def extra_table_spec(name: str, quick: bool = False) -> ProfileSpec:
    """One beyond-the-figures study's table as a graph artifact."""
    return ProfileSpec("extra", (name, bool(quick)))


# ---------------------------------------------------------------------------
# The artifact graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArtifactJob:
    """One node of the content-addressed job graph.

    ``key`` is the artifact's exact :data:`~repro.sim.runner.TRACE_CACHE`
    key (its content address — the disk-tier file name is a stable digest
    of it); ``deps`` are the keys whose artifacts must exist before this
    job can run.  Jobs are tiny, picklable and hashable, so local queue
    workers and peers on other machines derive and drain the same graph.
    """

    kind: str  # "trace" | "result" | "sweep" | "profile"
    key: tuple
    spec: "SweepSpec | ProfileSpec"
    scheme: str | None = None
    deps: tuple = ()

    def job_id(self) -> str:
        """Filesystem-safe stable identity (the queue's lock-file name)."""
        from repro.sim.runner import _key_digest

        return f"{self.kind}-{_key_digest(self.key)}"


def build_graph(specs: Iterable["SweepSpec | ProfileSpec"]) -> list[ArtifactJob]:
    """Expand specs into a deterministic, topologically-ordered job list.

    Every sweep spec becomes a ``trace`` node, one ``result`` node per
    suite scheme (depending on the trace) and a ``sweep`` assembly node
    (depending on the results); profile specs become single ``profile``
    nodes, depending on whichever of their soft dependencies
    (:meth:`ProfileSpec.dep_keys`) earlier specs in the sequence produce
    — so a table node waits for the sweeps it consumes instead of
    repricing them, but never blocks on artifacts no job makes.
    Dependencies always precede their dependents, and the order is a
    pure function of the spec sequence — every cooperating process
    derives the identical graph.
    """
    from repro.sim.runner import SCHEMES

    jobs: list[ArtifactJob] = []
    seen: set = set()
    produced: set = set()
    for spec in specs:
        if spec in seen:
            continue
        seen.add(spec)
        if isinstance(spec, ProfileSpec):
            deps = tuple(k for k in spec.dep_keys() if k in produced)
            jobs.append(ArtifactJob("profile", spec.artifact_key(), spec,
                                    deps=deps))
            produced.add(spec.artifact_key())
            continue
        trace_key = spec.trace_key()
        jobs.append(ArtifactJob("trace", trace_key, spec))
        result_keys = tuple(spec.result_key(name) for name in SCHEMES)
        for name, key in zip(SCHEMES, result_keys):
            jobs.append(
                ArtifactJob("result", key, spec, scheme=name, deps=(trace_key,))
            )
        jobs.append(ArtifactJob("sweep", spec.sweep_key(), spec,
                                deps=result_keys))
        produced.update((trace_key, spec.sweep_key(), *result_keys))
    return jobs


def compute_job(job: ArtifactJob, attempt: int = 0) -> None:
    """Execute one job inline, storing its artifact in the shared cache.

    This is the single execution path of every drain; every kind
    stores under its content key through
    :data:`~repro.sim.runner.TRACE_CACHE`, whose disk tier (atomic
    tmp+rename writes) makes concurrent duplicate computation harmless —
    deterministic jobs produce byte-identical artifacts.  The spill is
    the job's completion marker, so every kind writes it, even when this
    process already holds the value in memory.

    ``attempt`` is the job's persisted failure count (from the queue's
    attempt records): it indexes the
    ``compute`` fault-injection decision, so whether a given attempt of
    a given job crashes is identical across workers and orderings —
    the property that makes quarantine sets deterministic.
    """
    from repro.sim import faults
    from repro.sim.runner import SCHEMES, TRACE_CACHE, SchemeSweep

    faults.maybe_fault("compute", job.job_id(), attempt=attempt)
    if job.kind == "trace":
        trace = job.spec.build_workload().trace  # get_or_build spills a miss
        if not TRACE_CACHE.has_spill(job.key):
            # A memory-tier hit (say, a retry after a failed spill) wrote
            # nothing; the store still needs the artifact.
            TRACE_CACHE.put(job.key, trace, built=False)
    elif job.kind == "result":
        TRACE_CACHE.put(job.key, _price_spec(job.spec, job.scheme))
    elif job.kind == "profile":
        TRACE_CACHE.put(job.key, job.spec.build_profile())
    elif job.kind == "sweep":
        sweep = SchemeSweep(workload=job.spec.label())
        for name, key in zip(SCHEMES, job.deps):
            result = TRACE_CACHE.peek(key)
            if result is None:
                # The dep passed the queue's existence check but does not
                # decode (stale codec version, truncated spill) — or was
                # never spilled at all.  Rebuild transparently, exactly
                # as the serial get_or_build path would.
                result = _price_spec(job.spec, name)
                TRACE_CACHE.put(key, result)
            sweep.results[name] = result
        TRACE_CACHE.put(job.key, sweep)
    else:
        raise ValueError(f"unknown artifact job kind {job.kind!r}")


def _price_spec(spec: SweepSpec, scheme_name: str) -> "SimResult":
    """One (workload × scheme) pricing; the workload comes via the cache."""
    from repro.core.schemes import scheme_suite

    workload = spec.build_workload()
    scheme = scheme_suite(workload.protected_bytes)[scheme_name]
    model = workload.performance_model()
    return model.run(workload.trace.phases, scheme, batches=workload.trace.batches)
