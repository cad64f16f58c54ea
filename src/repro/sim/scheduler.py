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

Two executors drain the graph, through **one** execution path
(:func:`compute_job` via :func:`_compute_job_shared`), so both populate
identical artifact sets — per-scheme ``result`` spills included:

* :func:`prefetch_artifacts` — **one shared process pool** inside a
  single run.  Ready nodes fan out immediately and each job is
  dispatched the moment its dependencies' artifacts exist, so pricing
  of workload A overlaps trace generation of workload B; the finished
  artifacts are then promoted under the serial drivers' exact cache
  keys, so figure tables are byte-identical to a serial run.
* :func:`repro.sim.queue.drain_graph` — a **file-lock work queue** over
  the shared cache directory, letting ``--workers`` processes on
  separate machines pointed at the same ``REPRO_CACHE_DIR`` drain one
  graph cooperatively.

Single-workload parallel sweeps (``sweep_schemes(..., jobs=N)``, the
trace-file CLI) ride the same shared pool: the trace is spilled once to
the scheduler's store and each scheme job references it by content
digest.

Prefetch spills go through :data:`~repro.sim.runner.TRACE_CACHE`'s
``cache_dir`` when one is attached (so they persist across runs) and a
process-lifetime temporary directory otherwise; one-off external traces
always use the temporary store, which :func:`shutdown` removes.
"""

from __future__ import annotations

import atexit
import mmap
import os
import shutil
import tempfile
import threading
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.perf import PerformanceModel, SimResult
    from repro.sim.runner import BatchedTrace, SchemeSweep, Workload

# ---------------------------------------------------------------------------
# Shared process pool
# ---------------------------------------------------------------------------

_POOLS: dict[int, ProcessPoolExecutor] = {}


def effective_workers(jobs: int | None) -> int:
    """Worker processes a ``jobs`` request can actually keep busy."""
    if jobs is None:
        return 1
    return max(1, min(jobs, os.cpu_count() or 1))


def shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The process pool shared by every sweep of the suite.

    Pools are keyed by worker count and live until process exit (or
    :func:`shutdown`), so repeated ``sweep_schemes(jobs=N)`` calls and
    whole-suite prefetches reuse warm workers instead of forking a fresh
    pool per sweep.
    """
    workers = effective_workers(jobs)
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _POOLS[workers] = pool
    return pool


def shutdown() -> None:
    """Tear down the shared pools and the temporary trace store."""
    global _SPILL_DIR
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()
    if _SPILL_DIR is not None:
        shutil.rmtree(_SPILL_DIR, ignore_errors=True)
        _SPILL_DIR = None


atexit.register(shutdown)

# ---------------------------------------------------------------------------
# Trace store
# ---------------------------------------------------------------------------

_SPILL_DIR: Path | None = None


def _temp_store_dir() -> Path:
    """Process-lifetime spill directory (removed by :func:`shutdown`)."""
    global _SPILL_DIR
    if _SPILL_DIR is None:
        _SPILL_DIR = Path(tempfile.mkdtemp(prefix="repro-sweep-store-"))
    return _SPILL_DIR


def trace_store_dir() -> Path:
    """Directory workload traces are spilled to for cross-worker sharing."""
    from repro.sim.runner import TRACE_CACHE

    if TRACE_CACHE.cache_dir is not None:
        return TRACE_CACHE.cache_dir
    return _temp_store_dir()


def store_trace(trace: "BatchedTrace") -> str:
    """Spill a one-off external trace; returns its content digest.

    External traces always land in the temporary store (cleaned at
    shutdown), never the persistent cache dir: their cache-key spill
    would duplicate them there with nothing ever reclaiming the space.
    The payload is the columnar binary layout of
    :mod:`repro.sim.spillfmt`, so every pool worker pricing this trace
    mmaps the same file — one copy of the columns in the OS page cache
    shared across ``--jobs``, instead of N independent JSON parses.
    """
    from repro.sim.runner import _encode_trace
    from repro.sim.tracefile import doc_digest

    payload = _encode_trace(trace)
    digest = doc_digest(payload)
    path = _temp_store_dir() / f"xtrace-{digest}.bin"
    if not path.exists():
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    return digest


#: Worker-side memo of external traces, keyed by content digest, so a
#: worker pricing several schemes of one trace decodes the spill once.
#: Bounded: workers are long-lived (the pool is shared suite-wide), so
#: an unbounded memo would pin every trace ever priced in every worker.
#: (A memoized trace holds its mmap alive via the column views, which
#: is cheap: the pages are shared and reclaimable.)
_TRACE_MEMO: "OrderedDict[str, BatchedTrace]" = OrderedDict()
_TRACE_MEMO_ENTRIES = 8


def _load_stored_trace(digest: str, store_dir: str) -> "BatchedTrace":
    from repro.sim.runner import _decode_trace

    trace = _TRACE_MEMO.get(digest)
    if trace is None:
        path = Path(store_dir) / f"xtrace-{digest}.bin"
        try:
            with open(path, "rb") as f:
                payload: object = mmap.mmap(f.fileno(), 0,
                                            access=mmap.ACCESS_READ)
        except FileNotFoundError:
            # A store populated by an older process: fall back to the
            # legacy JSON spill name.
            payload = (Path(store_dir) / f"xtrace-{digest}.json").read_text()
        trace = _decode_trace(payload)
        _TRACE_MEMO[digest] = trace
        while len(_TRACE_MEMO) > _TRACE_MEMO_ENTRIES:
            _TRACE_MEMO.popitem(last=False)
    else:
        _TRACE_MEMO.move_to_end(digest)
    return trace


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

    Specs are tiny and picklable: workers rebuild the workload from the
    spec through their own trace cache (memory tier, then the shared
    disk store, then regeneration), so no trace crosses the pipe.
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

    def run_inline(self) -> "SchemeSweep":
        """Serial fallback: the ordinary cached sweep in this process."""
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
    job can run.  Jobs are tiny, picklable and hashable, so the same
    graph can be drained by the in-process pool or by the file-lock
    queue across machines.
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

    This is the single execution path the file-lock queue workers use;
    every kind stores under its content key through
    :data:`~repro.sim.runner.TRACE_CACHE`, whose disk tier (atomic
    tmp+rename writes) makes concurrent duplicate computation harmless —
    deterministic jobs produce byte-identical artifacts.

    ``attempt`` is the job's persisted failure count (from the queue's
    attempt records, or a local retry counter): it indexes the
    ``compute`` fault-injection decision, so whether a given attempt of
    a given job crashes is identical across workers and orderings —
    the property that makes quarantine sets deterministic.
    """
    from repro.sim import faults
    from repro.sim.runner import SCHEMES, TRACE_CACHE, SchemeSweep

    faults.maybe_fault("compute", job.job_id(), attempt=attempt)
    if job.kind == "trace":
        job.spec.build_workload()  # get_or_build spills under the trace key
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


# ---------------------------------------------------------------------------
# Worker entry points (must be picklable module functions)
# ---------------------------------------------------------------------------

def _attach_store(store_dir: str) -> None:
    """Point the worker's trace cache at the shared trace store.

    Workers are long-lived (the pool is shared suite-wide), so their
    memory tier is also tightened: the disk store is the system of
    record, and a small hot set per worker prevents every worker from
    pinning the whole suite's traces in memory.

    Re-pointing to a *different* store drops the memory tier first: an
    artifact's existence in the shared store is its completion marker,
    and a worker whose memory still holds keys from a previous store
    must not skip the spill the new store is waiting for.
    """
    from repro.sim.runner import TRACE_CACHE

    TRACE_CACHE.max_entries = min(TRACE_CACHE.max_entries, 32)
    if TRACE_CACHE.cache_dir is None or str(TRACE_CACHE.cache_dir) != store_dir:
        TRACE_CACHE.clear()
        TRACE_CACHE.set_cache_dir(store_dir)


def _compute_job_shared(job: ArtifactJob, store_dir: str, attempt: int = 0,
                        fault_spec: str | None = None) -> None:
    """Pool entry point for a file-lock queue worker's claimed job.

    Attaches the worker's trace cache to the shared store, then runs the
    single inline execution path; the artifact's atomic tmp+rename spill
    makes a duplicate computation (claim reclaimed mid-flight) harmless.

    ``fault_spec`` carries the parent's chaos plan explicitly: pool
    workers are long-lived and shared, so a plan installed in the parent
    *after* the pool forked would never reach them through the
    environment alone.
    """
    from repro.sim import faults
    from repro.sim.runner import TRACE_CACHE

    if fault_spec != faults.active_spec():
        faults.install(fault_spec)
    _attach_store(store_dir)
    if not TRACE_CACHE.has(job.key):
        compute_job(job, attempt=attempt)


def _price_spec(spec: SweepSpec, scheme_name: str) -> "SimResult":
    """One (workload × scheme) pricing; the workload comes via the cache."""
    from repro.core.schemes import scheme_suite

    workload = spec.build_workload()
    scheme = scheme_suite(workload.protected_bytes)[scheme_name]
    model = workload.performance_model()
    return model.run(workload.trace.phases, scheme, batches=workload.trace.batches)


def _price_stored_job(digest: str, store_dir: str, model: "PerformanceModel",
                      scheme) -> "SimResult":
    """Price node for an externally-supplied (spilled) trace."""
    trace = _load_stored_trace(digest, store_dir)
    return model.run(trace.phases, scheme, batches=trace.batches)


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def parallel_sweep(workload: str, phases, model: "PerformanceModel", suite: dict,
                   names: Sequence[str], batches, jobs: int) -> "SchemeSweep":
    """All schemes of one workload across the shared pool.

    The trace is spilled once to the scheduler store; each scheme job
    references it by digest, so the per-job payload is the (small)
    scheme object and performance model.  Results are collected in
    presentation order — bit-identical to the serial path.
    """
    from repro.core.access import AccessBatch
    from repro.sim.runner import BatchedTrace, SchemeSweep

    if batches is None:
        batches = [AccessBatch.from_phase(phase) for phase in phases]
    digest = store_trace(BatchedTrace(list(phases), list(batches)))
    store = str(_temp_store_dir())
    pool = shared_pool(jobs)
    futures = {
        name: pool.submit(_price_stored_job, digest, store, model, suite[name])
        for name in names
    }
    sweep = SchemeSweep(workload=workload)
    for name in names:
        sweep.results[name] = futures[name].result()
    return sweep


def prefetch_artifacts(specs: Iterable["SweepSpec | ProfileSpec"],
                       jobs: int | None = None) -> dict:
    """Compute every spec's missing artifact; returns a summary.

    This is the cross-workload fan-out over the artifact graph: the
    pending specs expand through :func:`build_graph` and the jobs drain
    on the shared pool through :func:`_compute_job_shared` — the *same*
    execution path the file-lock queue workers use — so a ``--jobs`` run
    and a ``--workers`` run populate identical artifact sets (traces,
    per-scheme results, assembled sweeps, profiles/tables; one codec,
    and an artifact's existence is its completion marker in both).  Each
    workload's scheme-price nodes dispatch the moment its trace lands,
    table nodes wait for the sweeps they consume, and the finished
    sweeps and profiles are promoted into the parent's memory tier under
    the serial drivers' keys, so the drivers afterwards run entirely
    from cache — deterministically.  Sweeps always cover the full scheme
    suite: the cache keys are the drivers' full-sweep keys, so a partial
    sweep must never land there.

    Without an attached cache dir the workers spill into the scheduler's
    process-lifetime temporary store, which the parent attaches for the
    duration of the drain (and detaches after promoting the finished
    artifacts); :func:`shutdown` removes it.
    """
    from repro.sim.runner import TRACE_CACHE

    sweep_specs: list[SweepSpec] = []
    profile_specs: list[ProfileSpec] = []
    seen: set = set()
    for spec in specs:
        if spec in seen:
            continue
        seen.add(spec)
        if isinstance(spec, ProfileSpec):
            profile_specs.append(spec)
        else:
            sweep_specs.append(spec)
    pending = [s for s in sweep_specs if TRACE_CACHE.peek(s.sweep_key()) is None]
    pending_profiles = [
        p for p in profile_specs if TRACE_CACHE.peek(p.artifact_key()) is None
    ]
    summary = {
        "workloads": len(sweep_specs) + len(profile_specs),
        "cached": (len(sweep_specs) - len(pending)
                   + len(profile_specs) - len(pending_profiles)),
        "priced": 0,
        "traces_built": 0,
        "results_built": 0,
        "profiles_built": 0,
    }
    if not pending and not pending_profiles:
        return summary
    if not TRACE_CACHE.enabled:
        # Nowhere to put prefetched results; the drivers will price (and
        # parallelize per sweep) themselves.
        return summary
    if effective_workers(jobs) < 2:
        # One core (or jobs <= 1): a worker pool would only add pickling
        # and process churn, so compute inline — the cache still fills.
        # (The serial sweep path prices whole sweeps without materializing
        # per-result artifacts; only the pool and queue paths spill them.)
        for spec in pending:
            before = TRACE_CACHE.miss_kinds.get("trace", 0)
            spec.run_inline()
            summary["traces_built"] += (
                TRACE_CACHE.miss_kinds.get("trace", 0) > before
            )
            summary["priced"] += 1
        for profile_spec in pending_profiles:
            profile_spec.fetch()
            summary["profiles_built"] += 1
        return summary

    store = str(trace_store_dir())
    detach_after = TRACE_CACHE.cache_dir is None
    if detach_after:
        # No persistent cache dir: the workers spill into the temporary
        # store; attach the parent to it so presence checks and the final
        # promotion read the same substrate.
        TRACE_CACHE.set_cache_dir(store)
    try:
        graph = build_graph(pending + pending_profiles)
        pool = shared_pool(jobs)
        done: set = set()
        waiting: list[ArtifactJob] = []
        for job in graph:
            # A job is done only when its artifact is in the *shared
            # store* — a memory-tier value in this process is invisible
            # to the workers, and skipping the job would leave every
            # worker regenerating the dependency for itself.
            if TRACE_CACHE.has_spill(job.key):
                done.add(job.key)
            else:
                waiting.append(job)
        in_flight: dict[Future, ArtifactJob] = {}
        from repro.sim import faults
        from repro.sim.queue import QUARANTINE_AFTER

        #: Local retry ledger for the pool path.  The pool has no shared
        #: queue dir to persist attempts in, but the counter still feeds
        #: compute_job's fault-decision index, so a transient injected
        #: crash resolves on retry instead of failing the whole prefetch.
        attempts: dict[str, int] = {}

        def submit(job: ArtifactJob) -> None:
            future = pool.submit(_compute_job_shared, job, store,
                                 attempts.get(job.job_id(), 0),
                                 faults.active_spec())
            in_flight[future] = job

        def submit_ready() -> None:
            nonlocal waiting
            blocked: list[ArtifactJob] = []
            for job in waiting:
                if all(dep in done for dep in job.deps):
                    submit(job)
                else:
                    blocked.append(job)
            waiting = blocked

        computed = {"trace": 0, "result": 0, "sweep": 0, "profile": 0}
        submit_ready()
        while in_flight:
            finished, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
            for future in finished:
                job = in_flight.pop(future)
                try:
                    future.result()
                except Exception:
                    job_id = job.job_id()
                    attempts[job_id] = attempts.get(job_id, 0) + 1
                    if attempts[job_id] >= QUARANTINE_AFTER:
                        raise  # persistent failure: propagate to caller
                    submit(job)
                    continue
                done.add(job.key)
                computed[job.kind] += 1
            submit_ready()
        summary["traces_built"] = computed["trace"]
        summary["results_built"] = computed["result"]

        # Promote the finished artifacts into the parent's memory tier
        # under the drivers' exact keys (disk hits, not misses).  A spill
        # that fails to decode — torn write on a shared mount — falls
        # back to the ordinary serial path, exactly like get_or_build.
        for spec in pending:
            if TRACE_CACHE.peek(spec.sweep_key()) is None:
                spec.run_inline()
            summary["priced"] += 1
        for profile_spec in pending_profiles:
            if TRACE_CACHE.peek(profile_spec.artifact_key()) is None:
                profile_spec.fetch()
            summary["profiles_built"] += 1
    finally:
        if detach_after:
            TRACE_CACHE.set_cache_dir(None)
    return summary
