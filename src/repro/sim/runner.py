"""Workload runner: columnar traces and trace/sweep reuse.

The experiments all follow the same pattern — generate a trace, run
{NP, BP, MGX, MGX_VN, MGX_MAC} over it, normalize to NP — and the figure
drivers repeat the *same* workloads (fig03, fig12, fig13 and the
headline table all sweep the same DNN configurations).  This module
packages that loop as a pipeline with two levers:

* **Columns** — every workload's builder emits one
  :class:`~repro.core.access.Trace` (one column batch plus a phase
  table), shared unchanged across all schemes of a sweep: each scheme
  prices the whole trace in one ``price`` call.
* **Reuse** — a process-wide :class:`TraceCache` keyed by workload
  configuration caches both the generated traces and the finished
  :class:`SchemeSweep` results, so a five-scheme suite prices one
  generated trace and repeated sweeps across experiment drivers are
  free.  Opt out per call with ``use_cache=False`` or globally with
  ``TRACE_CACHE.enabled = False``.

Parallelism lives one level up: the suite's artifact graph
(:mod:`repro.sim.scheduler`) drains through the file-lock queue
(:mod:`repro.sim.queue`) into this cache's disk tier, and the sweeps
here then restore from it.

Every disk-tier artifact has one file name (:func:`spill_filename`),
one layout and one framing: the payload — columnar binary for traces
(:mod:`repro.sim.spillfmt`), single-line JSON for every other kind —
followed by a fixed-size ``#sha256:`` digest trailer.  A file in a
retired layout is a plain miss: the artifact is rebuilt, and ``cache
gc`` (:mod:`repro.sim.gc`) sweeps the old file as unreachable.
"""

from __future__ import annotations

import functools
import hashlib
import mmap
import os
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable

from repro.core.access import Trace
from repro.core.schemes import ProtectionScheme, scheme_suite
from repro.dnn.accelerator import CONFIGS, DnnAcceleratorConfig
from repro.dnn.models import build_model
from repro.dnn.tracegen import DnnTraceGenerator
from repro.dram.model import DramModel
from repro.graph.generators import build_benchmark_graph
from repro.graph.graphlily import GraphAcceleratorConfig, GraphTraceGenerator
from repro.sim import faults, spillfmt
from repro.sim.perf import PerfConfig, PerformanceModel, SimResult

#: Paper scheme names in presentation order.
SCHEMES = ("NP", "BP", "MGX", "MGX_VN", "MGX_MAC")


def dnn_label(model_name: str, config_name: str, training: bool) -> str:
    """One DNN workload's display label.

    The single source of truth: sweeps are cached under tables keyed by
    this string, and the scheduler's assembly nodes
    (:meth:`~repro.sim.scheduler.SweepSpec.label`) must render the exact
    label the serial drivers do.
    """
    return f"{model_name}-{'Train' if training else 'Inf'}-{config_name}"


def graph_label(benchmark: str, algorithm: str) -> str:
    """One graph workload's display label (see :func:`dnn_label`)."""
    return f"{algorithm}-{benchmark}"


#: The disk-format version pinned into the key→filename digest.  Keys
#: are content addresses: a payload layout change (the trace layout's
#: ``spillfmt.SPILL_VERSION``, the JSON kinds' ``SWEEP_CODEC_VERSION``
#: and ``PROFILE_CODEC_VERSION``) does not change what a key means, so
#: filenames keep their digests and a spill in a retired layout is a
#: plain miss that is rebuilt in place.  Bump only when the key schema
#: itself changes meaning.
_KEY_DIGEST_VERSION = 2

#: Every spill ends with exactly ``\n#sha256:<64 hex>\n``, the content
#: digest of the payload before it.  Payloads may contain the marker as
#: data, so the trailer is framed by position (see
#: :func:`split_spill_bytes`).
DIGEST_TRAILER_BYTES = b"\n#sha256:"

#: Exact byte length of a spill's trailer: marker + 64 hex digits of
#: sha256 + newline.
_TRAILER_LEN = len(DIGEST_TRAILER_BYTES) + 64 + 1


@functools.lru_cache(maxsize=4096)
def _key_digest(key: Hashable) -> str:
    """Stable content hash of a cache key (tuples of primitives only).

    Memoized: executors recompute spill paths for the same keys on every
    poll of the shared store, and keys are immutable primitive tuples.
    """
    canonical = f"v{_KEY_DIGEST_VERSION}|{key!r}"
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def payload_digest(payload: str | bytes | bytearray | memoryview) -> str:
    """The content digest a spill's trailer must carry for ``payload``.

    Accepts text or a bytes-like view; binary payloads (and mmapped
    files) hash directly, without an intermediate ``.encode()`` copy.
    """
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()


def split_spill_bytes(data: bytes | memoryview,
                      ) -> tuple[memoryview, str | None]:
    """Split a spill into ``(payload view, digest)`` — zero-copy.

    A well-formed spill ends with exactly ``\\n#sha256:<64 hex>\\n``.
    Anything else returns the whole buffer with ``digest=None``: the
    spill is corrupt.
    """
    view = memoryview(data)
    if len(view) < _TRAILER_LEN:
        return view, None
    tail = bytes(view[len(view) - _TRAILER_LEN:])
    if not tail.startswith(DIGEST_TRAILER_BYTES) or not tail.endswith(b"\n"):
        return view, None
    digest = tail[len(DIGEST_TRAILER_BYTES):-1].decode("ascii", "replace")
    return view[: len(view) - _TRAILER_LEN], digest


def _encode_sweep(value: "SchemeSweep") -> bytes:
    from repro.experiments.storage import dumps_sweep

    return dumps_sweep(value).encode()


def _decode_sweep(payload: memoryview) -> "SchemeSweep":
    from repro.experiments.storage import loads_sweep

    return loads_sweep(bytes(payload))


def _encode_result(value) -> bytes:
    from repro.experiments.storage import dumps_result

    return dumps_result(value).encode()


def _decode_result(payload: memoryview):
    from repro.experiments.storage import loads_result

    return loads_result(bytes(payload))


def _encode_profile(value) -> bytes:
    from repro.experiments.storage import dumps_profile

    return dumps_profile(value).encode()


def _decode_profile(payload: memoryview):
    from repro.experiments.storage import loads_profile

    return loads_profile(bytes(payload))


#: Disk codecs by key kind (the suffix of a key's leading tag, e.g.
#: ``("dnn-trace", ...)`` → ``trace``).  Kinds without a codec stay
#: memory-only.  ``result`` entries are the artifact graph's per-scheme
#: price nodes and ``profile`` entries its functional-pipeline nodes
#: (fig16 tile factors, fig19 GOP profiles).  Encoders return the
#: payload bytes; decoders accept a bytes-like view of them (possibly
#: over an mmap).
_DISK_CODECS: dict[str, tuple[Callable[[object], bytes],
                              Callable[[memoryview], object]]] = {
    "trace": (spillfmt.encode_trace, spillfmt.decode_trace),
    "sweep": (_encode_sweep, _decode_sweep),
    "result": (_encode_result, _decode_result),
    "profile": (_encode_profile, _decode_profile),
}

#: Every artifact kind with a disk codec, in reporting order.
ARTIFACT_KINDS = ("trace", "sweep", "result", "profile")

#: Kinds spilled in the columnar binary layout (``.bin``); everything
#: else spills as single-line JSON (``.json``).
_BINARY_KINDS = frozenset({"trace"})


def spill_name(job_id: str) -> str:
    """The spill file name of artifact ``<kind>-<key digest>`` (the id
    the work queue files its locks and attempt records under)."""
    kind = job_id.split("-", 1)[0]
    return job_id + (".bin" if kind in _BINARY_KINDS else ".json")


@functools.lru_cache(maxsize=4096)
def spill_filename(key: Hashable) -> str | None:
    """A cache key's disk-tier file name — its only address.

    ``trace-<digest>.bin`` for traces, ``<kind>-<digest>.json`` for
    every other kind, ``None`` for memory-only kinds.
    """
    kind = TraceCache._kind(key)
    if kind not in _DISK_CODECS:
        return None
    return spill_name(f"{kind}-{_key_digest(key)}")


def decode_spill(kind: str, payload: memoryview) -> object:
    """Decode one spill payload under its kind's codec (raises on stale).

    ``payload`` is a bytes-like view, possibly over an mmap.
    """
    return _DISK_CODECS[kind][1](payload)


class TraceCache:
    """Process-wide LRU cache of generated traces and sweep results.

    Keys are workload-configuration tuples (model, machine, algorithm,
    iterations, …), so any driver asking for the same workload — within
    one experiment or across the whole figure suite — reuses the entry
    instead of regenerating.  Entries are treated as immutable by every
    consumer.

    An optional **disk tier** (``cache_dir`` / :meth:`set_cache_dir`,
    opt-in via ``--cache-dir`` or ``REPRO_CACHE_DIR``) spills artifacts
    keyed by a content hash of the workload configuration, so a fresh
    process restores them instead of regenerating — a warm rerun of the
    whole figure suite prices zero traces.  Traces spill in the columnar
    binary layout of :mod:`repro.sim.spillfmt` and load **zero-copy**:
    the file is mmapped and the trace's columns are read-only views
    over it, so cooperating ``--jobs`` queue workers loading the same
    spill share one copy in the OS page cache.  Other kinds spill as
    single-line JSON.  Writes are atomic (tmp + rename), making the
    directory safe to share between the queue workers and the parent.
    """

    def __init__(self, max_entries: int = 512,
                 cache_dir: str | os.PathLike | None = None) -> None:
        self.max_entries = max_entries
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.miss_kinds: Counter[str] = Counter()
        #: Per-kind count / byte totals of spills *written* by this
        #: process (reset by :meth:`clear` with the other counters).
        self.spill_kinds: Counter[str] = Counter()
        self.spill_bytes: Counter[str] = Counter()
        #: Digest-mismatch spills deleted on load (bit-rot / torn
        #: writes): the artifact is rebuilt and respilled, and deleting
        #: stops ``has_spill`` from advertising a corrupt file as done.
        self.corrupt_dropped = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._cache_dir: Path | None = None
        if cache_dir:
            self.set_cache_dir(cache_dir)

    # -- disk tier -----------------------------------------------------
    @property
    def cache_dir(self) -> Path | None:
        return self._cache_dir

    def set_cache_dir(self, cache_dir: str | os.PathLike | None) -> None:
        """Attach (or detach, with ``None``) the persistent disk tier."""
        if cache_dir is None:
            self._cache_dir = None
            return
        path = Path(cache_dir)
        path.mkdir(parents=True, exist_ok=True)
        self._cache_dir = path

    @staticmethod
    def _kind(key: Hashable) -> str:
        if isinstance(key, tuple) and key and isinstance(key[0], str):
            return key[0].rsplit("-", 1)[-1]
        return "other"

    def _disk_path(self, key: Hashable) -> Path | None:
        """The key's spill file (``None``: no disk tier, or a
        memory-only kind)."""
        name = spill_filename(key)
        if self._cache_dir is None or name is None:
            return None
        return self._cache_dir / name

    @staticmethod
    def _map_spill(path: Path) -> mmap.mmap | bytes:
        """A spill's bytes, mmapped so trace columns load zero-copy.

        The mmap stays alive exactly as long as the decoded arrays
        reference it.
        """
        with open(path, "rb") as f:
            if os.fstat(f.fileno()).st_size == 0:
                return b""  # mmap refuses empty files; no trailer: corrupt
            return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)

    def _drop_corrupt(self, path: Path) -> None:
        """Delete a corrupt spill so ``has_spill`` stops advertising it.

        A missing trailer or a failed digest is truncation, bit-rot or a
        torn write, never version skew (stale-codec spills keep valid
        trailers), so deleting is safe — and necessary: executors use
        spill *existence* as the completion marker, and a corrupt file
        left in place would make every drain treat the artifact as done
        while every decode fails.  The next successful rebuild respills
        under the same name.
        """
        try:
            path.unlink()
        except OSError:
            return  # still corrupt on disk; cache verify will flag it
        self.corrupt_dropped += 1

    def _disk_load(self, key: Hashable) -> object | None:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            # A missing spill is a cold miss, not a transient error:
            # no backoff (injected io faults still retry).
            data = faults.call_with_retries(
                lambda: self._map_spill(path), "spill_read", path.name,
                no_retry=(FileNotFoundError,))
        except OSError:
            return None  # missing, or a transient read outlasted retries
        kind = self._kind(key)
        payload, digest = split_spill_bytes(data)
        # Columnar spills are not hashed here — that would fault in every
        # page and defeat the lazy mmap; their decoder validates the
        # structure (magic, version, bounds), and full bit-rot detection
        # is ``cache verify``'s job.
        if digest is None or (kind not in _BINARY_KINDS
                              and digest != payload_digest(payload)):
            self._drop_corrupt(path)
            return None  # truncation, bit-rot or a torn write: rebuild
        try:
            return _DISK_CODECS[kind][1](payload)
        except (ValueError, KeyError, TypeError, AttributeError):
            return None  # stale or foreign spill: rebuild

    def _disk_store(self, key: Hashable, value: object) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        kind = self._kind(key)
        try:
            payload = _DISK_CODECS[kind][0](value)
        except (TypeError, ValueError):
            return  # unencodable value; the memory tier still has it
        tmp = path.with_suffix(f".tmp.{os.getpid()}")

        def _write() -> int:
            # Payload and trailer are written as separate pieces — no
            # concatenation copy of a multi-megabyte buffer.
            trailer = (DIGEST_TRAILER_BYTES
                       + payload_digest(payload).encode() + b"\n")
            with open(tmp, "wb") as f:
                f.write(payload)
                f.write(trailer)
            os.replace(tmp, path)
            return len(payload) + len(trailer)

        try:
            nbytes = faults.call_with_retries(_write, "spill_write", path.name)
        except (OSError, TypeError, ValueError):
            # The disk tier is best-effort; the value stays in memory.
            # Drop a torn tmp so it neither confuses peers nor waits for
            # the GC's stale-tmp sweep.
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.spill_kinds[kind] += 1
        self.spill_bytes[kind] += nbytes

    # -- lookup --------------------------------------------------------
    def _lookup(self, key: Hashable) -> object | None:
        """Two-tier lookup: memory, then disk (promoted to memory)."""
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        value = self._disk_load(key)
        if value is not None:
            self.disk_hits += 1
            self._store_mem(key, value)
        return value

    def get_or_build(self, key: Hashable, builder: Callable[[], object]) -> object:
        """Return the cached value for ``key``, building it on a miss.

        Lookup order: memory tier, then disk tier (restored values are
        promoted to memory), then ``builder()`` — whose result is stored
        in both tiers.
        """
        if not self.enabled:
            return builder()
        value = self._lookup(key)
        if value is not None:
            return value
        self.misses += 1
        self.miss_kinds[self._kind(key)] += 1
        value = builder()
        self._store_mem(key, value)
        self._disk_store(key, value)
        return value

    def peek(self, key: Hashable) -> object | None:
        """Non-building lookup of both tiers (no miss is recorded)."""
        if not self.enabled:
            return None
        return self._lookup(key)

    def has_spill(self, key: Hashable) -> bool:
        """Disk-tier-only presence check (the shared completion marker).

        It ignores the memory tier: a value this process holds in memory
        is invisible to cooperating workers, so executors deciding
        whether the *shared store* needs a job must ask the store.  It
        never parses a spill, so the work queue can poll availability
        without decoding multi-megabyte traces; a truncated/corrupt
        spill can make it report True where :meth:`peek` returns
        ``None``, and consumers fall back to rebuilding via
        :meth:`get_or_build`.
        """
        if not self.enabled:
            return False
        path = self._disk_path(key)
        return path is not None and path.exists()

    def put(self, key: Hashable, value: object, built: bool = True) -> None:
        """Insert a value computed outside :meth:`get_or_build`.

        ``built`` keeps the miss accounting honest: a value priced by an
        artifact job this run still counts as a miss of its kind.
        """
        if not self.enabled:
            return
        if built:
            self.misses += 1
            self.miss_kinds[self._kind(key)] += 1
        self._store_mem(key, value)
        self._disk_store(key, value)

    def _store_mem(self, key: Hashable, value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop the memory tier and reset counters (disk entries persist)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.miss_kinds.clear()
        self.spill_kinds.clear()
        self.spill_bytes.clear()
        self.corrupt_dropped = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int | str]:
        counters: dict[str, int | str] = {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "entries": len(self),
        }
        for kind in ARTIFACT_KINDS:
            counters[f"{kind}_misses"] = self.miss_kinds.get(kind, 0)
            counters[f"{kind}_spills"] = self.spill_kinds.get(kind, 0)
            counters[f"{kind}_spill_bytes"] = self.spill_bytes.get(kind, 0)
        counters["spill_bytes"] = sum(self.spill_bytes.values())
        counters["corrupt_dropped"] = self.corrupt_dropped
        # Which LRU-engine backend priced this run's misses: cached
        # artifacts are backend-independent (all backends are
        # byte-identical), but perf numbers are not, so reports carry it.
        from repro.core.engine_backend import active_backend

        counters["engine_backend"] = active_backend()
        return counters


#: The default cache every workload constructor consults.  The disk tier
#: starts attached when ``REPRO_CACHE_DIR`` is set.
TRACE_CACHE = TraceCache(cache_dir=os.environ.get("REPRO_CACHE_DIR") or None)


@dataclass
class Workload:
    """A priced-workload bundle: trace columns + the machine to run on."""

    label: str
    trace: Trace
    protected_bytes: int
    accel_freq_hz: float
    dram_model: DramModel

    def performance_model(self) -> PerformanceModel:
        return PerformanceModel(
            self.dram_model, PerfConfig(accel_freq_hz=self.accel_freq_hz)
        )


@dataclass
class SchemeSweep:
    """Results of all schemes over one workload, normalized to NP."""

    workload: str
    results: dict[str, SimResult] = field(default_factory=dict)

    @property
    def baseline(self) -> SimResult:
        return self.results["NP"]

    def normalized_time(self, scheme: str) -> float:
        return self.results[scheme].normalized_to(self.baseline)

    def traffic_increase(self, scheme: str) -> float:
        return self.results[scheme].traffic_increase_over(self.baseline)

    def overhead_percent(self, scheme: str) -> float:
        return 100.0 * (self.normalized_time(scheme) - 1.0)


def sweep_schemes(
    workload: str,
    trace: Trace,
    model: PerformanceModel,
    protected_bytes: int,
    schemes: dict[str, ProtectionScheme] | None = None,
) -> SchemeSweep:
    """Run every scheme over ``trace`` and collect normalized results,
    in presentation order."""
    suite = schemes if schemes is not None else scheme_suite(protected_bytes)
    names = [name for name in SCHEMES if name in suite]
    names += [name for name in suite if name not in SCHEMES]
    sweep = SchemeSweep(workload=workload)
    for name in names:
        sweep.results[name] = model.run(trace, suite[name])
    return sweep


# ---------------------------------------------------------------------------
# Workload constructors
# ---------------------------------------------------------------------------

def dnn_workload(model_name: str, config_name: str = "Cloud",
                 training: bool = False, batch: int = 1,
                 use_cache: bool = True) -> Workload:
    """Build (or fetch from the cache) one DNN workload's trace."""
    config: DnnAcceleratorConfig = CONFIGS[config_name]
    label = dnn_label(model_name, config_name, training)

    def build() -> Trace:
        generator = DnnTraceGenerator(build_model(model_name), config, batch=batch)
        trace = generator.training_step() if training else generator.inference()
        return trace.trace

    key = ("dnn-trace", model_name, config_name, training, batch)
    trace = (
        TRACE_CACHE.get_or_build(key, build) if use_cache else build()
    )
    return Workload(
        label=label,
        trace=trace,
        protected_bytes=config.protected_bytes,
        accel_freq_hz=config.array.freq_hz,
        dram_model=DramModel(config.dram),
    )


def graph_workload(benchmark: str, algorithm: str = "PR",
                   iterations: int | None = None, scale_divisor: int = 64,
                   config: GraphAcceleratorConfig | None = None,
                   use_cache: bool = True) -> Workload:
    """Build (or fetch from the cache) one graph workload's trace."""
    config = config or GraphAcceleratorConfig()

    def build() -> Trace:
        # The CSR graph is shared by every algorithm over this benchmark
        # (PR and BFS sweep the same six graphs), so it gets its own
        # memory-tier cache entry under the trace that uses it.
        graph = TRACE_CACHE.get_or_build(
            ("graph-csr", benchmark, scale_divisor),
            lambda: build_benchmark_graph(benchmark, scale_divisor=scale_divisor),
        ) if use_cache else build_benchmark_graph(
            benchmark, scale_divisor=scale_divisor
        )
        generator = GraphTraceGenerator(graph, config)
        if algorithm == "PR":
            trace = generator.pagerank_trace(iterations=iterations)
        elif algorithm == "BFS":
            trace = generator.bfs_trace(iterations=iterations)
        elif algorithm == "SSSP":
            trace = generator.sssp_trace(iterations=iterations)
        elif algorithm == "SpMSpV":
            trace = generator.spmspv_trace(iterations=iterations or 4)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        return trace.trace

    key = ("graph-trace", benchmark, algorithm, iterations, scale_divisor,
           config.cache_key())
    trace = (
        TRACE_CACHE.get_or_build(key, build) if use_cache else build()
    )
    return Workload(
        label=graph_label(benchmark, algorithm),
        trace=trace,
        protected_bytes=config.protected_bytes,
        accel_freq_hz=config.freq_hz,
        dram_model=DramModel(config.dram),
    )


def _sweep_workload(build_workload: Callable[[], Workload],
                    sweep_key: Hashable | None,
                    use_cache: bool) -> SchemeSweep:
    """Sweep the five-scheme suite over a workload, reusing cached results.

    The workload (and with it the trace) is only constructed when the
    sweep itself is missing from both cache tiers, so a warm rerun never
    touches trace generation at all.
    """
    def run() -> SchemeSweep:
        workload = build_workload()
        return sweep_schemes(
            workload.label,
            workload.trace,
            workload.performance_model(),
            workload.protected_bytes,
        )

    if use_cache and sweep_key is not None:
        return TRACE_CACHE.get_or_build(sweep_key, run)
    return run()


def dnn_sweep(model_name: str, config_name: str = "Cloud", training: bool = False,
              batch: int = 1, use_cache: bool = True) -> SchemeSweep:
    """Sweep all schemes over one DNN workload (Fig. 12/13 data points)."""
    key = ("dnn-sweep", model_name, config_name, training, batch)
    return _sweep_workload(
        lambda: dnn_workload(model_name, config_name, training, batch,
                             use_cache=use_cache),
        key, use_cache,
    )


def graph_sweep(benchmark: str, algorithm: str = "PR", iterations: int | None = None,
                scale_divisor: int = 64,
                config: GraphAcceleratorConfig | None = None,
                use_cache: bool = True) -> SchemeSweep:
    """Sweep all schemes over one graph workload (Fig. 14 data points)."""
    config = config or GraphAcceleratorConfig()
    key = ("graph-sweep", benchmark, algorithm, iterations, scale_divisor,
           config.cache_key())
    return _sweep_workload(
        lambda: graph_workload(benchmark, algorithm, iterations, scale_divisor,
                               config=config, use_cache=use_cache),
        key, use_cache,
    )
