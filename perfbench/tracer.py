"""Per-layer spans recorded from outside the program.

The traced run wraps public functions of each layer in place (module
attributes, class attributes, and every module-level alias that already
refers to them) before the program starts.  Each wrapper records one
span: wall time, call count and optional counters.  A layer's *self*
time is its spans' duration minus the time its nested spans cover, so
the self times of all layers plus ``unattributed_s`` add up to the
pass's wall time.  Spans nest per thread; the serving workload prices
on a thread pool, so overlapping threads can make the sum exceed wall.

Span names follow the layer names in ROADMAP item 1 (``build.*``,
``columns``, ``price.glue``/``price.engine``, ``perf_model``,
``cache.read``/``cache.write``, ``render``, ``serve.*``), so an
in-program registry can adopt them unchanged.

Nothing here imports the program at module import time; ``install``
does, after the caller has timed the entry-point imports.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span totals: self seconds, calls and named counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` timed as span ``name``; ``on_return(tracer, args,
        kwargs, result)`` adds counters after a successful call.

        A coroutine function is timed from first resume to completion,
        which is exact only for coroutines that never suspend (the one
        traced here, ``TenantClient.connect``, does not).
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                token = self._enter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._exit(name, token)
                if on_return is not None:
                    on_return(self, args, kwargs, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, token)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def _enter(self) -> tuple[list, float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(0.0)
        return stack, time.perf_counter()

    def _exit(self, name: str, token: tuple[list, float]) -> None:
        stack, start = token
        elapsed = time.perf_counter() - start
        child = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.self_s[name] += elapsed - child
            self.calls[name] += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def to_doc(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded module-level alias of ``original`` at
    ``replacement`` (``from x import f`` copies the reference)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def patch_function(tracer: Tracer, module, attr: str, name: str) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(original, name))


def patch_method(tracer: Tracer, cls, attr: str, name: str, **kw) -> None:
    """Wrap ``cls.attr`` where it is defined on ``cls`` itself (plain or
    class method)."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, **kw)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, **kw))


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _patch_overrides(tracer: Tracer, base, attr: str, name: str,
                     **kw) -> None:
    """Wrap ``attr`` on ``base`` and on every subclass overriding it."""
    for cls in _subclasses(base):
        if attr in cls.__dict__:
            patch_method(tracer, cls, attr, name, **kw)


def _public_methods(cls) -> list[str]:
    return [attr for attr, value in cls.__dict__.items()
            if not attr.startswith("_") and callable(value)]


# -- counters -----------------------------------------------------------

def _count_accesses(tracer, args, kwargs, result) -> None:
    tracer.count("price.batches")
    tracer.count("price.accesses", len(args[1]))


def _count_seal_bytes(tracer, args, kwargs, result) -> None:
    plaintext = args[2] if len(args) > 2 else kwargs["plaintext"]
    tracer.count("serve.seal.bytes", len(plaintext))


_CACHE_POINTS = {"spill_read": "cache.read", "spill_write": "cache.write"}


def _patch_cache_io(tracer: Tracer, faults) -> None:
    """``faults.call_with_retries`` keyed by its seam: spill reads and
    writes become ``cache.read``/``cache.write`` spans; every attempt
    after the first counts as a retry (its backoff sleep is inside the
    span)."""
    original = faults.call_with_retries
    timed = {span: tracer.wrap(original, span) for span in
             _CACHE_POINTS.values()}

    @functools.wraps(original)
    def call_with_retries(fn, point, context, **kwargs):
        span = _CACHE_POINTS.get(point)
        if span is None:
            return original(fn, point, context, **kwargs)
        attempts = 0

        def attempt():
            nonlocal attempts
            attempts += 1
            return fn()

        try:
            result = timed[span](attempt, point, context, **kwargs)
        finally:
            tracer.count(f"{span}.retries", max(0, attempts - 1))
        if span == "cache.write" and isinstance(result, int):
            tracer.count("cache.write.bytes", result)
        return result

    _replace_everywhere(original, call_with_retries)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see the module doc)."""
    from repro.core.access import AccessBatch
    from repro.core.lru_engine import LruEngine
    from repro.core.lru_native import NativeLruEngine
    from repro.core.schemes import base as scheme_base
    from repro.core.schemes import counter_mode  # noqa: F401  (subclasses)
    from repro.crypto.gcm import AesGcm
    from repro.dnn.tracegen import DnnTraceGenerator
    from repro.dram.model import DramModel
    from repro.experiments.base import ExperimentResult
    from repro.experiments.registry import RequestSpec
    from repro.genome import profile as genome_profile
    from repro.genome.dsoft import SeedIndex
    from repro.graph import generators
    from repro.graph.csr import CsrMatrix
    from repro.graph.graphlily import GraphTraceGenerator
    from repro.serve.protocol import TenantClient
    from repro.serve.server import ProtectionServer
    from repro.sim import faults
    from repro.video import profile as video_profile

    patch_method(tracer, DnnTraceGenerator, "inference", "build.dnn_trace")
    patch_method(tracer, DnnTraceGenerator, "training_step",
                 "build.dnn_trace")
    patch_function(tracer, generators, "rmat_edges", "build.graph.rmat")
    patch_method(tracer, CsrMatrix, "from_edges", "build.graph.csr")
    for attr in ["__init__"] + [a for a in GraphTraceGenerator.__dict__
                                if a.endswith("_trace")]:
        patch_method(tracer, GraphTraceGenerator, attr, "build.graph.trace")
    patch_method(tracer, SeedIndex, "__init__", "build.seed_index")
    patch_function(tracer, genome_profile, "measure_tile_profile",
                   "build.genome")
    patch_function(tracer, video_profile, "decode_profile", "build.video")

    patch_method(tracer, AccessBatch, "from_phase", "columns")
    _patch_overrides(tracer, scheme_base.PricingSession, "price",
                     "price.glue", on_return=_count_accesses)
    _patch_overrides(tracer, scheme_base.ProtectionScheme, "finish",
                     "price.glue")
    for engine in (LruEngine, NativeLruEngine):
        for attr in _public_methods(engine):
            patch_method(tracer, engine, attr, "price.engine")
    patch_method(tracer, DramModel, "cycles_for", "perf_model")

    _patch_cache_io(tracer, faults)
    patch_method(tracer, ExperimentResult, "to_text", "render")

    patch_method(tracer, TenantClient, "connect", "serve.handshake")
    patch_method(tracer, AesGcm, "encrypt", "serve.seal",
                 on_return=_count_seal_bytes)
    patch_method(tracer, AesGcm, "decrypt", "serve.unseal")
    patch_method(tracer, RequestSpec, "build", "serve.compute")
    # Result requests are priced in batched groups, not via
    # ``RequestSpec.build``; the group pricer is their compute step.
    patch_method(tracer, ProtectionServer, "_price_entries", "serve.compute")
    patch_method(tracer, RequestSpec, "encode", "serve.encode")
