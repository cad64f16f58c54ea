"""Pricing-engine backend selection: pure-Python vs compiled native.

The reuse-distance LRU engine has two interchangeable implementations:

* ``python`` — :class:`~repro.core.lru_engine.LruEngine`, the Hypothesis-
  pinned reference (one line walk over an ``OrderedDict``);
* ``native`` — :class:`~repro.core.lru_native.NativeLruEngine`, the same
  scalar semantics compiled from ``_lru_native.c`` at first use and
  loaded through :mod:`ctypes` (no third-party build dependency).

``REPRO_ENGINE`` selects the backend: ``auto`` (default) prefers native
and falls back to Python when no C compiler is available, ``python`` /
``native`` force one.  Forcing ``native`` without a working compiler is
a :class:`~repro.common.errors.ConfigError`; ``auto`` never fails.

Every backend is event- and state-identical to
:meth:`~repro.core.metadata_cache.MetadataCache.access` — the pricing-
equivalence chain in ROADMAP "Architecture invariants" extends to each
of them, pinned by the backend-parametrized Hypothesis models in
``tests/test_lru_engine.py``.

Tree-aware consumers describe their metadata layout's integrity-tree
parent function as a :class:`TreeGeometry` — a flat table of ``(base,
end, parent_base, arity)`` regions.  Both backends take the same table:
the C code scans it per line, and so does the Python engine, except that
a walk level that missed throughout, a range of lines, maps to its
parents in one step.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.common.errors import ConfigError
from repro.common.units import CACHE_BLOCK

BACKENDS = ("auto", "python", "native")

_SOURCE = Path(__file__).with_name("_lru_native.c")

#: Lazily resolved: ``None`` until the first availability probe, then a
#: ctypes library handle or ``False`` (with the reason in ``_load_error``).
_lib: object | None = None
_load_error: str | None = None


@dataclass(frozen=True)
class TreeGeometry:
    """Region table describing a metadata layout's parent function.

    Each region ``(base, end, parent_base, arity)`` maps addresses in
    ``[base, end)`` to ``parent_base + (addr - base) // (arity *
    line_bytes) * line_bytes``; addresses in no region (MAC lines, the
    top stored tree level) have no parent.  Regions are non-empty,
    ascending and disjoint (adjacent is fine), so an address lies in at
    most one.  This is exactly the shape of
    ``CounterModeProtection._parent_of``, evaluated identically by the C
    backend's ``parent_of`` and here, per line or per walk wave.
    """

    regions: tuple[tuple[int, int, int, int], ...] = ()
    line_bytes: int = CACHE_BLOCK

    def __post_init__(self) -> None:
        bounds = [edge for region in self.regions for edge in region[:2]]
        if (self.line_bytes <= 0 or bounds != sorted(bounds)
                or any(base >= end or arity < 1
                       for base, end, _, arity in self.regions)):
            raise ConfigError(
                f"invalid tree geometry {self.regions} with line_bytes "
                f"{self.line_bytes}: regions must be non-empty, ascending "
                "and disjoint, with arity >= 1 and line_bytes > 0"
            )
        # Not a dataclass field: equality and hashing stay on the table.
        object.__setattr__(self, "_bounds", bounds)

    def parent_of(self, address: int) -> int | None:
        """The parent line of ``address`` (``None``: no stored parent)."""
        entry = bisect_right(self._bounds, address)
        if entry % 2 == 0:
            return None  # below, between or above the regions
        base, _, parent_base, arity = self.regions[entry // 2]
        line_bytes = self.line_bytes
        return parent_base + (address - base) // (arity * line_bytes) * line_bytes

    def parents(self, lines) -> list[int] | range:
        """C's walk wave over ``lines``: each line's stored parent, with
        ``None`` and a repeat of the previous parent dropped.  A ``range``
        of consecutive lines inside one region has a range of parents."""
        line_bytes = self.line_bytes
        if isinstance(lines, range) and lines and lines.step == line_bytes:
            entry = bisect_right(self._bounds, lines[0])
            if entry % 2 and lines[-1] < self._bounds[entry]:
                base, _, parent_base, arity = self.regions[entry // 2]
                stride = arity * line_bytes
                return range(
                    parent_base + (lines[0] - base) // stride * line_bytes,
                    parent_base + ((lines[-1] - base) // stride + 1)
                    * line_bytes, line_bytes)
        parent_of = self.parent_of
        wave: list[int] = []
        for line in lines:
            parent = parent_of(line)
            if parent is not None and (not wave or wave[-1] != parent):
                wave.append(parent)
        return wave

    def encode(self) -> np.ndarray:
        """Flat int64 form consumed by the C backend."""
        flat = [len(self.regions)]
        for region in self.regions:
            flat.extend(region)
        return np.array(flat, dtype=np.int64)


def engine_geometry(geometry: TreeGeometry | None,
                    line_bytes: int) -> TreeGeometry:
    """An engine's geometry: ``None`` is the empty table, and a table
    for another line size is a :class:`ConfigError` (the backends would
    disagree on its parent arithmetic)."""
    if geometry is None:
        return TreeGeometry((), line_bytes)
    if geometry.line_bytes != line_bytes:
        raise ConfigError(
            f"geometry line_bytes {geometry.line_bytes} differs from the "
            f"engine's {line_bytes}"
        )
    return geometry


def requested_backend() -> str:
    """The ``REPRO_ENGINE`` request (validated; default ``auto``)."""
    name = os.environ.get("REPRO_ENGINE", "auto").strip().lower() or "auto"
    if name not in BACKENDS:
        raise ConfigError(
            f"REPRO_ENGINE must be one of {BACKENDS}, got {name!r}"
        )
    return name


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_dir() -> Path:
    root = os.environ.get("REPRO_NATIVE_CACHE")
    if root:
        return Path(root)
    return Path(tempfile.gettempdir()) / "repro-native"


def _compile_library() -> Path:
    """Compile ``_lru_native.c`` into a content-addressed shared object."""
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    build_dir = _build_dir()
    target = build_dir / f"lru_native-{digest}.so"
    if target.exists():
        return target
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    build_dir.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(f".tmp.{os.getpid()}.so")
    command = [compiler, "-O2", "-shared", "-fPIC", "-o", str(tmp),
               str(_SOURCE)]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"native engine build failed: {proc.stderr.strip()[:500]}"
        )
    os.replace(tmp, target)  # atomic: concurrent builders race safely
    return target


def _declare(lib) -> None:
    import ctypes

    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    state = [p] * 7  # hdr..geom, see ENG_ARGS in _lru_native.c
    events = [p, p, p, p, i64]  # miss/wb/pm buffers, fills, capacity
    lib.lru_runs.argtypes = state + [p, p, p, p, p, p, p, i64, p, p, p, p] + events
    lib.lru_runs.restype = i64
    lib.lru_load.argtypes = state + [p, p, i64]
    lib.lru_load.restype = None
    lib.lru_export.argtypes = state + [p, p]
    lib.lru_export.restype = i64


def _load_library():
    """Compile (or reuse) the cached ``.so`` and bind its symbols.

    A corrupted or truncated artifact in the content-addressed cache —
    a crashed writer, a bad disk, a stale CI cache entry — fails to
    ``CDLL`` (or lacks a declared symbol); that single bad file must
    not disable the backend, so it is deleted and rebuilt from source
    once before giving up.
    """
    import ctypes

    target = _compile_library()
    try:
        lib = ctypes.CDLL(str(target))
        _declare(lib)
        return lib
    except (OSError, AttributeError):
        try:
            os.unlink(target)
        except OSError:
            pass
        lib = ctypes.CDLL(str(_compile_library()))
        _declare(lib)
        return lib


def native_library():
    """The loaded native library (compiled on first use).

    Raises :class:`RuntimeError` with the build failure when the native
    backend cannot be provided; use :func:`native_available` to probe.
    """
    global _lib, _load_error
    if _lib is not None:
        if _lib is False:
            raise RuntimeError(_load_error or "native engine unavailable")
        return _lib
    try:
        lib = _load_library()
    except (RuntimeError, OSError, AttributeError) as exc:
        _lib = False
        _load_error = str(exc)
        raise RuntimeError(_load_error) from exc
    _lib = lib
    return lib


def native_available() -> bool:
    try:
        native_library()
    except RuntimeError:
        return False
    return True


def native_error() -> str | None:
    """Why the native backend is unavailable (``None`` when it loads)."""
    if native_available():
        return None
    return _load_error


#: Set when an ``auto`` session demoted itself to the python backend
#: after a native-engine fault; holds the reason.  The demotion prints
#: exactly one warning and is sticky for the session: an engine that
#: faulted once should not be retried per-workload mid-suite (the
#: python backend is byte-identical, so tables are unaffected).
_demotion_reason: str | None = None


def demote_to_python(reason: str) -> None:
    """Demote this session's ``auto`` backend resolution to python."""
    global _demotion_reason
    if _demotion_reason is None:
        print(f"repro: native engine faulted ({reason}); using the python "
              "backend for the rest of this session", file=sys.stderr)
    _demotion_reason = reason


def demotion_reason() -> str | None:
    """Why this session demoted to python (``None``: not demoted)."""
    return _demotion_reason


def clear_demotion() -> None:
    """Undo a session demotion (tests and explicit re-probes)."""
    global _demotion_reason
    _demotion_reason = None


def resolve_backend(name: str | None = None) -> str:
    """Resolve a request (default: ``REPRO_ENGINE``) to python/native."""
    name = requested_backend() if name is None else name
    if name == "python":
        return "python"
    if name == "native":
        if not native_available():
            raise ConfigError(
                f"REPRO_ENGINE=native but the native engine is unavailable: "
                f"{native_error()}"
            )
        return "native"
    if _demotion_reason is not None:
        return "python"  # degraded mode: the session saw native fault
    return "native" if native_available() else "python"


def active_backend() -> str:
    """The backend :func:`create_engine` would pick right now.

    Surfaced in ``TraceCache.stats()`` / ``cache stats`` and the bench
    JSON so every priced table records which engine produced it.
    """
    try:
        return resolve_backend()
    except ConfigError:
        return "python"


def create_engine(capacity_lines: int, line_bytes: int = CACHE_BLOCK,
                  geometry: TreeGeometry | None = None,
                  backend: str | None = None):
    """Build an LRU engine on the selected backend.

    Both backends take the same arguments: ``geometry`` is the tree's
    parent function (``None``: no line has a parent), and its
    ``line_bytes`` must equal the engine's (a
    :class:`~repro.common.errors.ConfigError` otherwise).
    """
    resolved = resolve_backend(backend)
    if resolved == "native":
        # Imported lazily: core must stay importable without repro.sim
        # (the sim package imports core during its own init).
        from repro.sim import faults

        try:
            faults.maybe_fault("native_call", f"engine-{capacity_lines}")
            from repro.core.lru_native import NativeLruEngine

            return NativeLruEngine(capacity_lines, line_bytes=line_bytes,
                                   geometry=geometry)
        except (faults.FaultInjected, RuntimeError, OSError) as exc:
            request = requested_backend() if backend is None else backend
            if request == "native":
                raise  # forced native: degraded mode is not an answer
            # auto: demote the whole session once — the python backend
            # is byte-identical, so only speed degrades, never tables.
            demote_to_python(f"{type(exc).__name__}: {exc}")
    from repro.core.lru_engine import LruEngine

    return LruEngine(capacity_lines, line_bytes=line_bytes,
                     geometry=geometry)
