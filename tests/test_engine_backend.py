"""Backend selection, tree-geometry encoding, and cross-backend pricing.

``REPRO_ENGINE`` picks which LRU-engine implementation prices the
cached/tree schemes; every backend must be byte-identical, so the tests
here pin (a) the selection rules themselves, (b) the
:class:`TreeGeometry` region tables counter-mode schemes hand both
backends — their validation, and the walk-wave parents against the
per-line parent — (c) whole-suite pricing equality between forced
backends, and (d) cache-sized runs whose tree walks follow a washed-out
cache against the per-access ``process`` walk.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.engine_backend as engine_backend
from repro.common.errors import ConfigError
from repro.core.access import AccessBatch, AccessKind, DataClass, MemAccess
from repro.core.engine_backend import (
    TreeGeometry,
    active_backend,
    create_engine,
    native_available,
    native_error,
    requested_backend,
    resolve_backend,
)
from repro.core.lru_engine import EventSink, LruEngine
from repro.core.schemes import scheme_suite
from repro.core.schemes.base import one_phase
from repro.core.schemes.counter_mode import (
    FINE_MAC_POLICY,
    CounterModeProtection,
)

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native engine unavailable: {native_error()}",
)

BACKENDS = ("python",) + (("native",) if native_available() else ())


class TestSelection:
    def test_requested_backend_default_and_forced(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert requested_backend() == "auto"
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert requested_backend() == "python"
        monkeypatch.setenv("REPRO_ENGINE", " Native ")
        assert requested_backend() == "native"

    def test_invalid_request_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "cython")
        with pytest.raises(ConfigError):
            requested_backend()

    def test_python_always_resolves(self):
        assert resolve_backend("python") == "python"

    def test_auto_never_fails(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_backend() in ("python", "native")
        assert active_backend() in ("python", "native")
        if native_available():
            assert resolve_backend() == "native"

    def test_forced_native_without_compiler_is_config_error(self, monkeypatch):
        monkeypatch.setattr(engine_backend, "_lib", False)
        monkeypatch.setattr(engine_backend, "_load_error", "no C compiler")
        with pytest.raises(ConfigError, match="no C compiler"):
            resolve_backend("native")
        # auto degrades gracefully to the reference implementation
        assert resolve_backend("auto") == "python"
        assert native_error() == "no C compiler"

    def test_create_engine_python_forced(self):
        engine = create_engine(8, backend="python",
                               geometry=TreeGeometry(()))
        assert isinstance(engine, LruEngine)
        assert engine.backend_name == "python"

    @needs_native
    def test_create_engine_native_with_geometry(self):
        from repro.core.lru_native import NativeLruEngine

        engine = create_engine(8, backend="native", geometry=TreeGeometry(()))
        assert isinstance(engine, NativeLruEngine)
        assert engine.backend_name == "native"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_geometry_line_size_must_match_engine(self, backend):
        """A table built for 32-byte lines on a 64-byte engine would
        price different parents on each backend: both reject it."""
        geometry = TreeGeometry(((0, 4096, 4096, 8),), 32)
        with pytest.raises(ConfigError, match="line_bytes"):
            create_engine(2, line_bytes=64, geometry=geometry,
                          backend=backend)
        engine = create_engine(2, line_bytes=32, geometry=geometry,
                               backend=backend)
        sink = EventSink()
        # One row: 12 dirty 32-byte MAC lines from address 0.
        zero = np.zeros(1, dtype=np.int64)
        engine.probe_run_batch(zero, np.array([12]), zero, zero,
                               np.ones(1, dtype=bool), np.zeros(1, dtype=bool),
                               np.zeros(1, dtype=np.uint8), sink)
        assert sink.drain_parent_misses().tolist() == [4096, 4128]


class TestTreeGeometry:
    def test_encode_layout(self):
        table = TreeGeometry(((0, 640, 640, 8), (640, 720, 720, 4)), 64)
        assert table.encode().tolist() == [2, 0, 640, 640, 8, 640, 720, 720, 4]

    @pytest.mark.parametrize("regions, line_bytes", [
        (((0, 640, 640, 0),), 64),
        (((0, 640, 640, -8),), 64),
        (((640, 640, 1280, 8),), 64),
        (((1280, 640, 2000, 8),), 64),
        (((0, 1280, 2000, 8), (640, 1280, 4000, 8)), 64),
        (((640, 1280, 2000, 8), (0, 640, 4000, 8)), 64),
        ((), 0),
        (((0, 640, 640, 8),), -64),
    ], ids=["zero-arity", "negative-arity", "empty-region", "inverted-region",
            "overlapping", "descending", "zero-line", "negative-line"])
    def test_invalid_tables_rejected(self, regions, line_bytes):
        """Tables a sorted gather (or the C loop) cannot evaluate — a
        zero divisor, an empty or inverted range, regions out of order
        or overlapping — are configuration errors, not crashes."""
        with pytest.raises(ConfigError):
            TreeGeometry(regions, line_bytes)

    def test_adjacent_regions_accepted(self):
        table = TreeGeometry(((0, 640, 2000, 8), (640, 1280, 4000, 1)), 64)
        assert table.parent_of(576) == 2064
        assert table.parent_of(640) == 4000
        assert table.parent_of(704) == 4064

    @given(data=st.data(), line_bytes=st.sampled_from([32, 64]),
           n_regions=st.integers(min_value=1, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_parents_gather_matches_parent_of(self, data, line_bytes,
                                              n_regions):
        """``parent_of`` ≡ the C backend's region scan on random valid
        tables, at every region boundary ±1 line and at random addresses
        in and between the regions; and ``parents`` ≡ C's walk wave,
        ``parent_of`` per line with ``None`` and a repeat of the previous
        parent dropped, over lines in any order and over ranges of
        consecutive lines (a walk's seeds when its VN range missed
        throughout) in, across and outside the regions."""
        regions = []
        cursor = data.draw(st.integers(min_value=0, max_value=8))
        for _ in range(n_regions):
            cursor += data.draw(st.integers(min_value=0, max_value=6))
            size = data.draw(st.integers(min_value=1, max_value=40))
            parent_line = data.draw(st.integers(min_value=0, max_value=500))
            arity = data.draw(st.integers(min_value=1, max_value=8))
            regions.append((cursor * line_bytes,
                            (cursor + size) * line_bytes,
                            parent_line * line_bytes, arity))
            cursor += size
        table = TreeGeometry(tuple(regions), line_bytes)
        edges = {edge + delta * line_bytes
                 for base, end, _, _ in regions for edge in (base, end)
                 for delta in (-1, 0, 1)}
        extra = data.draw(st.lists(
            st.integers(min_value=0, max_value=(cursor + 8) * line_bytes),
            max_size=30))
        addresses = data.draw(st.permutations(
            sorted(a for a in edges | set(extra) if a >= 0)))
        expected = [table.parent_of(a) for a in addresses]
        # ``parent_of`` itself ≡ the C backend's first-match region scan.
        assert expected == [
            next((parent + (a - base) // line_bytes // arity * line_bytes
                  for base, end, parent, arity in regions if base <= a < end),
                 None)
            for a in addresses]

        def wave(lines):
            out = []
            for line in lines:
                parent = table.parent_of(line)
                if parent is not None and (not out or out[-1] != parent):
                    out.append(parent)
            return out

        lines = [a - a % line_bytes for a in addresses]
        assert table.parents(lines) == wave(lines)
        stretches = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=cursor + 8),
                      st.integers(min_value=1, max_value=24)),
            min_size=1, max_size=4))
        for first, count in stretches:
            stretch = range(first * line_bytes, (first + count) * line_bytes,
                            line_bytes)
            assert list(table.parents(stretch)) == wave(stretch)

    def test_empty_table_gathers_no_parents(self):
        table = TreeGeometry((), 64)
        assert table.parents([0, 64]) == []
        assert not table.parents(range(0, 128, 64))
        assert table.parent_of(0) is None

    def test_parent_of_outside_regions_is_none(self):
        table = TreeGeometry(((128, 256, 512, 4),), 64)
        assert table.parent_of(0) is None
        assert table.parent_of(256) is None
        assert table.parent_of(128) == 512
        assert table.parent_of(192) == 512
        assert table.parent_of(128 + 4 * 64) is None  # past the region

    def test_scheme_geometry_matches_parent_of(self):
        """The region table a scheme builds IS its ``_parent_of``."""
        scheme = CounterModeProtection(
            "T", vn_onchip=False, mac_policy=FINE_MAC_POLICY,
            protected_bytes=1 << 20, cache_bytes=32 * 1024,
        )
        table = scheme._tree_geometry()
        top = scheme._tree.level_base(scheme._tree.stored_levels) + \
            scheme._tree.level_sizes[scheme._tree.stored_levels - 1] * 64
        for address in range(0, top + 8 * 64, 64):
            assert table.parent_of(address) == scheme._parent_of(address), \
                hex(address)


def _price_session(scheme, batches):
    """One traffic per batch, priced through one pricing session."""
    with scheme.pricing_session() as session:
        return [session.price(batch, one_phase(batch)).total()
                for batch in batches]


def _sequential_trace():
    """A few batches that exercise runs, walks, chains, and floods."""
    base = 0
    accesses = [
        MemAccess(base, 96 * 1024, AccessKind.READ, DataClass.FEATURE, vn=1),
        MemAccess(base + 128 * 1024, 8 * 1024, AccessKind.WRITE,
                  DataClass.FEATURE, vn=2),
        MemAccess(base, 96 * 1024, AccessKind.READ, DataClass.FEATURE, vn=1),
        MemAccess(base + 512 * 1024, 256 * 1024, AccessKind.WRITE,
                  DataClass.WEIGHT, vn=3),
        MemAccess(base + 64 * 1024, 32 * 1024, AccessKind.READ,
                  DataClass.FEATURE, vn=2),
    ]
    return [AccessBatch.from_accesses(accesses[:2]),
            AccessBatch.from_accesses(accesses[2:])]


@needs_native
class TestCrossBackendPricing:
    def test_suite_tables_identical_across_backends(self, monkeypatch):
        """Every scheme's priced traffic is byte-identical per backend."""
        batches = _sequential_trace()
        results = {}
        for backend in ("python", "native"):
            monkeypatch.setenv("REPRO_ENGINE", backend)
            suite = scheme_suite(1 << 20)
            table = {}
            for name, scheme in suite.items():
                traffics = _price_session(scheme, batches)
                tail = scheme.finish()
                table[name] = ([t.__dict__ for t in traffics], tail.__dict__)
                if isinstance(scheme, CounterModeProtection) and \
                        scheme._cache is not None:
                    assert scheme.engine_backend == backend
                    table[name] += (scheme._cache.stats.as_dict(),)
            results[backend] = table
        assert results["python"] == results["native"]


@needs_native
class TestCacheSelfHealing:
    def test_corrupt_cached_so_recompiles(self, monkeypatch, tmp_path):
        """A truncated/garbage artifact in the content-addressed cache
        must be deleted and rebuilt, not disable the backend."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(engine_backend, "_lib", None)
        monkeypatch.setattr(engine_backend, "_load_error", None)
        source = engine_backend._SOURCE.read_bytes()
        import hashlib

        digest = hashlib.sha256(source).hexdigest()[:16]
        bad = tmp_path / f"lru_native-{digest}.so"
        bad.write_bytes(b"\x7fELF not actually a shared object")
        lib = engine_backend.native_library()
        assert lib is not None and lib is not False
        # The poisoned file was replaced by a working build.
        assert bad.stat().st_size > 64
        engine = create_engine(8, backend="native", geometry=TreeGeometry(()))
        assert engine.backend_name == "native"

    def test_truncated_cached_so_recompiles(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(engine_backend, "_lib", None)
        monkeypatch.setattr(engine_backend, "_load_error", None)
        good = engine_backend._compile_library()
        data = good.read_bytes()
        # Keep only the ELF ident: dlopen rejects it cleanly (a longer
        # truncation could map and then fault past end-of-file).
        good.write_bytes(data[:64])
        lib = engine_backend.native_library()
        assert lib is not None and lib is not False
        assert good.stat().st_size > 64


@pytest.mark.parametrize("backend", BACKENDS)
class TestClosedFormWalk:
    def _scheme(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_ENGINE", backend)
        # Eight metadata-cache lines: a ~3 KiB sequential access floods
        # MAC+VN runs past capacity without either run flooding alone.
        return CounterModeProtection(
            "T", vn_onchip=False, mac_policy=FINE_MAC_POLICY,
            protected_bytes=1 << 20, cache_bytes=8 * 64,
        )

    def test_flood_adjacent_walk_matches_probed_walk(self, monkeypatch,
                                                     backend):
        """Rows whose MAC and VN ranges together outrun the cache, so
        that their tree walks climb a washed-out cache, price as the
        per-access ``process`` walk does: per-phase traffic, cache
        contents and stats on each backend."""
        accesses = [
            MemAccess(0, 3 * 1024, AccessKind.READ, DataClass.FEATURE, vn=1),
            MemAccess(8 * 1024, 3 * 1024, AccessKind.READ,
                      DataClass.FEATURE, vn=1),
            MemAccess(0, 512, AccessKind.WRITE, DataClass.FEATURE, vn=2),
            MemAccess(16 * 1024, 2 * 1024, AccessKind.READ,
                      DataClass.FEATURE, vn=1),
        ]
        batch = AccessBatch.from_accesses(accesses)
        priced = self._scheme(monkeypatch, backend)
        with priced.pricing_session() as session:
            table = session.price(batch, np.arange(len(accesses) + 1)).table
        reference = self._scheme(monkeypatch, backend)
        expected = [astuple(reference.process(access)) for access in accesses]
        assert [tuple(row) for row in table.tolist()] == expected
        assert list(priced._cache.contents().items()) == \
            list(reference._cache.contents().items())
        assert priced._cache.stats.as_dict() == \
            reference._cache.stats.as_dict()
        assert priced.stats.as_dict() == reference.stats.as_dict()
