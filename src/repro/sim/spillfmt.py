"""Columnar binary trace spills: the artifact cache's trace layout.

A trace spills in the structure-of-arrays form the generators already
produce::

    REPROCOL                          8-byte magic
    <header length>                   8-byte little-endian uint64
    <header JSON>                     utf-8, compact separators
    <zero padding>                    to the 64-byte data-section boundary
    <column blocks>                   raw little-endian arrays, 64-byte
                                      aligned, one block per column, each
                                      of length ``total_accesses``
    \\n#sha256:<payload digest>\\n      content-digest trailer (the
                                      framing every spill carries)

The header records the layout (``version``, per-phase
name/compute_cycles/access count, per-column dtype/offset/nbytes), so a
load is: parse a few hundred bytes of JSON, then build **zero-copy**
read-only :class:`AccessBatch` views with :func:`numpy.frombuffer` over
an ``mmap`` of the file.  Phases materialize their ``MemAccess`` objects
lazily (:class:`~repro.core.access.LazyAccessList`), so pricing sessions
price a warm-loaded trace without constructing a single access
object — and cooperating processes mmapping the same spill share one
copy of the columns in the OS page cache.

Encoding is equally object-free: :func:`phases_to_columns` concatenates
the trace's existing batch columns (``BatchedTrace`` always carries
them), so a spill never walks per-access Python objects either.

Loads check the trailer's framing and the payload's structure (magic,
version, bounds — which catches truncation); full bit-rot detection
against the digest is ``python -m repro.experiments cache verify``'s
job, exactly because hashing every page on load would defeat the lazy
mmap.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.access import AccessBatch, Phase, lazy_phase

#: The trace-spill layout version.  Bump it when the layout changes: a
#: spill in any other version is stale, a plain miss that is rebuilt.
SPILL_VERSION = 3

MAGIC = b"REPROCOL"
_HEADER_LEN = struct.Struct("<Q")

#: Column blocks (and the data section) start on this alignment.
DATA_ALIGN = 64

#: On-disk column order and dtypes — exactly the :class:`AccessBatch`
#: columns, explicitly little-endian.  The order is part of the format:
#: reordering is a layout change and needs a version bump.
COLUMN_DTYPES: tuple[tuple[str, str], ...] = (
    ("address", "<i8"),
    ("size", "<i8"),
    ("is_write", "|b1"),
    ("data_class", "<i8"),
    ("sequential", "|b1"),
    ("vn", "<u8"),
    ("vn_present", "|b1"),
    ("burst_bytes", "<i8"),
    ("spread_bytes", "<i8"),
)


def _align(offset: int) -> int:
    return (offset + DATA_ALIGN - 1) // DATA_ALIGN * DATA_ALIGN


@dataclass
class TraceColumns:
    """A whole trace in columnar form: per-phase metadata + one
    concatenated array per :class:`AccessBatch` column."""

    names: list[str]
    compute_cycles: list[float]
    #: Per-phase access counts; ``columns`` arrays all have ``sum(counts)``
    #: elements, phase *i* owning the half-open slice at ``cumsum``.
    counts: list[int]
    columns: dict[str, np.ndarray]

    @property
    def total_accesses(self) -> int:
        return sum(self.counts)


def phases_to_columns(phases: Sequence[Phase],
                      batches: Sequence[AccessBatch] | None = None,
                      ) -> TraceColumns:
    """The columnar form of a trace, without touching access objects.

    ``batches`` supplies the per-phase structure-of-arrays views
    (:class:`~repro.sim.runner.BatchedTrace` always carries them); the
    conversion is then pure array concatenation.  Without ``batches``
    (external callers holding only phases) the columns are built through
    :meth:`AccessBatch.from_phase` first.
    """
    if batches is None:
        batches = [AccessBatch.from_phase(phase) for phase in phases]
    columns: dict[str, np.ndarray] = {}
    for name, dtype_str in COLUMN_DTYPES:
        dtype = np.dtype(dtype_str)
        if batches:
            stacked = np.concatenate(
                [np.asarray(getattr(batch, name)) for batch in batches]
            ).astype(dtype, copy=False)
        else:
            stacked = np.zeros(0, dtype=dtype)
        columns[name] = stacked
    return TraceColumns(
        # compute_cycles passes through untouched (no float() coercion),
        # so int-valued cycles stay ints through a spill round trip.
        names=[phase.name for phase in phases],
        compute_cycles=[phase.compute_cycles for phase in phases],
        counts=[len(batch) for batch in batches],
        columns=columns,
    )


def columns_to_phases(cols: TraceColumns,
                      ) -> tuple[list[Phase], list[AccessBatch]]:
    """Rebuild per-phase batches (zero-copy slices) and lazy phases.

    The inverse of :func:`phases_to_columns`: each phase gets a sliced
    *view* of the whole-trace columns as its :class:`AccessBatch`
    (``source=None``) and a :class:`~repro.core.access.LazyAccessList`
    that constructs ``MemAccess`` objects only if something iterates it.
    """
    phases: list[Phase] = []
    batches: list[AccessBatch] = []
    start = 0
    for name, cycles, count in zip(cols.names, cols.compute_cycles,
                                   cols.counts):
        stop = start + count
        batch = AccessBatch(
            **{col: cols.columns[col][start:stop]
               for col, _ in COLUMN_DTYPES},
            source=None,
        )
        batches.append(batch)
        phases.append(lazy_phase(name, cycles, batch))
        start = stop
    return phases, batches


def _header_doc(cols: TraceColumns) -> tuple[bytes, int]:
    """Serialized header plus the derived data-section offset."""
    offset = 0
    specs = []
    for name, dtype_str in COLUMN_DTYPES:
        nbytes = cols.columns[name].nbytes
        specs.append({"name": name, "dtype": dtype_str,
                      "offset": offset, "nbytes": nbytes})
        offset = _align(offset + nbytes)
    header = {
        "version": SPILL_VERSION,
        "kind": "trace",
        "total_accesses": cols.total_accesses,
        "phases": [
            {"name": name, "compute_cycles": cycles, "accesses": count}
            for name, cycles, count in zip(cols.names, cols.compute_cycles,
                                           cols.counts)
        ],
        "columns": specs,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    data_start = _align(len(MAGIC) + _HEADER_LEN.size + len(header_bytes))
    return header_bytes, data_start


def encode_columns(cols: TraceColumns) -> bytes:
    """Pack columnar trace data into the columnar spill payload (no trailer)."""
    header_bytes, data_start = _header_doc(cols)
    out = bytearray(data_start)
    out[: len(MAGIC)] = MAGIC
    _HEADER_LEN.pack_into(out, len(MAGIC), len(header_bytes))
    out[len(MAGIC) + _HEADER_LEN.size:
        len(MAGIC) + _HEADER_LEN.size + len(header_bytes)] = header_bytes
    for name, dtype_str in COLUMN_DTYPES:
        block = np.ascontiguousarray(cols.columns[name],
                                     dtype=np.dtype(dtype_str))
        out += bytes(_align(len(out)) - len(out))
        out += block.tobytes()
    return bytes(out)


def encode_trace(trace) -> bytes:
    """A :class:`~repro.sim.runner.BatchedTrace` as the columnar spill payload."""
    return encode_columns(phases_to_columns(trace.phases, trace.batches))


def decode_columns(payload) -> TraceColumns:
    """Parse a columnar spill payload into zero-copy column views.

    ``payload`` may be ``bytes``, a ``memoryview`` or an ``mmap`` — the
    returned arrays are views over it (read-only when the buffer is),
    so the buffer must outlive them; :func:`numpy.frombuffer` keeps a
    reference, which is what makes the mmap path safe.

    Raises :class:`ValueError` on any structural problem — wrong magic,
    unsupported version, truncated header or column blocks — so callers
    treat a damaged spill exactly like a stale one: rebuild.
    """
    view = memoryview(payload)
    prefix = len(MAGIC) + _HEADER_LEN.size
    if len(view) < prefix or bytes(view[: len(MAGIC)]) != MAGIC:
        raise ValueError("not a columnar trace spill (bad magic)")
    (header_len,) = _HEADER_LEN.unpack_from(view, len(MAGIC))
    if prefix + header_len > len(view):
        raise ValueError("truncated spill header")
    try:
        header = json.loads(bytes(view[prefix: prefix + header_len]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"undecodable spill header: {exc}") from exc
    if header.get("version") != SPILL_VERSION:
        raise ValueError(
            f"unsupported columnar spill version {header.get('version')!r}"
        )
    total = int(header.get("total_accesses", -1))
    raw_phases = header.get("phases")
    specs = header.get("columns")
    if total < 0 or not isinstance(raw_phases, list) \
            or not isinstance(specs, list):
        raise ValueError("malformed spill header")
    counts = [int(p["accesses"]) for p in raw_phases]
    if sum(counts) != total:
        raise ValueError("phase access counts do not sum to the total")
    expected = {name: dtype for name, dtype in COLUMN_DTYPES}
    data_start = _align(prefix + header_len)
    columns: dict[str, np.ndarray] = {}
    for spec in specs:
        name = spec.get("name")
        if expected.get(name) != spec.get("dtype"):
            raise ValueError(f"unexpected column {name!r}:{spec.get('dtype')!r}")
        dtype = np.dtype(spec["dtype"])
        offset = int(spec["offset"])
        nbytes = int(spec["nbytes"])
        if nbytes != total * dtype.itemsize:
            raise ValueError(f"column {name!r} has inconsistent size")
        if data_start + offset + nbytes > len(view):
            raise ValueError(f"column {name!r} is truncated")
        columns[name] = np.frombuffer(view, dtype=dtype, count=total,
                                      offset=data_start + offset)
    if set(columns) != set(expected):
        raise ValueError("spill is missing columns")
    return TraceColumns(
        names=[str(p.get("name", "")) for p in raw_phases],
        compute_cycles=[p.get("compute_cycles", 0.0) for p in raw_phases],
        counts=counts,
        columns=columns,
    )


def decode_trace(payload):
    """A columnar spill payload as a :class:`~repro.sim.runner.BatchedTrace` of
    zero-copy batches and lazy phases."""
    from repro.sim.runner import BatchedTrace

    phases, batches = columns_to_phases(decode_columns(payload))
    return BatchedTrace(phases, batches)
