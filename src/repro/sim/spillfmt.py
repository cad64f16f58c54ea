"""Columnar binary trace spills: the artifact cache's trace layout.

A :class:`~repro.core.access.Trace` spills in its own form — one block
per :class:`~repro.core.access.AccessBatch` column plus the phase
table::

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
read-only column views with :func:`numpy.frombuffer` over an ``mmap`` of
the file.  Pricing sessions price those views directly, so a warm-loaded
trace never constructs an access object, and cooperating processes
mmapping the same spill share one copy of the columns in the OS page
cache.  Encoding writes the trace's columns as they are.

Loads check the trailer's framing and the payload's structure (magic,
version, bounds, the phase table — which catches truncation); full
bit-rot detection against the digest is ``python -m repro.experiments
cache verify``'s job, exactly because hashing every page on load would
defeat the lazy mmap.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.common.errors import ConfigError
from repro.core.access import COLUMN_DTYPES, AccessBatch, Trace

#: The trace-spill layout version.  Bump it when the layout changes: a
#: spill in any other version is stale, a plain miss that is rebuilt.
SPILL_VERSION = 3

MAGIC = b"REPROCOL"
_HEADER_LEN = struct.Struct("<Q")

#: Column blocks (and the data section) start on this alignment.
DATA_ALIGN = 64


def _align(offset: int) -> int:
    return (offset + DATA_ALIGN - 1) // DATA_ALIGN * DATA_ALIGN


def _header_doc(trace: Trace) -> bytes:
    """The serialized header of ``trace``'s spill."""
    offset = 0
    specs = []
    for name, dtype_str in COLUMN_DTYPES:
        nbytes = getattr(trace.batch, name).nbytes
        specs.append({"name": name, "dtype": dtype_str,
                      "offset": offset, "nbytes": nbytes})
        offset = _align(offset + nbytes)
    header = {
        "version": SPILL_VERSION,
        "kind": "trace",
        "total_accesses": trace.total_accesses,
        "phases": [
            {"name": name, "compute_cycles": cycles, "accesses": count}
            for name, cycles, count in zip(trace.names, trace.compute_cycles,
                                           np.diff(trace.offsets).tolist())
        ],
        "columns": specs,
    }
    return json.dumps(header, separators=(",", ":")).encode()


def encode_trace(trace: Trace) -> bytes:
    """A trace as the columnar spill payload (no trailer)."""
    header_bytes = _header_doc(trace)
    data_start = _align(len(MAGIC) + _HEADER_LEN.size + len(header_bytes))
    out = bytearray(data_start)
    out[: len(MAGIC)] = MAGIC
    _HEADER_LEN.pack_into(out, len(MAGIC), len(header_bytes))
    out[len(MAGIC) + _HEADER_LEN.size:
        len(MAGIC) + _HEADER_LEN.size + len(header_bytes)] = header_bytes
    for name, dtype_str in COLUMN_DTYPES:
        block = np.ascontiguousarray(getattr(trace.batch, name),
                                     dtype=np.dtype(dtype_str))
        out += bytes(_align(len(out)) - len(out))
        out += block.tobytes()
    return bytes(out)


def decode_trace(payload) -> Trace:
    """Parse a columnar spill payload into a trace of zero-copy column views.

    ``payload`` may be ``bytes``, a ``memoryview`` or an ``mmap`` — the
    returned arrays are views over it (read-only when the buffer is),
    so the buffer must outlive them; :func:`numpy.frombuffer` keeps a
    reference, which is what makes the mmap path safe.

    Raises :class:`ValueError` on any structural problem — wrong magic,
    unsupported version, truncated header or column blocks, a bad phase
    table — so callers treat a damaged spill exactly like a stale one:
    rebuild.
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
    try:
        return Trace(
            names=[str(p.get("name", "")) for p in raw_phases],
            compute_cycles=[p.get("compute_cycles", 0.0) for p in raw_phases],
            offsets=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            batch=AccessBatch(**columns),
        )
    except ConfigError as exc:
        raise ValueError(f"bad spill phase table: {exc}") from exc
