"""The memory-access vocabulary shared by accelerators and protection schemes.

Accelerators move data between on-chip buffers and DRAM in *block
transfers* much larger than a cache line (a weight tile, a feature-map
tile, a chunk of adjacency list).  A :class:`MemAccess` describes one such
transfer: where, how much, read or write, which class of data it carries
(which selects the VN space per Fig. 6 and the MAC granularity), and
whether the transfer streams contiguously or gathers scattered blocks.

A *phase* is one schedulable unit of work (a DNN layer tile pass, one
tile-column of an SpMV, one GACT tile): its block transfers plus the
compute cycles the functional units spend on it.  The performance model
overlaps compute and memory per phase (double buffering), which is how
the paper's simulators combine SCALE-Sim / RTL timing with Ramulator.

A whole trace is one :class:`Trace`: a single :class:`AccessBatch` of
columns over every transfer plus a phase table (names, compute cycles,
row offsets).  The trace builders append to it through a
:class:`TraceBuilder`; :class:`MemAccess` and :class:`Phase` are the
object form, used by the per-access reference walk, the JSON trace
interchange and the VN-discipline validator, and converted with
:meth:`Trace.from_phases` / :meth:`Trace.to_phases`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.common.errors import ConfigError


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"


class DataClass(enum.Enum):
    """What the bytes are, which determines VN space and MAC granularity.

    The first three mirror Fig. 6's counter tag bits for DNNs; the rest
    cover the graph, genome and video case studies plus a generic bulk
    class.
    """

    FEATURE = "feature"
    WEIGHT = "weight"
    GRADIENT = "gradient"
    ADJACENCY = "adjacency"
    VECTOR = "vector"
    EMBEDDING = "embedding"
    SEQUENCE = "sequence"
    TRACEBACK = "traceback"
    FRAME = "frame"
    BITSTREAM = "bitstream"
    BULK = "bulk"


#: Stable enumeration order backing the integer codes of :class:`AccessBatch`.
DATA_CLASSES: tuple["DataClass", ...] = tuple(DataClass)
_CLASS_CODE = {dc: code for code, dc in enumerate(DATA_CLASSES)}

#: The column table of :class:`AccessBatch`: field names in constructor
#: order, with explicitly little-endian dtypes.  It is also the trace
#: spill's on-disk column order (:mod:`repro.sim.spillfmt`), so
#: reordering is a spill layout change and needs a version bump.
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


def _check_access(address: int, size: int, vn: int | None,
                  burst_bytes: int | None, spread_bytes: int | None) -> None:
    """Reject a block transfer no trace may hold (:class:`ConfigError`).

    The one check behind both :class:`MemAccess` and
    :meth:`TraceBuilder.access`; the upper bounds are the widths of the
    ``int64`` and ``uint64`` columns.
    """
    if not 0 <= address < 1 << 63:
        raise ConfigError(f"address must be in [0, 2**63), got {address}")
    if not 0 < size < 1 << 63:
        raise ConfigError(f"size must be in [1, 2**63), got {size}")
    if vn is not None and not 0 <= vn < 1 << 64:
        raise ConfigError(f"vn must be in [0, 2**64), got {vn}")
    if burst_bytes is not None and not 0 < burst_bytes < 1 << 63:
        raise ConfigError(f"burst_bytes must be in [1, 2**63), got {burst_bytes}")
    if spread_bytes is not None and not (burst_bytes or 1) <= spread_bytes < 1 << 63:
        raise ConfigError("spread_bytes must cover at least one burst and "
                          f"be below 2**63, got {spread_bytes}")


@dataclass(frozen=True)
class MemAccess:
    """One block transfer between on-chip memory and DRAM."""

    address: int
    size: int
    kind: AccessKind
    data_class: DataClass = DataClass.BULK
    #: True when the transfer streams a contiguous range; False when it
    #: gathers/scatters isolated blocks (embedding lookups, SpMSpV reads).
    sequential: bool = True
    #: Version number supplied by the kernel on the control processor.
    #: Timing schemes ignore it; the functional engine requires it for
    #: MGX-style protection.  ``None`` means "scheme-managed" (baseline).
    vn: int | None = None
    #: For gathered (non-sequential) transfers: the contiguous burst size
    #: of each element of the gather (e.g. one embedding row).  ``None``
    #: defaults to one 64-byte block.
    burst_bytes: int | None = None
    #: For gathered transfers: the size of the region the bursts are
    #: spread across (e.g. the whole embedding table).  Determines how
    #: deep into the integrity tree a stored-VN scheme must walk.  May be
    #: smaller than ``size`` when rows are re-read (hot embedding rows).
    #: ``None`` defaults to the access size.
    spread_bytes: int | None = None

    def __post_init__(self) -> None:
        _check_access(self.address, self.size, self.vn, self.burst_bytes,
                     self.spread_bytes)

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE

    @property
    def end(self) -> int:
        return self.address + self.size


def read(address: int, size: int, data_class: DataClass = DataClass.BULK,
         sequential: bool = True, vn: int | None = None,
         burst_bytes: int | None = None, spread_bytes: int | None = None) -> MemAccess:
    """Shorthand constructor for a read access."""
    return MemAccess(address, size, AccessKind.READ, data_class, sequential, vn,
                     burst_bytes, spread_bytes)


def write(address: int, size: int, data_class: DataClass = DataClass.BULK,
          sequential: bool = True, vn: int | None = None,
          burst_bytes: int | None = None, spread_bytes: int | None = None) -> MemAccess:
    """Shorthand constructor for a write access."""
    return MemAccess(address, size, AccessKind.WRITE, data_class, sequential, vn,
                     burst_bytes, spread_bytes)


@dataclass
class Phase:
    """One schedulable unit as objects: compute cycles + its transfers."""

    name: str
    compute_cycles: float
    accesses: list[MemAccess] = field(default_factory=list)

    def read_bytes(self) -> int:
        return sum(a.size for a in self.accesses if not a.is_write)

    def write_bytes(self) -> int:
        return sum(a.size for a in self.accesses if a.is_write)

    def total_bytes(self) -> int:
        return sum(a.size for a in self.accesses)


@dataclass
class AccessBatch:
    """Structure-of-arrays form of a sequence of block transfers.

    Pricing sessions operate on these parallel columns instead of
    walking objects one at a time.  :meth:`from_accesses` and
    :meth:`to_accesses` convert losslessly to and from
    :class:`MemAccess` objects.

    Encoding of optional fields: ``vn`` is a ``uint64`` column (tagged
    VNs use the full 64 bits) paired with a ``vn_present`` mask for
    "scheme-managed" (``None``) entries; ``burst_bytes`` and
    ``spread_bytes`` use ``0`` for "default" (``None``) — a sentinel
    outside their legal (positive) value range.
    """

    address: np.ndarray
    size: np.ndarray
    is_write: np.ndarray
    data_class: np.ndarray  # integer codes into :data:`DATA_CLASSES`
    sequential: np.ndarray
    vn: np.ndarray
    vn_present: np.ndarray
    burst_bytes: np.ndarray
    spread_bytes: np.ndarray

    def __len__(self) -> int:
        return len(self.address)

    @property
    def end(self) -> np.ndarray:
        return self.address + self.size

    @property
    def total_data_bytes(self) -> int:
        return int(self.size.sum()) if len(self) else 0

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "AccessBatch":
        """A batch from encoded rows, one tuple per access in column order."""
        columns = zip(*rows) if rows else [()] * len(COLUMN_DTYPES)
        return cls(*(np.array(column, dtype=dtype)
                     for column, (_, dtype) in zip(columns, COLUMN_DTYPES)))

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemAccess]) -> "AccessBatch":
        return cls.from_rows([_row(a.address, a.size, a.kind, a.data_class,
                                   a.sequential, a.vn, a.burst_bytes,
                                   a.spread_bytes)
                              for a in accesses])

    @classmethod
    def from_phase(cls, phase: Phase) -> "AccessBatch":
        return cls.from_accesses(phase.accesses)

    def to_accesses(self) -> list[MemAccess]:
        """The batch as :class:`MemAccess` objects, rebuilt from the columns."""
        return [
            MemAccess(
                address=address,
                size=size,
                kind=AccessKind.WRITE if is_write else AccessKind.READ,
                data_class=DATA_CLASSES[code],
                sequential=sequential,
                vn=vn if vn_present else None,
                burst_bytes=burst or None,
                spread_bytes=spread or None,
            )
            for address, size, is_write, code, sequential, vn, vn_present,
            burst, spread in zip(*(getattr(self, name).tolist()
                                   for name, _ in COLUMN_DTYPES))
        ]


def _row(address: int, size: int, kind: AccessKind, data_class: DataClass,
         sequential: bool, vn: int | None, burst_bytes: int | None,
         spread_bytes: int | None) -> tuple:
    """One access encoded in :data:`COLUMN_DTYPES` order."""
    return (address, size, kind is AccessKind.WRITE, _CLASS_CODE[data_class],
            sequential, 0 if vn is None else vn, vn is not None,
            burst_bytes or 0, spread_bytes or 0)


@dataclass(eq=False)
class Trace:
    """One whole trace: the columns of every access plus a phase table.

    Phase ``i`` is named ``names[i]``, spends ``compute_cycles[i]`` on
    its functional units and owns rows ``[offsets[i], offsets[i + 1])``
    of ``batch``.  Compute cycles pass through as given (int cycles stay
    ints in a spill header).  Treated as immutable by every consumer.
    """

    names: list[str]
    compute_cycles: list[float]
    #: int64, one longer than the phase count, rising from 0 to ``len(batch)``.
    offsets: np.ndarray
    batch: AccessBatch

    def __post_init__(self) -> None:
        offsets = self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if (len(self.compute_cycles) != len(self.names)
                or offsets.ndim != 1 or len(offsets) != len(self.names) + 1):
            raise ConfigError(
                f"phase table mismatch: {len(self.names)} names, "
                f"{len(self.compute_cycles)} compute cycles, "
                f"{offsets.size} offsets")
        if (offsets[0] != 0 or offsets[-1] != len(self.batch)
                or (np.diff(offsets) < 0).any()):
            raise ConfigError(
                f"phase offsets must rise from 0 to the access count "
                f"{len(self.batch)}, got {offsets.tolist()}")
        for name, cycles in zip(self.names, self.compute_cycles):
            if not math.isfinite(cycles) or cycles < 0:
                raise ConfigError(f"phase {name!r}: compute cycles must be "
                                  f"finite and >= 0, got {cycles!r}")

    @property
    def total_accesses(self) -> int:
        return len(self.batch)

    @property
    def total_bytes(self) -> int:
        return self.batch.total_data_bytes

    def phase_bytes(self) -> list[int]:
        """Bytes moved by each phase's accesses."""
        cumulative = np.zeros(len(self.batch) + 1, dtype=np.int64)
        np.cumsum(self.batch.size, out=cumulative[1:])
        return np.diff(cumulative[self.offsets]).tolist()

    @classmethod
    def from_phases(cls, phases: Iterable[Phase]) -> "Trace":
        """The trace of an object-form phase list."""
        phases = list(phases)
        counts = [len(phase.accesses) for phase in phases]
        offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        return cls([phase.name for phase in phases],
                   [phase.compute_cycles for phase in phases], offsets,
                   AccessBatch.from_accesses(
                       a for phase in phases for a in phase.accesses))

    def to_phases(self) -> list[Phase]:
        """The trace as object-form phases (builds every :class:`MemAccess`)."""
        accesses = self.batch.to_accesses()
        bounds = self.offsets.tolist()
        return [Phase(name, cycles, accesses[start:stop])
                for name, cycles, start, stop in zip(
                    self.names, self.compute_cycles, bounds, bounds[1:])]


class TraceBuilder:
    """Appends accesses and phases, then builds one :class:`Trace`.

    :meth:`access` takes :class:`MemAccess`'s arguments in its order and
    applies the same check, without constructing an object; each
    :meth:`end_phase` closes the accesses appended since the previous
    one into a phase.
    """

    def __init__(self) -> None:
        self._rows: list[tuple] = []
        self._names: list[str] = []
        self._cycles: list[float] = []
        self._offsets: list[int] = [0]

    def access(self, address: int, size: int, kind: AccessKind,
               data_class: DataClass = DataClass.BULK,
               sequential: bool = True, vn: int | None = None,
               burst_bytes: int | None = None,
               spread_bytes: int | None = None) -> None:
        _check_access(address, size, vn, burst_bytes, spread_bytes)
        self._rows.append(_row(address, size, kind, data_class, sequential,
                               vn, burst_bytes, spread_bytes))

    def open_bytes(self) -> int:
        """Bytes moved by the accesses of the phase not yet ended."""
        return sum(row[1] for row in self._rows[self._offsets[-1]:])

    def end_phase(self, name: str, compute_cycles: float) -> None:
        self._names.append(name)
        self._cycles.append(compute_cycles)
        self._offsets.append(len(self._rows))

    def build(self) -> Trace:
        if len(self._rows) != self._offsets[-1]:
            raise ConfigError("accesses appended after the last end_phase")
        return Trace(self._names, self._cycles,
                     np.array(self._offsets, dtype=np.int64),
                     AccessBatch.from_rows(self._rows))
