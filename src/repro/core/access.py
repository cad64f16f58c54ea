"""The memory-access vocabulary shared by accelerators and protection schemes.

Accelerators move data between on-chip buffers and DRAM in *block
transfers* much larger than a cache line (a weight tile, a feature-map
tile, a chunk of adjacency list).  A :class:`MemAccess` describes one such
transfer: where, how much, read or write, which class of data it carries
(which selects the VN space per Fig. 6 and the MAC granularity), and
whether the transfer streams contiguously or gathers scattered blocks.

A :class:`Phase` bundles the accesses of one schedulable unit of work (a
DNN layer tile pass, one tile-column of an SpMV, one GACT tile) together
with the compute cycles the functional units spend on it.  The
performance model overlaps compute and memory per phase (double
buffering), which is how the paper's simulators combine SCALE-Sim /
RTL timing with Ramulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

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
        if self.address < 0:
            raise ConfigError(f"address must be non-negative, got {self.address}")
        if self.size <= 0:
            raise ConfigError(f"size must be positive, got {self.size}")
        if self.burst_bytes is not None and self.burst_bytes <= 0:
            raise ConfigError(f"burst_bytes must be positive, got {self.burst_bytes}")
        if self.spread_bytes is not None:
            if self.spread_bytes < (self.burst_bytes or 1):
                raise ConfigError("spread_bytes must cover at least one burst")

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
    """One schedulable unit: compute cycles + the DRAM transfers it needs."""

    name: str
    compute_cycles: float
    accesses: list[MemAccess] = field(default_factory=list)

    def read_bytes(self) -> int:
        return sum(a.size for a in self.accesses if not a.is_write)

    def write_bytes(self) -> int:
        return sum(a.size for a in self.accesses if a.is_write)

    def total_bytes(self) -> int:
        return sum(a.size for a in self.accesses)


class LazyAccessList(list):
    """A phase's access list, materialized from its column batch on demand.

    Warm loads of columnar trace spills rebuild phases directly
    from read-only column views; pricing sessions price the columns and
    never look at individual accesses, so the ``MemAccess`` objects are
    constructed only if something actually reads the list — the
    per-access reference walk, JSON re-encoding, or the losslessness
    tests.  ``len()`` is answered from the batch without materializing.
    Mutation materializes first, so ordering is always preserved.
    """

    __slots__ = ("_batch",)

    def __init__(self, batch: "AccessBatch") -> None:
        super().__init__()
        self._batch: AccessBatch | None = batch

    def _materialize(self) -> None:
        batch, self._batch = self._batch, None
        if batch is not None:
            self.extend(batch.to_accesses(reconstruct=True))
            # The batch's object form now exists; share it so
            # ``to_accesses()`` never reconstructs a second copy.
            batch.source = self

    def __len__(self) -> int:
        if self._batch is not None:
            return len(self._batch)
        return list.__len__(self)


def _lazy_reader(name):
    def method(self, *args, **kwargs):
        self._materialize()
        return getattr(list, name)(self, *args, **kwargs)

    method.__name__ = name
    return method


for _name in ("__iter__", "__getitem__", "__eq__", "__ne__", "__contains__",
              "__reversed__", "__repr__", "index", "count", "copy",
              "__add__", "__mul__", "append", "extend", "insert", "remove",
              "pop", "sort", "reverse", "__setitem__", "__delitem__",
              "__iadd__", "__imul__"):
    setattr(LazyAccessList, _name, _lazy_reader(_name))
del _name


def lazy_phase(name: str, compute_cycles: float, batch: "AccessBatch") -> Phase:
    """A phase over ``batch`` whose access objects build only on demand."""
    return Phase(name=name, compute_cycles=compute_cycles,
                 accesses=LazyAccessList(batch))


@dataclass
class AccessBatch:
    """Structure-of-arrays view of a sequence of :class:`MemAccess`.

    Generators keep emitting ``MemAccess`` objects; consumers that price
    whole traces (the protection schemes' ``pricing_session()``)
    operate on these parallel columns instead of walking objects one at
    a time.  The conversion is lossless: ``to_accesses()`` returns the
    original objects when the batch was built from them, and
    reconstructs field-identical ones otherwise.

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
    #: The objects the batch was built from, kept so the stateful
    #: per-access fallback never pays an object-reconstruction cost.
    source: list[MemAccess] | None = None

    def __len__(self) -> int:
        return len(self.address)

    @property
    def end(self) -> np.ndarray:
        return self.address + self.size

    @property
    def total_data_bytes(self) -> int:
        return int(self.size.sum()) if len(self) else 0

    @classmethod
    def from_accesses(cls, accesses: Sequence[MemAccess]) -> "AccessBatch":
        n = len(accesses)
        return cls(
            address=np.fromiter((a.address for a in accesses), np.int64, n),
            size=np.fromiter((a.size for a in accesses), np.int64, n),
            is_write=np.fromiter((a.is_write for a in accesses), np.bool_, n),
            data_class=np.fromiter(
                (_CLASS_CODE[a.data_class] for a in accesses), np.int64, n
            ),
            sequential=np.fromiter((a.sequential for a in accesses), np.bool_, n),
            vn=np.fromiter(
                (0 if a.vn is None else a.vn for a in accesses), np.uint64, n
            ),
            vn_present=np.fromiter(
                (a.vn is not None for a in accesses), np.bool_, n
            ),
            burst_bytes=np.fromiter(
                (a.burst_bytes or 0 for a in accesses), np.int64, n
            ),
            spread_bytes=np.fromiter(
                (a.spread_bytes or 0 for a in accesses), np.int64, n
            ),
            source=list(accesses),
        )

    @classmethod
    def from_phase(cls, phase: Phase) -> "AccessBatch":
        return cls.from_accesses(phase.accesses)

    @classmethod
    def concat(cls, batches: Sequence["AccessBatch"]) -> "AccessBatch":
        """The batches' rows in order, as one batch (columns only)."""
        if len(batches) == 1:
            return batches[0]
        return cls(*(np.concatenate([getattr(b, name) for b in batches])
                     for name in _COLUMNS))

    def to_accesses(self, reconstruct: bool = False) -> list[MemAccess]:
        """The batch as objects; ``reconstruct`` forces a rebuild from the
        columns (exercised by the losslessness tests)."""
        if self.source is not None and not reconstruct:
            return self.source
        return [
            MemAccess(
                address=int(self.address[i]),
                size=int(self.size[i]),
                kind=AccessKind.WRITE if self.is_write[i] else AccessKind.READ,
                data_class=DATA_CLASSES[int(self.data_class[i])],
                sequential=bool(self.sequential[i]),
                vn=int(self.vn[i]) if self.vn_present[i] else None,
                burst_bytes=None if self.burst_bytes[i] == 0 else int(self.burst_bytes[i]),
                spread_bytes=None if self.spread_bytes[i] == 0 else int(self.spread_bytes[i]),
            )
            for i in range(len(self))
        ]


#: The column fields of :class:`AccessBatch`, in constructor order.
_COLUMNS = ("address", "size", "is_write", "data_class", "sequential", "vn",
            "vn_present", "burst_bytes", "spread_bytes")
