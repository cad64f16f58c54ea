"""The paper's contribution: MGX memory protection and its baseline.

Timing path (what the evaluation measures):
    accelerator trace → :class:`ProtectionScheme` → DRAM traffic → cycles.

Functional path (what the security tests exercise):
    plaintext → AES-CTR + MAC over a tamperable byte store.

Both paths share the counter construction (:mod:`repro.core.counters`)
and the on-chip VN generators (:mod:`repro.core.vngen`).
"""

from repro.core.access import (
    DATA_CLASSES,
    AccessBatch,
    AccessKind,
    DataClass,
    MemAccess,
    Phase,
    Trace,
    TraceBuilder,
    read,
    write,
)
from repro.core.counters import (
    VN_BITS,
    VN_PAYLOAD_BITS,
    VnSpace,
    counter_block,
    pack_fields,
    space_for,
    tag_vn,
    untag_vn,
)
from repro.core.functional import BaselineFunctionalEngine, MgxFunctionalEngine
from repro.core.merkle import FunctionalMerkleTree, TreeLayout
from repro.core.metadata_cache import CacheOutcome, MetadataCache
from repro.core.schemes import (
    ENTRY_BYTES,
    FINE_MAC_POLICY,
    MGX_MAC_POLICY,
    CounterModeProtection,
    MacPolicy,
    NoProtection,
    ProtectionScheme,
    ProtectionTraffic,
    make_baseline,
    make_mgx,
    make_mgx_mac,
    make_mgx_vn,
    scheme_suite,
)
from repro.core.validate import TraceViolation, ValidationReport, validate_trace
from repro.core.vngen import (
    BatchVnState,
    DnnVnState,
    FrameVnState,
    IterationVnState,
    UniquenessGuard,
)

__all__ = [
    "DATA_CLASSES",
    "AccessBatch",
    "AccessKind",
    "DataClass",
    "MemAccess",
    "Phase",
    "Trace",
    "TraceBuilder",
    "read",
    "write",
    "VN_BITS",
    "VN_PAYLOAD_BITS",
    "VnSpace",
    "counter_block",
    "pack_fields",
    "space_for",
    "tag_vn",
    "untag_vn",
    "BaselineFunctionalEngine",
    "MgxFunctionalEngine",
    "FunctionalMerkleTree",
    "TreeLayout",
    "CacheOutcome",
    "MetadataCache",
    "ENTRY_BYTES",
    "FINE_MAC_POLICY",
    "MGX_MAC_POLICY",
    "CounterModeProtection",
    "MacPolicy",
    "NoProtection",
    "ProtectionScheme",
    "ProtectionTraffic",
    "make_baseline",
    "make_mgx",
    "make_mgx_mac",
    "make_mgx_vn",
    "scheme_suite",
    "TraceViolation",
    "ValidationReport",
    "validate_trace",
    "BatchVnState",
    "DnnVnState",
    "FrameVnState",
    "IterationVnState",
    "UniquenessGuard",
]
