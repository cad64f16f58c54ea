"""Memory-protection timing engines: baseline (BP), MGX and its ablations.

This package replaces the former ``repro/core/schemes.py`` monolith; the
public names are unchanged, so ``from repro.core.schemes import ...``
keeps working for every existing caller.

Layout:

* :mod:`~repro.core.schemes.base` — :class:`ProtectionScheme` interface
  (batched ``pricing_session()`` + the per-access ``process`` reference),
  :class:`ProtectionTraffic` accounting, :class:`NoProtection`.
* :mod:`~repro.core.schemes.counter_mode` — the configurable
  :class:`CounterModeProtection` engine covering BP / MGX / MGX_VN /
  MGX_MAC, pricing stateless on-chip-VN configurations as NumPy column
  arithmetic and cached ones on the reuse-distance LRU engine.
* :mod:`~repro.core.schemes.factory` — ``make_*`` constructors and
  :func:`scheme_suite`.
* :mod:`~repro.core.schemes.tnpu` — the TNPU-like comparison point.
"""

from repro.core.schemes.base import (
    ENTRY_BYTES,
    NoProtection,
    ProtectionScheme,
    ProtectionTraffic,
)
from repro.core.schemes.counter_mode import (
    FINE_MAC_POLICY,
    MGX_MAC_POLICY,
    CounterModeProtection,
    MacPolicy,
)
from repro.core.schemes.factory import (
    make_baseline,
    make_mgx,
    make_mgx_mac,
    make_mgx_vn,
    scheme_suite,
)
from repro.core.schemes.tnpu import make_tnpu_like

__all__ = [
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
    "make_tnpu_like",
    "scheme_suite",
]
