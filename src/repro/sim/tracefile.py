"""JSON trace interchange: drive the protection simulator with any trace.

Downstream users with their *own* accelerator (an RTL simulator, a
production trace, an FPGA profiler) can evaluate MGX without writing
Python: dump phases to the JSON schema below, then

.. code-block:: bash

    python -m repro.sim.tracefile mytrace.json            # all schemes
    python -m repro.sim.tracefile mytrace.json --scheme MGX BP

Schema::

    {
      "name": "my-workload",
      "accel_freq_mhz": 800,
      "dram_channels": 4,
      "protected_mib": 16384,
      "phases": [
        {
          "name": "layer0",
          "compute_cycles": 123456,
          "accesses": [
            {"address": 0, "size": 1048576, "kind": "read",
             "class": "feature", "sequential": true,
             "vn": 1, "burst_bytes": null, "spread_bytes": null}
          ]
        }
      ]
    }

Only ``address`` and ``size`` are required per access; the rest
default to a sequential bulk read with scheme-managed VNs.  Every
access is a JSON object; ``address``, ``size``, ``burst_bytes`` and
``spread_bytes`` are JSON integers, ``vn`` an integer in [0, 2**64),
``sequential`` a JSON bool, and ``compute_cycles`` a finite number
≥ 0.  A malformed trace is a ``ConfigError`` naming the phase and
access at fault.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import MHZ, MIB
from repro.core.access import AccessKind, DataClass, MemAccess, Phase, Trace
from repro.dram.model import DramConfig, DramModel
from repro.sim.perf import PerfConfig, PerformanceModel
from repro.sim.runner import SCHEMES, SchemeSweep, sweep_schemes

_KINDS = {"read": AccessKind.READ, "write": AccessKind.WRITE}
_CLASSES = {c.value: c for c in DataClass}


@dataclass(frozen=True)
class TraceFile:
    """A parsed trace plus its machine parameters."""

    name: str
    phases: list[Phase]
    accel_freq_hz: float
    dram_channels: int
    protected_bytes: int


def _int_field(raw: dict, field: str, required: bool = False) -> int | None:
    """An access's integer field: a JSON integer, never a bool, float
    or string (``None`` when absent and optional)."""
    value = raw.get(field)
    if value is None:
        if required:
            raise ConfigError(f"{field!r} is required")
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field!r} must be a JSON integer, got {value!r}")
    return value


def _parse_access(raw: dict) -> MemAccess:
    if not isinstance(raw, dict):
        raise ConfigError(f"an access must be a JSON object, got {raw!r}")
    vn = _int_field(raw, "vn")
    if vn is not None and not 0 <= vn < 1 << 64:
        raise ConfigError(f"'vn' must be in [0, 2**64), got {vn}")
    sequential = raw.get("sequential", True)
    if not isinstance(sequential, bool):
        raise ConfigError(
            f"'sequential' must be a JSON bool, got {sequential!r}")
    try:
        kind = _KINDS[raw.get("kind", "read")]
    except KeyError:
        raise ConfigError(f"access kind must be read/write, got {raw.get('kind')!r}")
    class_name = raw.get("class", "bulk")
    try:
        data_class = _CLASSES[class_name]
    except KeyError:
        raise ConfigError(
            f"unknown data class {class_name!r}; known: {sorted(_CLASSES)}"
        )
    return MemAccess(
        address=_int_field(raw, "address", required=True),
        size=_int_field(raw, "size", required=True),
        kind=kind,
        data_class=data_class,
        sequential=sequential,
        vn=vn,
        burst_bytes=_int_field(raw, "burst_bytes"),
        spread_bytes=_int_field(raw, "spread_bytes"),
    )


def phases_from_doc(doc: list[dict]) -> list[Phase]:
    """Decode a list of phase dictionaries (inverse of :func:`phases_to_doc`)."""
    phases: list[Phase] = []
    for index, raw_phase in enumerate(doc):
        if not isinstance(raw_phase, dict):
            raise ConfigError(f"phase {index} must be a JSON object")
        cycles = raw_phase.get("compute_cycles", 0.0)
        if (isinstance(cycles, bool) or not isinstance(cycles, (int, float))
                or not math.isfinite(cycles) or cycles < 0):
            raise ConfigError(f"phase {index}: 'compute_cycles' must be a "
                              f"finite number >= 0, got {cycles!r}")
        accesses = []
        for position, raw in enumerate(raw_phase.get("accesses", [])):
            try:
                accesses.append(_parse_access(raw))
            except ConfigError as exc:
                raise ConfigError(
                    f"phase {index} access {position}: {exc}") from None
        phases.append(
            Phase(
                name=str(raw_phase.get("name", f"phase{index}")),
                compute_cycles=float(cycles),
                accesses=accesses,
            )
        )
    return phases


def phases_to_doc(phases: list[Phase]) -> list[dict]:
    """Encode phases as JSON-serializable dictionaries: the ``"phases"``
    section of the trace-file format."""
    return [
        {
            "name": phase.name,
            "compute_cycles": phase.compute_cycles,
            "accesses": [
                {
                    "address": a.address,
                    "size": a.size,
                    "kind": a.kind.value,
                    "class": a.data_class.value,
                    "sequential": a.sequential,
                    "vn": a.vn,
                    "burst_bytes": a.burst_bytes,
                    "spread_bytes": a.spread_bytes,
                }
                for a in phase.accesses
            ],
        }
        for phase in phases
    ]


def loads(text: str) -> TraceFile:
    """Parse a JSON trace document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid trace JSON: {exc}") from exc
    if "phases" not in doc or not isinstance(doc["phases"], list):
        raise ConfigError("trace must contain a 'phases' list")
    phases = phases_from_doc(doc["phases"])
    if not phases:
        raise ConfigError("trace contains no phases")
    return TraceFile(
        name=str(doc.get("name", "trace")),
        phases=phases,
        accel_freq_hz=float(doc.get("accel_freq_mhz", 800)) * MHZ,
        dram_channels=int(doc.get("dram_channels", 4)),
        protected_bytes=int(doc.get("protected_mib", 16 * 1024)) * MIB,
    )


def load(path: str) -> TraceFile:
    with open(path) as f:
        return loads(f.read())


def dumps(trace: TraceFile) -> str:
    """Serialize a trace (inverse of :func:`loads`)."""
    doc = {
        "name": trace.name,
        "accel_freq_mhz": trace.accel_freq_hz / MHZ,
        "dram_channels": trace.dram_channels,
        "protected_mib": trace.protected_bytes // MIB,
        "phases": phases_to_doc(trace.phases),
    }
    return json.dumps(doc, indent=2)


def evaluate(trace: TraceFile) -> SchemeSweep:
    """Run all protection schemes over a parsed trace.

    External traces go through the same pipeline as the built-in
    workloads: the phases become one columnar
    :class:`~repro.core.access.Trace`, shared across all schemes.
    """
    perf = PerformanceModel(
        DramModel(DramConfig(channels=trace.dram_channels)),
        PerfConfig(accel_freq_hz=trace.accel_freq_hz),
    )
    return sweep_schemes(trace.name, Trace.from_phases(trace.phases), perf,
                         trace.protected_bytes)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Evaluate a JSON trace under "
                                                 "the MGX protection schemes.")
    parser.add_argument("trace", help="path to the JSON trace file")
    parser.add_argument("--scheme", nargs="*", choices=list(SCHEMES),
                        help="schemes to report (default: all)")
    parser.add_argument("--validate", action="store_true",
                        help="check the trace's VN discipline first")
    args = parser.parse_args(argv)

    try:
        trace = load(args.trace)
        if args.validate:
            from repro.core.validate import validate_trace

            report = validate_trace(trace.phases)
            print(f"VN discipline: {report.summary()}")
            for violation in report.violations[:10]:
                print(f"  {violation}")
            if not report.ok:
                return 1
        sweep = evaluate(trace)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schemes = args.scheme or [s for s in SCHEMES if s != "NP"]
    print(f"{trace.name}: {len(trace.phases)} phases, "
          f"{sum(p.total_bytes() for p in trace.phases) / (1 << 20):.1f} MiB")
    print(f"{'scheme':10s} {'exec time':>10s} {'traffic':>9s}")
    for scheme in schemes:
        print(f"{scheme:10s} {sweep.normalized_time(scheme):9.3f}x "
              f"{sweep.traffic_increase(scheme):8.3f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
