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

Only ``address``, ``size`` and ``kind`` are required per access; the
rest default to a sequential bulk transfer with scheme-managed VNs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import MHZ, MIB
from repro.core.access import AccessBatch, AccessKind, DataClass, MemAccess, Phase
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


def _parse_access(raw: dict) -> MemAccess:
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
        address=int(raw["address"]),
        size=int(raw["size"]),
        kind=kind,
        data_class=data_class,
        sequential=bool(raw.get("sequential", True)),
        vn=raw.get("vn"),
        burst_bytes=raw.get("burst_bytes"),
        spread_bytes=raw.get("spread_bytes"),
    )


def phases_from_doc(doc: list[dict]) -> list[Phase]:
    """Decode a list of phase dictionaries (inverse of :func:`phases_to_doc`)."""
    phases: list[Phase] = []
    for raw_phase in doc:
        accesses = [_parse_access(a) for a in raw_phase.get("accesses", [])]
        phases.append(
            Phase(
                name=str(raw_phase.get("name", f"phase{len(phases)}")),
                compute_cycles=float(raw_phase.get("compute_cycles", 0.0)),
                accesses=accesses,
            )
        )
    return phases


def phases_to_doc(phases: list[Phase]) -> list[dict]:
    """Encode phases as JSON-serializable dictionaries.

    The schema is the ``"phases"`` section of the trace-file format, and
    also what the trace cache's disk tier spills, so externally-supplied
    and internally-generated traces share one codec.
    """
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


def doc_digest(doc: str | bytes | bytearray | memoryview) -> str:
    """Stable content digest of a serialized trace/artifact document.

    Equal documents get equal digests on every machine, so a name built
    from one deduplicates by construction.  Accepts text or a bytes-like
    view; binary documents (columnar trace spills) hash without an
    intermediate encode copy.
    """
    if isinstance(doc, str):
        doc = doc.encode()
    return hashlib.sha256(doc).hexdigest()[:32]


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

    External traces go through the same batched pipeline as the built-in
    workloads: the phases are converted to structure-of-arrays columns
    once and shared across all schemes.
    """
    perf = PerformanceModel(
        DramModel(DramConfig(channels=trace.dram_channels)),
        PerfConfig(accel_freq_hz=trace.accel_freq_hz),
    )
    batches = [AccessBatch.from_phase(phase) for phase in trace.phases]
    return sweep_schemes(trace.name, trace.phases, perf, trace.protected_bytes,
                         batches=batches)


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
