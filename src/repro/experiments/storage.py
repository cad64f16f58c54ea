"""Metadata storage overhead (§III-A) and the sweep-result disk codec.

The paper notes that Intel SGX's 56-bit per-block VNs alone cost "11%
storage and bandwidth overhead"; adding MACs and the integrity tree, the
conventional scheme sacrifices over a quarter of protected capacity.
MGX stores only coarse-grained MACs.  The :func:`run` experiment
quantifies both for a 16-GB protected memory.

This module also hosts the JSON codec for finished
:class:`~repro.sim.runner.SchemeSweep` results — the persistence format
the trace cache's disk tier uses to spill and restore sweeps, so a warm
``--cache-dir`` rerun of the figure suite prices nothing.  The encoding
is exact: traffic counts are integers and cycle counts round-trip
through ``repr`` (Python floats serialize losslessly), so restored
sweeps render byte-identical figure tables.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.common.units import GIB
from repro.core.schemes import (
    ProtectionTraffic,
    make_baseline,
    make_mgx,
    make_mgx_mac,
    make_mgx_vn,
)
from repro.experiments.base import ExperimentResult

#: Bump when the sweep/result document layout changes (invalidates disk
#: entries; per-scheme results and assembled sweeps share one layout).
SWEEP_CODEC_VERSION = 1

#: Bump when the functional-profile document layout changes.  Profiles
#: are opaque JSON-primitive dicts produced by the pure pipeline entry
#: points (``repro.genome.profile``, ``repro.video.profile``); the
#: version covers the envelope, the entry points version their own keys.
#: v2: the profile family also carries the ablation/extra **table**
#: artifacts (serialized :class:`~repro.experiments.base.ExperimentResult`
#: docs, see ``ExperimentResult.to_doc``).
PROFILE_CODEC_VERSION = 2


def result_to_doc(result) -> dict:
    """Encode one :class:`~repro.sim.perf.SimResult` as JSON-able data."""
    return {
        "scheme": result.scheme,
        "total_cycles": result.total_cycles,
        "traffic": asdict(result.traffic),
        "phase_results": [
            {
                "name": phase.name,
                "compute_cycles": phase.compute_cycles,
                "memory_cycles": phase.memory_cycles,
            }
            for phase in result.phase_results
        ],
    }


def result_from_doc(raw: dict):
    """Decode :func:`result_to_doc` output back into a ``SimResult``."""
    from repro.sim.perf import PhaseResult, SimResult

    return SimResult(
        scheme=raw["scheme"],
        total_cycles=raw["total_cycles"],
        traffic=ProtectionTraffic(**raw["traffic"]),
        phase_results=[
            PhaseResult(p["name"], p["compute_cycles"], p["memory_cycles"])
            for p in raw["phase_results"]
        ],
    )


def sweep_to_doc(sweep) -> dict:
    """Encode a :class:`~repro.sim.runner.SchemeSweep` as JSON-able data."""
    return {
        "version": SWEEP_CODEC_VERSION,
        "workload": sweep.workload,
        "results": {
            name: result_to_doc(result)
            for name, result in sweep.results.items()
        },
    }


def sweep_from_doc(doc: dict):
    """Decode :func:`sweep_to_doc` output back into a ``SchemeSweep``."""
    from repro.sim.runner import SchemeSweep

    if doc.get("version") != SWEEP_CODEC_VERSION:
        raise ValueError(f"unsupported sweep codec version {doc.get('version')!r}")
    sweep = SchemeSweep(workload=doc["workload"])
    for name, raw in doc["results"].items():
        sweep.results[name] = result_from_doc(raw)
    return sweep


def dumps_sweep(sweep) -> str:
    return json.dumps(sweep_to_doc(sweep))


def loads_sweep(text: str | bytes):
    return sweep_from_doc(json.loads(text))


def dumps_result(result) -> str:
    """Serialize one per-scheme result (an artifact of the job graph)."""
    return json.dumps({"version": SWEEP_CODEC_VERSION,
                       "result": result_to_doc(result)})


def loads_result(text: str | bytes):
    doc = json.loads(text)
    if doc.get("version") != SWEEP_CODEC_VERSION:
        raise ValueError(f"unsupported result codec version {doc.get('version')!r}")
    return result_from_doc(doc["result"])


def dumps_profile(profile: dict) -> str:
    """Serialize a functional-pipeline profile (fig16/fig19 artifacts).

    Profiles must already be JSON-primitive; the encoding is exact
    (ints stay ints, floats round-trip via shortest ``repr``), so a
    restored profile renders byte-identical figure tables.
    """
    if not isinstance(profile, dict):
        raise TypeError(f"profile must be a dict, got {type(profile).__name__}")
    return json.dumps({"version": PROFILE_CODEC_VERSION, "profile": profile})


def loads_profile(text: str | bytes) -> dict:
    doc = json.loads(text)
    if doc.get("version") != PROFILE_CODEC_VERSION:
        raise ValueError(
            f"unsupported profile codec version {doc.get('version')!r}"
        )
    return doc["profile"]


def run(quick: bool = False) -> ExperimentResult:
    protected = (1 * GIB) if quick else (16 * GIB)
    result = ExperimentResult(
        experiment_id="storage",
        title=f"Metadata storage overhead for {protected // GIB} GiB protected memory",
        columns=["scheme", "metadata_mib", "capacity_overhead_pct",
                 "onchip_bytes"],
    )
    schemes = {
        "BP": make_baseline(protected),
        "MGX": make_mgx(protected),
        "MGX_VN": make_mgx_vn(protected),
        "MGX_MAC": make_mgx_mac(protected),
    }
    for name, scheme in schemes.items():
        metadata = scheme.metadata_storage_bytes
        result.add_row(
            scheme=name,
            metadata_mib=metadata / (1 << 20),
            capacity_overhead_pct=100.0 * metadata / protected,
            onchip_bytes=scheme.onchip_state_bytes,
        )
        result.summary[f"{name}_pct"] = 100.0 * metadata / protected
    # SGX's VN storage alone is 11%; BP adds MACs + tree on top of that.
    result.paper["BP_pct"] = 26.8
    result.paper["MGX_pct"] = 1.6
    result.notes = (
        "BP: 8-B VN + 8-B MAC per 64-B block plus the 8-ary tree over VN "
        "lines.  MGX: one 8-B MAC per 512 B, nothing else — and no 32-KB "
        "on-chip metadata cache."
    )
    return result
