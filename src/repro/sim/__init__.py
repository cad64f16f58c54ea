"""Simulation glue: performance model, runner, trace files, roofline."""

from repro.sim.perf import PerfConfig, PerformanceModel, PhaseResult, SimResult
from repro.sim.roofline import PhaseRoofline, RooflineReport, analyze
from repro.sim.runner import (
    SCHEMES,
    TRACE_CACHE,
    SchemeSweep,
    TraceCache,
    Workload,
    dnn_sweep,
    dnn_workload,
    graph_sweep,
    graph_workload,
    sweep_schemes,
)
from repro.sim.tracefile import TraceFile, evaluate, load, loads

__all__ = [
    "PerfConfig",
    "PerformanceModel",
    "PhaseResult",
    "SimResult",
    "PhaseRoofline",
    "RooflineReport",
    "analyze",
    "SCHEMES",
    "TRACE_CACHE",
    "SchemeSweep",
    "TraceCache",
    "Workload",
    "dnn_sweep",
    "dnn_workload",
    "graph_sweep",
    "graph_workload",
    "sweep_schemes",
    "TraceFile",
    "evaluate",
    "load",
    "loads",
]
