#!/usr/bin/env python3
"""Secure DNN inference: the Fig. 13(a) comparison on one model.

Runs a chosen network (default ResNet-50) on the Cloud and Edge machines
under all five protection schemes, printing normalized execution time,
traffic increase, and the on-chip state MGX needs — the numbers behind
the paper's "3.2% average inference overhead" claim.

Usage:  python examples/secure_dnn_inference.py [model] [batch]
        model ∈ {VGG, AlexNet, GoogleNet, ResNet, BERT, DLRM}
"""

import sys

from repro.dnn.accelerator import CONFIGS
from repro.dnn.models import build_model
from repro.dnn.tracegen import DnnTraceGenerator
from repro.sim.runner import SCHEMES, dnn_sweep


def main() -> None:
    model_name = sys.argv[1] if len(sys.argv) > 1 else "ResNet"
    batch = int(sys.argv[2]) if len(sys.argv) > 2 else 1

    model = build_model(model_name)
    print(f"model: {model.name}  layers: {len(model.layers)}  "
          f"weights: {model.total_weight_bytes / 1e6:.1f} MB  "
          f"MACs: {model.total_macs / 1e9:.2f} G")

    for config_name, config in CONFIGS.items():
        trace = DnnTraceGenerator(model, config, batch=batch).inference()
        print(f"\n--- {config_name}: {config.array.rows}x{config.array.cols} PEs @ "
              f"{config.array.freq_hz / 1e6:.0f} MHz, "
              f"{config.dram.channels} DDR4 channel(s) ---")
        print(f"trace: {len(trace.trace.names)} phases, "
              f"{trace.trace.total_bytes / (1 << 20):.1f} MiB DRAM traffic, "
              f"VN state: {trace.vn_state.state_bytes} B on-chip")
        sweep = dnn_sweep(model_name, config_name, batch=batch)
        print(f"{'scheme':10s} {'exec time':>10s} {'traffic':>9s} {'overhead':>9s}")
        for scheme in SCHEMES:
            t = sweep.normalized_time(scheme)
            tr = sweep.traffic_increase(scheme)
            print(f"{scheme:10s} {t:9.3f}x {tr:8.3f}x {sweep.overhead_percent(scheme):8.1f}%")


if __name__ == "__main__":
    main()
