#!/usr/bin/env python3
"""Secure DNN training: forward + backward with VN_F / VN_W / VN_G (§IV-C).

Generates a full training-step trace (saved activations, gradient flow,
no emulated weight-update — matching the paper's SCALE-Sim setup), shows
the three VN spaces at work, and compares protection schemes.

Usage:  python examples/secure_dnn_training.py [model]
"""

import sys
from collections import Counter

from repro.core.access import DATA_CLASSES, DataClass
from repro.dnn.accelerator import CLOUD
from repro.dnn.models import build_model
from repro.dnn.tracegen import DnnTraceGenerator
from repro.sim.runner import SCHEMES, dnn_sweep


def main() -> None:
    model_name = sys.argv[1] if len(sys.argv) > 1 else "AlexNet"
    model = build_model(model_name)
    trace = DnnTraceGenerator(model, CLOUD).training_step()

    batch = trace.trace.batch
    by_class = Counter()
    for code, size in zip(batch.data_class.tolist(), batch.size.tolist()):
        by_class[DATA_CLASSES[code]] += size
    total = sum(by_class.values())
    print(f"{model.name} training step: {len(trace.trace.names)} phases, "
          f"{total / (1 << 20):.1f} MiB traffic")
    for data_class in (DataClass.FEATURE, DataClass.WEIGHT, DataClass.GRADIENT):
        share = 100 * by_class.get(data_class, 0) / total
        print(f"  {data_class.value:9s} {by_class.get(data_class, 0) / (1 << 20):8.1f} MiB "
              f"({share:4.1f}%)")
    print(f"  on-chip VN state: {trace.vn_state.state_bytes} B "
          "(features + gradients tables + VN_W)")

    print("\nnormalized execution time (training, Cloud):")
    sweep = dnn_sweep(model_name, "Cloud", training=True)
    for scheme in SCHEMES:
        print(f"  {scheme:8s} {sweep.normalized_time(scheme):6.3f}x")


if __name__ == "__main__":
    main()
