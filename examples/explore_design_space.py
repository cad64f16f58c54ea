#!/usr/bin/env python3
"""Design-space exploration: every model × machine × scheme in one table.

Reproduces the whole Fig. 12/13 grid (plus MobileNet, which the paper
doesn't include) with a roofline annotation showing *why* each overhead
is what it is: the memory-bound share of execution bounds how much of
the traffic increase can surface as time.

Usage:  python examples/explore_design_space.py [--training]
"""

import sys

from repro.dnn.accelerator import CONFIGS
from repro.dnn.models import TRAINING_MODELS, build_model
from repro.dnn.tracegen import DnnTraceGenerator
from repro.dram.model import DramModel
from repro.sim.roofline import analyze
from repro.sim.runner import dnn_sweep

MODELS = ("VGG", "AlexNet", "GoogleNet", "ResNet", "BERT", "DLRM", "MobileNet")


def main() -> None:
    training = "--training" in sys.argv
    models = TRAINING_MODELS if training else MODELS
    task = "training" if training else "inference"
    print(f"DNN {task}: normalized execution time and memory-bound share\n")
    header = (f"{'model':10s} {'config':6s} {'mem-bound':>9s} "
              f"{'BP':>6s} {'MGX':>6s} {'MGX_VN':>7s} {'MGX_MAC':>8s} "
              f"{'traffic BP':>10s}")
    print(header)
    print("-" * len(header))
    for config_name, config in CONFIGS.items():
        for model_name in models:
            generator = DnnTraceGenerator(build_model(model_name), config)
            trace = generator.training_step() if training else generator.inference()
            roofline = analyze(trace.trace, DramModel(config.dram),
                               config.array.freq_hz)
            sweep = dnn_sweep(model_name, config_name, training=training)
            print(f"{model_name:10s} {config_name:6s} "
                  f"{roofline.memory_bound_fraction_of_time:8.0%} "
                  f"{sweep.normalized_time('BP'):6.3f} "
                  f"{sweep.normalized_time('MGX'):6.3f} "
                  f"{sweep.normalized_time('MGX_VN'):7.3f} "
                  f"{sweep.normalized_time('MGX_MAC'):8.3f} "
                  f"{sweep.traffic_increase('BP'):9.3f}x")
    print("\nreading guide: overhead ≈ traffic increase × memory-bound share;")
    print("compute-bound workloads (BERT-Edge) hide protection, memory-bound")
    print("ones (DLRM-Edge) expose it — exactly the Fig. 13 spread.")


if __name__ == "__main__":
    main()
