"""Refresh the per-layer ledger (``ledger.json``) from traced runs.

    python3 perfbench/ledger.py [--seed N] [--seconds S]

Runs ``run.py --trace 1`` once per workload and stores its per-layer
metrics under ``layers``; the ``notes`` section (machine facts, the
layer → metric → workload map) is kept as written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
LEDGER = BENCH_DIR / "ledger.json"
WORKLOADS = ("suite-native", "suite-python", "suite-cached", "serve-mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)

    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    layers = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, check=True,
            cwd=BENCH_DIR.parent)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload}: output checks failed")
        layers[workload] = {name: round(metric["value"], 6)
                            for name, metric in result["metrics"].items()}
    import numpy

    ledger.setdefault("notes", {})["machine"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "auto_backend": ("native" if layers["suite-cached"]["backend.native"]
                         else "python"),
    }
    ledger["layers"] = layers
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
