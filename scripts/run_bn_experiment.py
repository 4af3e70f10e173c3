#!/usr/bin/env python3
"""Directional desk-scale comparison: momentum-statistics teacher vs plain.

Trains the same student (plain per-worker BN) against a teacher using
momentum BN and against one using plain BN, over several shared seeds, and
reports the paired linear-probe accuracies. The expected pattern: the
momentum-teacher rows win on average. These are acceptance criterion 8's
runs, and the exit status is its verdict.

Usage: python3 scripts/run_bn_experiment.py [--seeds 5] [--epochs 30]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from m2t.cli import keep_freed_memory
from m2t.experiment import bn_experiment_cells, bn_experiment_passes, run_cells


def main() -> int:
    keep_freed_memory()
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=30)
    args = parser.parse_args()

    t0 = time.perf_counter()
    acc = [r["accuracy"]
           for r in run_cells(bn_experiment_cells(args.seeds, args.epochs))]
    diffs = [momentum - plain for momentum, plain in zip(acc[::2], acc[1::2])]
    print(f"{'seed':>4}  {'momentum':>9}  {'plain':>9}  {'diff':>8}")
    for seed, diff in enumerate(diffs):
        print(f"{seed:>4}  {acc[2 * seed]:9.4f}  {acc[2 * seed + 1]:9.4f}  "
              f"{diff:+8.4f}")
    print(f"\nmean diff {np.mean(diffs):+.4f}, positive in "
          f"{sum(d > 0 for d in diffs)}/{len(diffs)} seeds, "
          f"{time.perf_counter() - t0:.0f}s total")
    return 0 if bn_experiment_passes(diffs) else 1


if __name__ == "__main__":
    sys.exit(main())
