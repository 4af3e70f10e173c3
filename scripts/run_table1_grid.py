#!/usr/bin/env python3
"""Student/teacher BN-combination grid with probe accuracy and modeled cost.

Runs all six {plain, synced} x {plain, synced, momentum} combinations under
identical seeds and data order and prints the resulting table: accuracy,
the deterministic per-iteration cost model (cross-worker BN traffic at
nominal latency/bandwidth) and measured wall time.

With --seeds > 1 the whole grid is repeated per seed and the table reports
per-cell means, plus where the plain/plain combination ranks on average
(it is expected at or near the bottom).

Usage: python3 scripts/run_table1_grid.py [--epochs 10] [--seeds 1]
"""

import argparse
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from m2t.cli import keep_freed_memory
from m2t.config import apply_overrides, preset
from m2t.experiment import GRID_ROWS, grid_cells, run_cells


def main() -> int:
    keep_freed_memory()
    parser = argparse.ArgumentParser()
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0,
                        help="first seed (seeds are consecutive)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of grid repetitions")
    parser.add_argument("--probe-epochs", type=int, default=40)
    args = parser.parse_args()

    seeds = range(args.seed, args.seed + args.seeds)
    cells = [cell for seed in seeds for cell in grid_cells(apply_overrides(
        preset("table1-grid"), [f"epochs={args.epochs}", f"seed={seed}",
                                f"probe_epochs={args.probe_epochs}"]))]
    acc = defaultdict(list)
    cost = {}
    wall = defaultdict(float)
    for cell, row in zip(cells, run_cells(cells)):
        key = (cell.doc["student_bn"], cell.doc["teacher_bn"])
        acc[key].append(row["accuracy"])
        cost[key] = row["sec_per_iter_model"]
        wall[key] += row["wall_seconds"]
    # Rank 1 is the best; a tie goes to the earlier grid row.
    ranks = [1 + sorted(GRID_ROWS, key=lambda key: -acc[key][i])
             .index(("plain", "plain")) for i in range(args.seeds)]

    print(f"{'student':>8}  {'teacher':>9}  {'top1':>7}  "
          f"{'model s/iter':>12}  {'wall s':>7}")
    for key in acc:
        print(f"{key[0]:>8}  {key[1]:>9}  {np.mean(acc[key]):7.4f}  "
              f"{cost[key]:12.5f}  {wall[key]:7.1f}")
    if args.seeds > 1:
        print(f"\nplain/plain rank per seed (1 = best of 6): {ranks}, "
              f"mean {np.mean(ranks):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
