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

from m2t.config import apply_overrides, from_dict, preset
from m2t.trainer import ablation_grid, grid_trainers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0,
                        help="first seed (seeds are consecutive)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of grid repetitions")
    parser.add_argument("--probe-epochs", type=int, default=40)
    args = parser.parse_args()

    acc = defaultdict(list)
    cost = {}
    wall = defaultdict(float)
    ranks = []
    for seed in range(args.seed, args.seed + args.seeds):
        doc = apply_overrides(preset("table1-grid"), [
            f"epochs={args.epochs}", f"seed={seed}",
            f"probe_epochs={args.probe_epochs}",
        ])
        rows = ablation_grid(grid_trainers(from_dict(doc)))
        ordered = sorted(rows, key=lambda r: -r["accuracy"])
        ranks.append(1 + [(r["student"], r["teacher"]) for r in ordered]
                     .index(("plain", "plain")))
        for row in rows:
            key = (row["student"], row["teacher"])
            acc[key].append(row["accuracy"])
            cost[key] = row["sec_per_iter_model"]
            wall[key] += row["wall_seconds"]

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
