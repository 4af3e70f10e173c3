#!/usr/bin/env python3
"""Directional desk-scale comparison: momentum-statistics teacher vs plain.

Trains the same student (plain per-worker BN) against a teacher using
momentum BN and against one using plain BN, over several shared seeds, and
reports the paired linear-probe accuracies. The expected pattern: the
momentum-teacher rows win on average.

Usage: python3 scripts/run_bn_experiment.py [--seeds 5] [--epochs 30]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from m2t.cli import keep_freed_memory
from m2t.config import DataConfig, TrainConfig
from m2t.data import AugmentSpec
from m2t.evaluate import extract_features, linear_probe
from m2t.seeding import substream_int
from m2t.trainer import run_training


def run_one(seed: int, teacher_bn: str, epochs: int) -> float:
    cfg = TrainConfig(
        mode="byol_m2t", seed=seed, epochs=epochs, batch_size=128, workers=4,
        lr_base=0.4, warmup_epochs=1, log_interval=100,
        student_bn="plain", teacher_bn=teacher_bn,
        data=DataConfig(kind="synthetic", num_classes=10, dim=32,
                        per_class=500, spread=0.3),
        augment=AugmentSpec(noise_std=0.3, mask_prob=0.2,
                            scale_range=(0.8, 1.25)),
    )
    result = run_training(cfg)
    feats = extract_features(result.payload, result.dataset.samples)
    return linear_probe(feats, result.dataset.labels, epochs=cfg.probe_epochs,
                        lr=cfg.probe_lr, seed=substream_int(seed, "probe"))


def main() -> int:
    keep_freed_memory()
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=30)
    args = parser.parse_args()

    t0 = time.perf_counter()
    print(f"{'seed':>4}  {'momentum':>9}  {'plain':>9}  {'diff':>8}")
    diffs = []
    for seed in range(args.seeds):
        acc_m = run_one(seed, "momentum", args.epochs)
        acc_p = run_one(seed, "plain", args.epochs)
        diffs.append(acc_m - acc_p)
        print(f"{seed:>4}  {acc_m:9.4f}  {acc_p:9.4f}  {acc_m - acc_p:+8.4f}",
              flush=True)
    positives = sum(d > 0 for d in diffs)
    print(f"\nmean diff {np.mean(diffs):+.4f}, positive in {positives}/"
          f"{len(diffs)} seeds, {time.perf_counter() - t0:.0f}s total")
    return 0 if positives >= len(diffs) - 1 and np.mean(diffs) >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
