#!/usr/bin/env python3
"""Contrastive-mode smoke: initial loss against ln(1+K) and its decrease.

Runs the queue-based contrastive recipe twice, once with a shuffling-BN
teacher and once with a momentum-BN teacher, and reports the initial loss
(expected within a few percent of the uniform-softmax value ln(1+K) for a
fresh random queue) and the last-epoch mean.

Usage: python3 scripts/run_moco_smoke.py
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from m2t.cli import keep_freed_memory
from m2t.config import from_dict, preset
from m2t.trainer import run_training


def smoke_run(teacher_bn: str) -> tuple[float, float]:
    """(first logged loss, last-epoch mean loss) of the moco-smoke preset
    with the given teacher BN."""
    doc = preset("moco-smoke")
    doc["teacher_bn"] = teacher_bn
    doc["log_interval"] = 1
    result = run_training(from_dict(doc))
    per_epoch = {}
    for m in result.metrics:
        per_epoch.setdefault(m.epoch, []).append(m.loss)
    return result.metrics[0].loss, float(np.mean(per_epoch[max(per_epoch)]))


def main() -> int:
    keep_freed_memory()
    target = math.log(1 + from_dict(preset("moco-smoke")).queue_capacity)
    print(f"uniform-softmax reference ln(1+K) = {target:.4f}\n")
    ok = True
    for teacher_bn in ("shuffling", "momentum"):
        t0 = time.perf_counter()
        initial, last = smoke_run(teacher_bn)
        wall = time.perf_counter() - t0
        dev = abs(initial - target) / target
        print(f"{teacher_bn:10s}: initial {initial:.4f} ({dev:+.2%} vs ref), "
              f"last-epoch mean {last:.4f} (x{last / initial:.3f}), "
              f"{wall:.0f}s")
        ok = ok and dev < 0.05 and last < 0.9 * initial
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
