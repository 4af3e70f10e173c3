#!/usr/bin/env python3
"""Contrastive-mode smoke: initial loss against ln(1+K) and its decrease.

Runs the queue-based contrastive recipe twice, once with a shuffling-BN
teacher and once with a momentum-BN teacher, and reports the initial loss
(expected within a few percent of the uniform-softmax value ln(1+K) for a
fresh random queue) and the last-epoch mean. These are acceptance
criterion 9's runs, and the exit status is its verdict.

Usage: python3 scripts/run_moco_smoke.py
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from m2t.cli import keep_freed_memory
from m2t.experiment import moco_smoke_cells, moco_smoke_passes, run_cells


def main() -> int:
    keep_freed_memory()
    cells = moco_smoke_cells()
    target = math.log(1 + cells[0].doc["queue_capacity"])
    print(f"uniform-softmax reference ln(1+K) = {target:.4f}\n")
    t0 = time.perf_counter()
    ok = True
    for cell, r in zip(cells, run_cells(cells)):
        initial, last = r["first_loss"], r["last_epoch_loss"]
        print(f"{cell.doc['teacher_bn']:10s}: initial {initial:.4f} "
              f"({(initial - target) / target:+.2%} vs ref), last-epoch mean "
              f"{last:.4f} (x{last / initial:.3f})")
        ok &= moco_smoke_passes(initial, last, cell.doc["queue_capacity"])
    print(f"{time.perf_counter() - t0:.0f}s total")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
