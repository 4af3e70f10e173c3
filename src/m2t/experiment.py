"""Experiments: lists of independent, deterministic training runs (cells),
the one body that runs a cell, and a runner that spreads a list over the
usable CPUs. Acceptance criteria 8 and 9, the experiment scripts and
``m2t ablate`` run the cell lists and verdict rules defined here."""

from __future__ import annotations

import math
import os
import time
from typing import NamedTuple

import numpy as np

from .config import from_dict, preset
from .evaluate import extract_features, linear_probe
from .seeding import substream_int
from .trainer import Trainer, modeled_sec_per_iter

GRID_ROWS = (("synced", "synced"), ("plain", "synced"), ("synced", "plain"),
             ("plain", "plain"), ("plain", "momentum"), ("synced", "momentum"))


class Cell(NamedTuple):
    doc: dict  # a config document
    report: str  # "probe" or "loss"


def grid_cells(doc: dict) -> list[Cell]:
    """``GRID_ROWS`` applied to ``doc`` in mode byol_m2t: the same seeds,
    data and data order in every row."""
    return [Cell(dict(doc, mode="byol_m2t", student_bn=student,
                      teacher_bn=teacher), "probe")
            for student, teacher in GRID_ROWS]


def bn_experiment_cells(seeds: int = 5, epochs: int = 30) -> list[Cell]:
    """Criterion 8: per seed, ``default-synth`` with a momentum-BN teacher,
    then with a plain-BN one."""
    return [Cell(dict(preset("default-synth"), seed=seed, epochs=epochs,
                      teacher_bn=teacher_bn, log_interval=100), "probe")
            for seed in range(seeds) for teacher_bn in ("momentum", "plain")]


def bn_experiment_passes(diffs: list[float]) -> bool:
    """Criterion 8's verdict on the per-seed accuracy differences (momentum
    minus plain): positive in at least n-1 of n seeds, >= 0 on average."""
    return (sum(d > 0 for d in diffs) >= len(diffs) - 1
            and float(np.mean(diffs)) >= 0)


def moco_smoke_cells() -> list[Cell]:
    """Criterion 9: ``moco-smoke`` with a shuffling-BN teacher, then with a
    momentum-BN one, logging every iteration."""
    return [Cell(dict(preset("moco-smoke"), teacher_bn=teacher_bn,
                      log_interval=1), "loss")
            for teacher_bn in ("shuffling", "momentum")]


def moco_smoke_passes(first: float, last: float, queue_capacity: int) -> bool:
    """Criterion 9's verdict on one run: the first loss within 5% of ln(1+K)
    (uniform softmax), and the last-epoch mean below 0.9 x the first."""
    target = math.log(1 + queue_capacity)
    return abs(first - target) / target < 0.05 and last < 0.9 * first


def run_cell(cell: Cell) -> dict:
    """Train ``cell.doc``. A ``"loss"`` cell reports the first logged loss
    and the last epoch's mean loss, a ``"probe"`` cell the linear-probe
    accuracy on the run's own data, the modeled seconds per iteration, the
    training's wall time and the metrics records."""
    cfg = from_dict(cell.doc)
    trainer = Trainer(cfg)
    t0 = time.perf_counter()
    result = trainer.run()
    wall = time.perf_counter() - t0
    if cell.report == "loss":
        last = [m.loss for m in result.metrics
                if m.epoch == result.metrics[-1].epoch]
        return {"first_loss": result.metrics[0].loss,
                "last_epoch_loss": float(np.mean(last))}
    feats = extract_features(result.payload, result.dataset.samples)
    return {"accuracy": linear_probe(feats, result.dataset.labels,
                                     epochs=cfg.probe_epochs, lr=cfg.probe_lr,
                                     seed=substream_int(cfg.seed, "probe")),
            "sec_per_iter_model": modeled_sec_per_iter(cfg, trainer.pair),
            "wall_seconds": wall, "metrics": result.metrics}


def run_cells(cells: list[Cell]) -> list[dict]:
    """:func:`run_cell` of each cell, in cell order, on one process per cell
    up to the usable CPUs. The first failing cell's exception is raised."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    processes = _process_count(len(cells), cpus)
    if processes == 1:
        return [run_cell(cell) for cell in cells]
    return _run_pool(cells, processes)


def _process_count(cells: int, cpus: int) -> int:
    return max(1, min(cells, cpus))


def _run_pool(cells: list[Cell], processes: int) -> list[dict]:
    # Imported here, so that every command's `import m2t` stays without them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(name, "1")  # read by a child's BLAS at start
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(processes, mp_context=spawn,
                             initializer=_start_child) as pool:
        # In cell order; a raising result cancels the cells not yet started.
        return list(pool.map(run_cell, cells))


def _start_child() -> None:
    from .cli import keep_freed_memory  # the cli imports this module

    # What m2t.cli.main sets in the parent.
    keep_freed_memory()
    np.seterr(all="ignore")
