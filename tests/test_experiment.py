"""The experiment runner: cell lists, one cell body, results that do not
depend on the process that ran a cell, and the verdict rules of criteria
8 and 9."""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import m2t
from m2t import experiment
from m2t.config import encode, preset
from m2t.experiment import (Cell, bn_experiment_passes, grid_cells,
                            moco_smoke_passes, run_cell, run_cells)
from m2t.trainer import MetricsRecord, NanLossError

from test_trainer import small_config


def short_cells() -> list:
    """One short byol probe cell and one short moco loss cell."""
    byol = encode(small_config(epochs=1, probe_epochs=4))
    moco = dict(preset("moco-smoke"), epochs=2, batch_size=32,
                queue_capacity=32, log_interval=1,
                data={"kind": "synthetic", "num_classes": 4, "dim": 32,
                      "per_class": 16, "spread": 0.3})
    return [Cell(byol, "probe"), Cell(moco, "loss")]


class TestGrid:
    def test_grid_shape_and_shared_seeds(self):
        cells = grid_cells(encode(small_config(epochs=1, probe_epochs=4)))
        rows = {(c.doc["student_bn"], c.doc["teacher_bn"]): run_cell(c)
                for c in cells}
        assert len(rows) == 6
        assert set(rows) == {("plain", "plain"), ("plain", "synced"),
                             ("plain", "momentum"), ("synced", "plain"),
                             ("synced", "synced"), ("synced", "momentum")}
        assert {c.doc["seed"] for c in cells} == {0}
        for r in rows.values():
            assert 0.0 <= r["accuracy"] <= 1.0
        # Synced/synced must model slower iterations than plain/plain.
        cost = {key: r["sec_per_iter_model"] for key, r in rows.items()}
        assert cost[("synced", "synced")] > cost[("plain", "plain")]
        assert cost[("plain", "momentum")] == cost[("plain", "plain")]


class TestRunner:
    def test_pool_results_equal_in_process_results(self):
        cells = short_cells()
        pooled = experiment._run_pool(cells, 2)
        alone = [run_cell(cell) for cell in cells]
        for a, b in zip(pooled, alone):
            a.pop("wall_seconds", None)
            b.pop("wall_seconds", None)
            assert a == b
        assert sorted(alone[0]) == ["accuracy", "metrics",
                                    "sec_per_iter_model"]
        assert sorted(alone[1]) == ["first_loss", "last_epoch_loss"]

    def test_one_usable_cpu_runs_in_process(self, monkeypatch):
        def no_pool(cells, processes):
            raise AssertionError("a pool started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(experiment, "_run_pool", no_pool)
        cells = short_cells()[1:]
        assert run_cells(cells) == [run_cell(cells[0])]

    @pytest.mark.parametrize("cells, cpus, expected", [
        (10, 2, 2), (2, 8, 2), (1, 2, 1), (6, 1, 1), (0, 4, 1), (3, 3, 3)])
    def test_process_count_is_cells_capped_by_cpus(self, cells, cpus,
                                                   expected):
        assert experiment._process_count(cells, cpus) == expected

    def test_importing_m2t_loads_no_pool_module(self):
        src = str(Path(m2t.__file__).resolve().parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import m2t, m2t.cli, m2t.experiment; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", code, src],
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_nan_loss_error_survives_pickling(self):
        rec = MetricsRecord(iteration=3, epoch=1, loss=float("nan"), l1=1.0,
                            l2=0.5, lr=0.1, m=0.03, alpha=1.0,
                            hist_drift=float("nan"), sec_per_iter=0.001)
        before = MetricsRecord(2, 1, 1.5, 1.0, 0.5, 0.1, 0.03, 1.0, 0.2, 0.001)
        err = pickle.loads(pickle.dumps(
            NanLossError("non-finite loss at iteration 3", rec, [before])))
        assert type(err) is NanLossError
        assert str(err) == "non-finite loss at iteration 3"
        assert err.diagnostic.csv_row() == rec.csv_row()
        assert err.metrics == [before]


class TestVerdicts:
    @pytest.mark.parametrize("diffs, passes", [
        ([0.1, 0.1, 0.1, 0.1, 0.1], True),
        ([-0.03, 0.099, 0.032, 0.11, 0.026], True),
        ([-0.01, -0.01, 0.1, 0.1, 0.1], False),  # 3 of 5 positive
        ([-0.5, 0.1, 0.1, 0.1, 0.1], False),  # negative mean
        ([0.0, 0.0, 0.0], False),  # no positive seed
    ])
    def test_criterion_8(self, diffs, passes):
        assert bn_experiment_passes(diffs) is passes

    @pytest.mark.parametrize("first, last, passes", [
        (5.45, 4.73, True),
        (math.log(257) * 1.06, 4.0, False),  # 6% off ln(1+K)
        (5.45, 0.9 * 5.45, False),  # last-epoch mean not below 0.9x
    ])
    def test_criterion_9(self, first, last, passes):
        assert moco_smoke_passes(first, last, 256) is passes
