import gc
import importlib
import inspect
import itertools
import os
import pkgutil
import resource
import tracemalloc

import numpy as np
import pytest

import m2t
from m2t import model
from m2t import trainer as trainer_module
from m2t.cli import keep_freed_memory
from m2t.config import TrainConfig, DataConfig, from_dict, preset
from m2t.data import AugmentSpec
from m2t.engine import Tensor
from m2t.model import Arena, Param, forward_student, forward_teacher, mlp_spec
from m2t.normalization import MomentumBNState
from m2t.trainer import (
    MetricsRecord,
    NanLossError,
    OptimizerState,
    Trainer,
    ablation_grid,
    grid_trainers,
    modeled_sec_per_iter,
    run_training,
    sgd_step,
)

from engine_reference import spy_backwards
from update_reference import ema_pairs


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError):
        return False


def small_config(**overrides):
    base = dict(
        mode="byol_m2t",
        seed=0,
        epochs=2,
        batch_size=16,
        workers=4,
        lr_base=0.3,
        data=DataConfig(kind="synthetic", num_classes=4, dim=8,
                        per_class=20, spread=0.3),
        augment=AugmentSpec(noise_std=0.2, mask_prob=0.1,
                            solarize_prob_teacher=0.0),
        log_interval=1,
        warmup_epochs=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def param(name, values, exclude=False):
    return Param(name=name, tensor=Tensor(np.asarray(values, dtype=float)),
                 exclude=exclude)


def step(state, grads, lr):
    """One sgd_step of ``state`` with the given per-block gradients, written
    into its arena's gradient vector."""
    state.arena.zero_grads()
    for p, g in zip(state.arena.params, grads):
        p.tensor.grad[...] = g
    sgd_step(state, lr)


class TestSgdStep:
    def test_zero_grads_zero_buffers_leave_params(self):
        p = param("w", [1.0, 2.0])
        state = OptimizerState(Arena([p]), weight_decay=0.0)
        step(state, [np.zeros(2)], lr=0.1)
        np.testing.assert_array_equal(p.tensor.values, [1.0, 2.0])

    def test_single_step(self):
        p = param("w", [1.0, 2.0])
        state = OptimizerState(Arena([p]), weight_decay=0.0)
        g = np.array([0.5, -0.5])
        step(state, [g], lr=0.1)
        np.testing.assert_allclose(p.tensor.values, [0.95, 2.05])

    def test_two_steps_with_constant_gradient(self):
        p = param("w", [0.0])
        state = OptimizerState(Arena([p]), weight_decay=0.0, momentum=0.9)
        g = np.array([1.0])
        lr = 0.1
        step(state, [g], lr)
        step(state, [g], lr)
        # First step moves lr*g, second lr*(0.9 g + g).
        expected = -(lr * 1.0 + lr * 1.9)
        np.testing.assert_allclose(p.tensor.values, [expected])

    def test_weight_decay_excluded_when_configured(self):
        p = param("bias", [2.0], exclude=True)
        q = param("weight", [2.0], exclude=False)
        state = OptimizerState(Arena([p, q]), weight_decay=0.5,
                               wd_exclude=True)
        step(state, [np.zeros(1), np.zeros(1)], lr=0.1)
        np.testing.assert_array_equal(p.tensor.values, [2.0])
        assert q.tensor.values[0] < 2.0

    def test_shape_mismatch(self):
        # A block lives in its arena, so values rebound to an array of
        # another shape are rejected before the step.
        p = param("w", [1.0, 2.0])
        state = OptimizerState(Arena([p]))
        p.tensor.values = np.zeros(3)
        with pytest.raises(ValueError, match="w: values rebound"):
            step(state, [np.zeros(2)], lr=0.1)


class TestLarsStep:
    def test_excluded_block_matches_sgd(self):
        vals = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, 0.1, -0.2])
        a = param("bias", vals.copy(), exclude=True)
        b = param("bias", vals.copy(), exclude=True)
        # LARS keeps excluded blocks out of weight decay without the flag.
        lars_state = OptimizerState(Arena([a]), kind="lars", weight_decay=0.1)
        sgd_state = OptimizerState(Arena([b]), kind="sgd", weight_decay=0.1,
                                   wd_exclude=True)
        step(lars_state, [g.copy()], lr=0.2)
        step(sgd_state, [g.copy()], lr=0.2)
        np.testing.assert_array_equal(a.tensor.values, b.tensor.values)

    def test_zero_norm_weight_is_not_moved(self):
        p = param("w", np.zeros(4))
        state = OptimizerState(Arena([p]), kind="lars", weight_decay=0.0)
        step(state, [np.ones(4)], lr=0.5)
        np.testing.assert_array_equal(p.tensor.values, np.zeros(4))

    def test_hand_computed_local_lr(self):
        p = param("w", [3.0, 4.0])
        state = OptimizerState(Arena([p]), kind="lars", weight_decay=0.0,
                               trust_coeff=0.001, momentum=0.9)
        g = np.array([0.0, 1.0])
        lr = 1.0
        step(state, [g], lr)
        # local lr = 0.001 * 5 / (1 + 1e-9) = 0.005; update = -lr * 0.005 * g
        np.testing.assert_allclose(p.tensor.values, [3.0, 4.0 - 0.005],
                                   rtol=1e-6)


class TestTrainStep:
    def test_zero_lr_zero_m_only_history_moves(self):
        cfg = small_config(lr_base=0.0, m_base=0.0)
        trainer = Trainer(cfg)
        student_before = [t.values.copy() for _, t, _ in
                          trainer.pair.student_params()]
        teacher_before = [t.values.copy() for t, _ in ema_pairs(trainer.pair)]
        batch = trainer.dataset.samples[:16]
        rec = trainer.train_step(batch, k=0)
        for before, (_, t, _) in zip(student_before,
                                     trainer.pair.student_params()):
            np.testing.assert_array_equal(t.values, before)
        for before, (t, _) in zip(teacher_before, ema_pairs(trainer.pair)):
            np.testing.assert_array_equal(t.values, before)
        assert rec.hist_drift > 0.0
        assert trainer.pair.history.initialized

    def test_commit_count_equals_iterations(self, monkeypatch):
        commits = []
        real_commit = model.momentum_bn_lazy_commit

        def spy(state, mean, var, alpha):
            commits.append(state)
            real_commit(state, mean, var, alpha)

        monkeypatch.setattr(model, "momentum_bn_lazy_commit", spy)
        cfg = small_config()
        trainer = Trainer(cfg)
        trainer.run()
        total = cfg.epochs * trainer.iters_per_epoch
        assert len(commits) == total
        assert all(state is trainer.pair.history for state in commits)

    def test_teacher_never_accumulates_gradients(self):
        cfg = small_config()
        trainer = Trainer(cfg)
        trainer.train_step(trainer.dataset.samples[:16], k=0)
        # The teacher has no gradients for a backward to reach.
        assert trainer.pair.teacher.grads is None
        for t, _ in ema_pairs(trainer.pair):
            assert t.grad is None

    def test_nan_loss_aborts_with_diagnostic(self):
        cfg = small_config()
        trainer = Trainer(cfg)
        trainer.pair.encoder.layers[0].weight.values[0, 0] = np.nan
        with pytest.raises(NanLossError) as exc:
            trainer.train_step(trainer.dataset.samples[:16], k=0)
        assert np.isnan(exc.value.diagnostic.loss)

    @pytest.mark.parametrize("mode", ["byol_m2t", "moco"])
    def test_step_after_a_failed_step_equals_a_fresh_step(self, mode):
        # The failed step's teacher pass returned statistics that no commit
        # took; the next step, on another batch, must not see them.
        cfg = small_config(mode=mode, queue_capacity=32)
        trainer = Trainer(cfg)
        batch, failing = np.split(trainer.dataset.samples[:32], 2)
        weight = trainer.pair.encoder.layers[0].weight.values
        kept = weight[0, 0]
        weight[0, 0] = np.nan
        with pytest.raises(NanLossError):
            trainer.train_step(failing, k=0)
        weight[0, 0] = kept
        assert trainer.train_step(batch, k=0) \
            == Trainer(cfg).train_step(batch, k=0)

    def test_step_after_a_teacher_pass_that_raised_equals_a_fresh_step(self):
        # A plain teacher needs a worker count: a pass called without one
        # raises, and leaves nothing behind for the next step to find.
        cfg = small_config(teacher_bn="plain")
        trainer = Trainer(cfg)
        history = trainer.pair.history

        def snapshot():
            return (history.hist_mean.tobytes(), history.hist_var.tobytes(),
                    history.initialized)

        before = snapshot()
        batch = trainer.dataset.samples[:16]
        with pytest.raises(ValueError, match="worker count"):
            forward_teacher(trainer.pair, batch, alpha=1.0)
        assert snapshot() == before
        assert trainer.train_step(batch, k=0) \
            == Trainer(cfg).train_step(batch, k=0)


class TestRunTraining:
    def test_zero_epochs_checkpoint_is_initialization(self):
        cfg = small_config(epochs=0)
        trainer = Trainer(cfg)
        init_weights = {name: t.values.copy()
                        for name, t, _ in trainer.pair.t_encoder.params()}
        result = trainer.run()
        for i, layer in enumerate(trainer.pair.t_encoder.layers):
            np.testing.assert_array_equal(
                result.payload["arrays"][f"enc{i}.weight"],
                init_weights[f"t_enc{i}.weight"])
        assert result.metrics == []
        assert result.payload["bn_initialized"] == [False, False]

    def test_determinism_identical_metric_streams(self):
        cfg1 = small_config()
        cfg2 = small_config()
        r1 = run_training(cfg1)
        r2 = run_training(cfg2)
        rows1 = [m.csv_row() for m in r1.metrics]
        rows2 = [m.csv_row() for m in r2.metrics]
        assert rows1 == rows2
        for name in r1.payload["arrays"]:
            assert (r1.payload["arrays"][name].tobytes()
                    == r2.payload["arrays"][name].tobytes())

    def test_synced_multiworker_equals_plain_single_worker(self):
        base = dict(seed=3, epochs=1, batch_size=16, lr_base=0.3,
                    data=DataConfig(kind="synthetic", num_classes=4, dim=8,
                                    per_class=20, spread=0.3),
                    augment=AugmentSpec(noise_std=0.2,
                                        solarize_prob_teacher=0.0),
                    log_interval=1, warmup_epochs=0)
        synced = TrainConfig(mode="byol_m2t", workers=4, student_bn="synced",
                             teacher_bn="synced", **base)
        plain = TrainConfig(mode="byol_m2t", workers=1, teacher_bn="plain",
                            **base)
        r_synced = run_training(synced)
        r_plain = run_training(plain)
        for a, b in zip(r_synced.metrics, r_plain.metrics):
            assert a.loss == b.loss
            assert a.l1 == b.l1 and a.l2 == b.l2
            assert a.hist_drift == b.hist_drift
        for name in r_synced.payload["arrays"]:
            assert (r_synced.payload["arrays"][name].tobytes()
                    == r_plain.payload["arrays"][name].tobytes())

    def test_m_zero_schedule_freezes_teacher(self):
        cfg = small_config(m_base=0.0)
        trainer = Trainer(cfg)
        init = [t.values.copy() for t, _ in ema_pairs(trainer.pair)]
        trainer.run()
        for before, (t, _) in zip(init, ema_pairs(trainer.pair)):
            np.testing.assert_array_equal(t.values, before)

    def test_all_losses_finite_on_reference_config(self):
        result = run_training(small_config(epochs=3))
        losses = [m.loss for m in result.metrics]
        assert all(np.isfinite(l) for l in losses)
        assert result.health == {"zero_norm_rows": 0}

    def test_trailing_batch_kept_when_worker_divisible(self):
        # 4*20=80 samples, batch 32, workers 4 -> 2 full + 16 remainder.
        cfg = small_config(batch_size=32, workers=4)
        trainer = Trainer(cfg)
        assert trainer.batch_sizes == [32, 32, 16]

    def test_batches_are_the_shuffled_rows_in_order(self):
        # 80 samples in batches of 32: the trailing 16-row batch included.
        trainer = Trainer(small_config(batch_size=32, workers=4, epochs=2))
        seen = []
        trainer.train_step = lambda batch, k: seen.append((k, batch.copy()))
        trainer.run()
        samples = trainer.dataset.samples
        expected = [samples[trainer.epoch_order(epoch)][start:start + size]
                    for epoch in range(2)
                    for start, size in zip(trainer.batch_starts,
                                           trainer.batch_sizes)]
        assert [k for k, _ in seen] == list(range(6))
        assert [b.shape[0] for _, b in seen] == [32, 32, 16] * 2
        for (_, got), want in zip(seen, expected):
            assert got.tobytes() == want.tobytes()

    def test_run_holds_no_copy_of_the_dataset(self):
        # 4 MB of samples and a narrow model: a shuffled copy of the samples
        # alone is twice the bound; one iteration's views and activations
        # peak at about 1.2 MB.
        cfg = small_config(batch_size=128, epochs=2, log_interval=100,
                           data=DataConfig(kind="synthetic", num_classes=4,
                                           dim=128, per_class=1024,
                                           spread=0.3),
                           encoder=mlp_spec((128, 16, 16), final_plain=False),
                           projector=mlp_spec((16, 16, 8)),
                           predictor=mlp_spec((8, 8, 8)))
        trainer = Trainer(cfg)
        nbytes = trainer.dataset.samples.nbytes
        assert nbytes >= 2 << 20
        tracemalloc.start()
        try:
            trainer.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 2

    @pytest.mark.parametrize("teacher_bn, draws", [("momentum", 0),
                                                   ("shuffling", 1)])
    def test_bn_permutation_drawn_only_for_shuffling(self, monkeypatch,
                                                     teacher_bn, draws):
        trainer = Trainer(small_config(teacher_bn=teacher_bn))
        paths = []

        def spy(seed, *path):
            paths.append(path[0])
            return substream_int(seed, *path)

        substream_int = trainer_module.substream_int
        monkeypatch.setattr(trainer_module, "substream_int", spy)
        trainer.train_step(trainer.dataset.samples[:16], 0)
        assert paths.count("bnperm") == draws

    @pytest.mark.skipif(not on_glibc(), reason="the heap policy is glibc's")
    def test_steady_state_steps_fault_in_no_pages(self):
        # Under glibc's dynamic thresholds a default-synth step could hand
        # about 430 pages back to the kernel and fault them in again on the
        # next step.
        assert keep_freed_memory()["applied"]
        trainer = Trainer(from_dict(preset("default-synth")))
        samples, order = trainer.dataset.samples, trainer.epoch_order(0)
        size = trainer.cfg.batch_size

        def step(k):
            trainer.train_step(samples[order[k * size:(k + 1) * size]], k)

        for k in range(10):
            step(k)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for k in range(10, 30):
            step(k)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 20 < 5

    def test_moco_mode_runs_and_fills_queue(self):
        cfg = small_config(mode="moco", m_base=0.001, m_schedule="constant",
                           alpha_base=0.064, alpha_schedule="constant",
                           queue_capacity=32)
        trainer = Trainer(cfg)
        start = trainer.queue.keys.copy()
        result = trainer.run()
        # Every slot of the bank holds a key of the run.
        assert trainer.queue.keys.shape == (32, start.shape[1])
        assert (trainer.queue.keys != start).any(axis=1).all()
        assert all(np.isfinite(m.loss) for m in result.metrics)
        # Contrastive mode builds no predictor, so none is optimized.
        assert not any(name.startswith("pred") for name in
                       (p.name for p in trainer.pair.student.params))

    def test_moco_shuffling_teacher_runs(self):
        cfg = small_config(mode="moco", teacher_bn="shuffling", m_base=0.001,
                           m_schedule="constant", alpha_base=0.064,
                           alpha_schedule="constant", queue_capacity=32)
        result = run_training(cfg)
        assert all(np.isfinite(m.loss) for m in result.metrics)


def moco_smoke_trainer(**overrides) -> Trainer:
    return Trainer(from_dict(dict(preset("moco-smoke"), **overrides)))


class TestMocoHasNoPredictor:
    def test_student_tape_covers_encoder_and_projector_only(self,
                                                            monkeypatch):
        # The student's backward chain runs one fused dense backward per
        # layer: 2 encoder and 6 projector layers.
        ran, _ = spy_backwards(monkeypatch, "dense")
        trainer = moco_smoke_trainer()
        z, p, backward = forward_student(trainer.pair,
                                         trainer.dataset.samples[:128], 4)
        trainer.pair.student.zero_grads()
        backward(np.ones_like(z))
        assert ran == ["dense"] * (2 + 6)
        assert p is None and trainer.pair.predictor is None

    def test_modeled_sec_per_iter_counts_no_predictor(self):
        # The moco-shuffle-w4 benchmark recipe: shuffling teacher BN.
        trainer = moco_smoke_trainer(teacher_bn="shuffling")
        cost = modeled_sec_per_iter(trainer.cfg, trainer.pair)
        assert cost == pytest.approx(0.024777216, rel=1e-12)


def test_moco_keys_normalized_once_per_iteration():
    cfg = small_config(mode="moco", m_base=0.001, m_schedule="constant",
                       alpha_base=0.064, alpha_schedule="constant",
                       queue_capacity=32)
    trainer = Trainer(cfg)
    last = trainer.pair.t_projector.layers[-1]  # no BN: zero keys out
    last.weight.values[...] = 0.0
    last.bias.values[...] = 0.0
    trainer.train_step(trainer.dataset.samples[:16], 0)
    # Each zero key is counted once, and the queue holds the rows the
    # positive logit used.
    assert trainer.zero_norm_rows == 16
    assert not trainer.queue.keys[:16].any()


# ---------------------------------------------------------------------------
# run state belongs to its run


def test_no_module_holds_an_m2t_object():
    """Every object of a class defined in ``m2t`` belongs to a run: no
    module holds one, so runs in one process share no state through it."""
    held = []
    for info in pkgutil.iter_modules(m2t.__path__, "m2t."):
        module = importlib.import_module(info.name)
        held += [f"{info.name}.{name}" for name, value in vars(module).items()
                 if type(value).__module__.split(".")[0] == "m2t"]
    assert held == []


def test_no_module_holds_a_list_and_the_engine_no_tape():
    """A run's backward is the chain of its ops' closures, held by the run:
    no ``m2t`` module binds a list (a stack of tapes, say) that runs in one
    process would share, and the engine defines no tape and no generic
    backward."""
    lists = []
    for info in pkgutil.iter_modules(m2t.__path__, "m2t."):
        module = importlib.import_module(info.name)
        lists += [f"{info.name}.{name}" for name, value in vars(module).items()
                  if isinstance(value, list)]
    assert lists == []
    engine = importlib.import_module("m2t.engine")
    assert [name for name in ("Tape", "record", "active_tape", "backward",
                              "add") if hasattr(engine, name)] == []


def test_history_holds_only_its_statistics():
    """A teacher pass returns its statistics to its caller, so a BN history
    holds its statistics alone, and no ``m2t`` module keeps statistics
    pending between a pass and its commit."""
    state = MomentumBNState(np.zeros(3), np.ones(3))
    assert sorted(vars(state)) == ["hist_mean", "hist_var", "initialized"]
    found = []
    for info in pkgutil.iter_modules(m2t.__path__, "m2t."):
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            names = [attr]
            if inspect.isclass(value) and value.__module__ == info.name:
                names += [f"{attr}.{member}" for member in vars(value)]
            found += [f"{info.name}.{name}" for name in names
                      if name.rsplit(".", 1)[-1].startswith("pending")
                      or name.rsplit(".", 1)[-1] == "record_rows"]
    assert found == []


def test_no_public_function_takes_views():
    """A pass over stacked views reads the view count from its input's
    shape, so no public function or method of the modules that run one
    takes it as a parameter."""
    takers = []
    for name in ("engine", "model", "objectives", "normalization"):
        module = importlib.import_module(f"m2t.{name}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isclass(value):
                members = [(f"{attr}.{m}", f) for m, f in inspect.getmembers(
                    value, inspect.isfunction)
                    if not m.startswith("_") or m == "__init__"]
            else:
                members = [(attr, value)] if inspect.isfunction(value) else []
            takers += [f"m2t.{name}.{qual}" for qual, f in members
                       if "views" in inspect.signature(f).parameters]
    assert takers == []


def zero_key_trainer(**overrides) -> Trainer:
    """A moco trainer whose every key is a zero row: the teacher's last
    projector layer (no BN) is zero, and the EMA at m = 0 keeps it so."""
    trainer = Trainer(small_config(
        mode="moco", m_base=0.0, m_schedule="constant", alpha_base=0.064,
        alpha_schedule="constant", queue_capacity=32, **overrides))
    last = trainer.pair.t_projector.layers[-1]
    last.weight.values[...] = 0.0
    last.bias.values[...] = 0.0
    return trainer


def test_trainers_stepped_alternately_report_their_own_health():
    """Two runs stepped in turn in one process give the metrics and health
    each gives alone."""
    configs = [dict(batch_size=16, epochs=1), dict(batch_size=8, epochs=2)]
    alone = [zero_key_trainer(**cfg).run() for cfg in configs]
    assert [r.health for r in alone] == [{"zero_norm_rows": 80},
                                         {"zero_norm_rows": 160}]

    def batches(trainer):
        for epoch in range(trainer.cfg.epochs):
            order = trainer.epoch_order(epoch)
            for start, size in zip(trainer.batch_starts, trainer.batch_sizes):
                yield trainer.dataset.samples[order[start:start + size]]

    trainers = [zero_key_trainer(**cfg) for cfg in configs]
    records = [[], []]
    for k, step in enumerate(itertools.zip_longest(*map(batches, trainers))):
        for trainer, batch, seen in zip(trainers, step, records):
            if batch is not None:
                seen.append(trainer.train_step(batch, k).csv_row())
    for trainer, seen, result in zip(trainers, records, alone):
        assert seen == [m.csv_row() for m in result.metrics]
        assert {"zero_norm_rows": trainer.zero_norm_rows} == result.health


class TestIterationTape:
    """A step's backward is its chain of op closures: one per student
    layer and one for the loss, dropped when the step ends."""

    @pytest.fixture
    def backward_spy(self, monkeypatch):
        """The ops whose backwards ran, in order, and weak references to
        every backward the ops returned."""
        return spy_backwards(monkeypatch, "dense", "normalized_mse",
                             "info_nce")

    # Besides the dense layers: byol's one two-view normalized MSE (one
    # student pass over both views stacked), moco's one InfoNCE.
    LOSS_OPS = {"default-synth": ["normalized_mse"],
                "moco-smoke": ["info_nce"]}

    @pytest.mark.parametrize("name, dense, total", [
        ("default-synth", 2 + 2 + 2, 7),
        ("moco-smoke", 2 + 6, 9),
    ])
    def test_one_dense_entry_per_layer(self, backward_spy, name, dense, total):
        trainer = Trainer(from_dict(preset(name)))
        trainer.train_step(trainer.dataset.samples[:128], 0)
        ops, _ = backward_spy
        assert ops.count("dense") == dense
        assert len(ops) == total
        assert [op for op in ops if op != "dense"] == self.LOSS_OPS[name]

    @pytest.mark.parametrize("mode", ["byol_m2t", "moco"])
    def test_tape_freed_without_the_cycle_collector(self, backward_spy, mode):
        trainer = Trainer(small_config(mode=mode))
        gc.collect()
        gc.disable()
        try:
            trainer.train_step(trainer.dataset.samples[:16], 0)
            ops, made = backward_spy
            assert ops and made
            assert [ref for ref in made if ref() is not None] == []
        finally:
            gc.enable()


class TestCostModel:
    def test_synced_costs_more_than_momentum(self):
        cfg_m = small_config()
        t_m = Trainer(cfg_m)
        cfg_s = small_config(student_bn="synced", teacher_bn="synced")
        t_s = Trainer(cfg_s)
        cost_m = modeled_sec_per_iter(cfg_m, t_m.pair)
        cost_s = modeled_sec_per_iter(cfg_s, t_s.pair)
        assert cost_s > cost_m

    def test_momentum_matches_plain_compute(self):
        cfg_m = small_config()
        cfg_p = small_config(teacher_bn="plain")
        cost_m = modeled_sec_per_iter(cfg_m, Trainer(cfg_m).pair)
        cost_p = modeled_sec_per_iter(cfg_p, Trainer(cfg_p).pair)
        assert cost_m == cost_p


class TestAblationGrid:
    def test_grid_shape_and_shared_seeds(self):
        cfg = small_config(epochs=1, probe_epochs=4)
        rows = ablation_grid(grid_trainers(cfg))
        assert len(rows) == 6
        combos = {(r["student"], r["teacher"]) for r in rows}
        assert combos == {("plain", "plain"), ("plain", "synced"),
                          ("plain", "momentum"), ("synced", "plain"),
                          ("synced", "synced"), ("synced", "momentum")}
        for r in rows:
            assert 0.0 <= r["accuracy"] <= 1.0
        # Synced/synced must model slower iterations than plain/plain.
        cost = {(r["student"], r["teacher"]): r["sec_per_iter_model"]
                for r in rows}
        assert cost[("synced", "synced")] > cost[("plain", "plain")]
        assert cost[("plain", "momentum")] == cost[("plain", "plain")]
