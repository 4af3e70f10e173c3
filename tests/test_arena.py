"""The arena updates against the per-block oracle of ``update_reference``.

The student's SGD step, the teacher's weight EMA and the teacher's BN
history commit run as whole-vector operations over flat arenas, and the
two-view loss as one student and one teacher pass over stacked views.
Over 25 steps each must give the per-block updates' and per-view passes'
bits exactly, compared as int64 so that +0 and -0 differ, including
after a test writes a block in place. The arrays a step updates are
allocated before the first step and keep their identity across steps.
"""

import numpy as np
import pytest

from m2t import cli, evaluate
from m2t import trainer as trainer_module
from m2t.config import DataConfig
from m2t.engine import Tensor
from m2t.model import (Arena, MlpSpec, Param, build_pair, commit_teacher_bn,
                       ema_update, forward_teacher, mlp_spec)
from m2t.trainer import NanLossError, OptimizerState, Trainer, sgd_step

import update_reference as ref
from test_trainer import small_config

STEPS = 25


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_bits_equal(got, want, what=""):
    assert np.shape(got) == np.shape(want), what
    np.testing.assert_array_equal(bits(got), bits(want), err_msg=what)


def signed_zeros(rng, shape) -> np.ndarray:
    """Normal draws with about a fifth of the entries +0 or -0."""
    x = rng.normal(size=shape)
    zero = rng.random(shape) < 0.2
    x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return x


# ---------------------------------------------------------------------------
# sgd_step on bare arenas

BLOCKS = (("w0", (3, 4), False), ("b0", (4,), True), ("g0", (4,), True),
          ("w1", (4, 2), False), ("b1", (2,), True), ("w2", (1, 1), False))

OPTIMIZERS = {
    "sgd": dict(kind="sgd", weight_decay=0.01),
    "sgd_wd_exclude": dict(kind="sgd", weight_decay=0.01, wd_exclude=True),
    "sgd_no_wd": dict(kind="sgd", weight_decay=0.0),
    "lars": dict(kind="lars", weight_decay=0.01, trust_coeff=0.02),
}


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_sgd_step_equals_per_block_oracle(name):
    rng = np.random.default_rng(0)
    init = [signed_zeros(rng, shape) for _, shape, _ in BLOCKS]
    got = [Param(n, Tensor(v.copy()), ex)
           for (n, _, ex), v in zip(BLOCKS, init)]
    want = [Param(n, Tensor(v.copy()), ex)
            for (n, _, ex), v in zip(BLOCKS, init)]
    arena = Arena(got)
    state = OptimizerState(arena, momentum=0.9, **OPTIMIZERS[name])
    ref_state = ref.OptimizerState(momentum=0.9, **OPTIMIZERS[name])
    for k in range(STEPS):
        grads = [signed_zeros(rng, shape) for _, shape, _ in BLOCKS]
        lr = 0.5 / (k + 1)
        # A backward adds the first gradient into the zeroed arena; the
        # oracle gets it as 0.0 + g.
        arena.zero_grads()
        for p, g in zip(got, grads):
            p.tensor.grad += g
        sgd_step(state, lr)
        ref.sgd_step(want, [np.add(g, 0.0) for g in grads], ref_state, lr)
        for p, q, (a, b) in zip(got, want, arena.bounds):
            assert_bits_equal(p.tensor.values, q.tensor.values, p.name)
            assert_bits_equal(state.buffer[a:b],
                              ref_state.buffers[q.name].ravel(), p.name)
    # Every block stayed a view of the arena.
    for p in got:
        assert p.tensor.values.base is arena.values


def test_zero_grads_rejects_a_rebound_block():
    arena = Arena([Param(n, Tensor(np.ones(shape)), ex)
                   for n, shape, ex in BLOCKS])
    arena.zero_grads()
    arena.params[3].tensor.values = np.zeros(BLOCKS[3][1])
    with pytest.raises(ValueError, match="w1: values rebound"):
        arena.zero_grads()


def test_zero_grads_rejects_a_rebound_grad():
    # A backward adds into the arena's views, so a block whose grad was
    # rebound would drop out of the update: rejected, before any write.
    arena = Arena([Param(n, Tensor(np.ones(shape)), ex)
                   for n, shape, ex in BLOCKS])
    arena.grads[...] = 1.0
    arena.params[3].tensor.grad = np.zeros(BLOCKS[3][1])
    for check in (arena.check_views, arena.zero_grads):
        with pytest.raises(ValueError, match="w1: grad rebound"):
            check()
    assert (arena.grads == 1.0).all()


def test_gradient_views_are_bound_at_construction():
    # Each block's grad is its range of the gradient vector from the
    # arena's construction on, and zeroing keeps the same views.
    arena = Arena([Param(n, Tensor(np.ones(shape)), ex)
                   for n, shape, ex in BLOCKS])
    views = [p.tensor.grad for p in arena.params]
    arena.grads[...] = np.arange(arena.grads.size)
    for p, grad, (a, b) in zip(arena.params, views, arena.bounds):
        assert grad.shape == p.tensor.shape, p.name
        assert grad.base is arena.grads, p.name
        assert_bits_equal(grad.ravel(), np.arange(a, b, dtype=float), p.name)
    arena.zero_grads()
    assert all(p.tensor.grad is grad for p, grad in zip(arena.params, views))
    assert not arena.grads.any()


# ---------------------------------------------------------------------------
# training runs: arena updates against the oracle, step by step


MOCO = dict(mode="moco", m_base=0.001, m_schedule="constant",
            alpha_base=0.064, alpha_schedule="constant", queue_capacity=32,
            teacher_bn="shuffling")

# Projector and predictor 10 wide at 6- and 10-row views: the shapes at
# which a product over both views stacked rounds differently from one per
# view.
NARROW = dict(projector=mlp_spec((64, 64, 10)), predictor=mlp_spec((10, 32, 10)))

CONFIGS = {
    "byol_sgd": {},
    "byol_wd_exclude": dict(wd_exclude_bias_bn=True, weight_decay=0.01),
    "byol_lars": dict(optimizer="lars", weight_decay=0.01),
    "byol_plain_teacher": dict(teacher_bn="plain", workers=2),
    "byol_synced_teacher": dict(teacher_bn="synced", workers=2),
    "byol_shuffling_teacher": dict(teacher_bn="shuffling", workers=2),
    "byol_6_rows": dict(NARROW, batch_size=6, workers=2, epochs=2),
    "byol_10_rows": dict(NARROW, batch_size=10, workers=2, epochs=3),
    # 84 samples: five 16-row batches and a trailing 4-row one per epoch.
    "byol_partial_batch": dict(data=DataConfig(
        kind="synthetic", num_classes=4, dim=8, per_class=21, spread=0.3)),
    "moco": MOCO,
}


def per_block_zero_grads(self):
    for p in self.params:
        p.tensor.grad = np.zeros(p.tensor.shape)


def reference_step(monkeypatch, trainer, ref_state, batch, k):
    """``trainer.train_step`` with the per-block oracle for every update,
    each block's gradient added into zeros of its own instead of its arena
    view, and one student and one teacher pass per view."""
    def step(state, lr):
        params = state.arena.params
        ref.sgd_step(list(params), [p.tensor.grad for p in params], ref_state,
                     lr)

    with monkeypatch.context() as m:
        m.setattr(trainer_module, "sgd_step", step)
        m.setattr(trainer_module, "ema_update", ref.ema_update)
        m.setattr(trainer_module, "commit_teacher_bn", ref.commit_teacher_bn)
        m.setattr(trainer_module, "symmetrized_loss", ref.symmetrized_loss)
        m.setattr(Arena, "zero_grads", per_block_zero_grads)
        return trainer.train_step(batch, k)


def snapshot(trainer) -> dict:
    pair = trainer.pair
    out = {p.name: p.tensor.values for p in pair.student.params}
    out.update({p.name: p.tensor.values for p in pair.teacher.params})
    out["hist_mean"] = pair.history.hist_mean
    out["hist_var"] = pair.history.hist_var
    out["hist_initialized"] = float(pair.history.initialized)
    if trainer.queue is not None:
        out["queue"] = trainer.queue.keys
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_training_steps_equal_per_block_oracle(monkeypatch, name):
    cfg = small_config(**{"epochs": 5, **CONFIGS[name]})
    got, want = Trainer(cfg), Trainer(cfg)
    ref_state = ref.OptimizerState(
        kind=cfg.optimizer, momentum=cfg.sgd_momentum,
        weight_decay=cfg.weight_decay, trust_coeff=cfg.trust_coeff,
        wd_exclude=cfg.wd_exclude_bias_bn)
    samples = got.dataset.samples
    assert got.total_iters == want.total_iters >= 20
    # The partial-batch config ends each epoch with a 4-row batch.
    assert (got.batch_sizes[-1] == 4) == (name == "byol_partial_batch")
    for k in range(got.total_iters):
        order = got.epoch_order(k // got.iters_per_epoch)
        i = k % got.iters_per_epoch
        start, size = got.batch_starts[i], got.batch_sizes[i]
        batch = samples[order[start:start + size]]
        rec = got.train_step(batch, k)
        rec_want = reference_step(monkeypatch, want, ref_state, batch, k)
        assert rec.csv_row() == rec_want.csv_row()
        assert_bits_equal(rec.hist_drift, rec_want.hist_drift, f"drift {k}")
        a, b = snapshot(got), snapshot(want)
        assert a.keys() == b.keys()
        for key in a:
            assert_bits_equal(a[key], b[key], f"{key} at step {k}")
        for p, (lo, hi) in zip(got.pair.student.params,
                               got.pair.student.bounds):
            assert_bits_equal(got.opt.buffer[lo:hi],
                              ref_state.buffers[p.name].ravel(), p.name)


def test_probe_steps_equal_per_block_oracle(monkeypatch):
    rng = np.random.default_rng(3)
    features = rng.normal(size=(300, 6))
    labels = rng.integers(0, 3, size=300)

    def probe(oracle: bool):
        seen = []
        real_step = evaluate.sgd_step
        ref_state = ref.OptimizerState(momentum=0.9, weight_decay=0.0)

        def step(opt, lr):
            params = opt.arena.params
            if oracle:
                ref.sgd_step(list(params), [p.tensor.grad for p in params],
                             ref_state, lr)
            else:
                real_step(opt, lr)
            seen.append([p.tensor.values.copy() for p in params])

        with monkeypatch.context() as m:
            m.setattr(evaluate, "sgd_step", step)
            if oracle:
                m.setattr(Arena, "zero_grads", per_block_zero_grads)
            acc = evaluate.linear_probe(features, labels, epochs=STEPS,
                                        lr=0.5, seed=1)
        return acc, seen

    got_acc, got = probe(False)
    want_acc, want = probe(True)
    assert got_acc == want_acc
    assert len(got) == len(want) == STEPS
    for step_got, step_want in zip(got, want):
        for a, b in zip(step_got, step_want):
            assert_bits_equal(a, b)


# ---------------------------------------------------------------------------
# training state: every array a step updates exists before the first step
# and is written in place


STATE_CONFIGS = {
    "byol_lars_wd_exclude": dict(optimizer="lars", wd_exclude_bias_bn=True,
                                 weight_decay=0.01),
    "moco_queue_below_batch": dict(MOCO, queue_capacity=8),
}


def state_arrays(trainer) -> dict:
    """The arrays of a trainer's state that a training step updates."""
    pair, opt = trainer.pair, trainer.opt
    arrays = {"student values": pair.student.values,
              "student grads": pair.student.grads,
              "optimizer buffer": opt.buffer,
              "teacher values": pair.teacher.values,
              "hist_mean": pair.history.hist_mean,
              "hist_var": pair.history.hist_var}
    if isinstance(opt.wd, np.ndarray):
        arrays["weight decay"] = opt.wd
    if trainer.queue is not None:
        arrays["queue"] = trainer.queue.keys
    return arrays


@pytest.mark.parametrize("name", sorted(STATE_CONFIGS))
def test_training_state_keeps_its_arrays(name):
    cfg = small_config(**STATE_CONFIGS[name])
    trainer = Trainer(cfg)
    pair = trainer.pair
    params = pair.student.params + pair.teacher.params
    views = [(p.tensor.values, p.tensor.grad) for p in params]
    before = state_arrays(trainer)
    assert all(isinstance(a, np.ndarray) for a in before.values())
    assert ("weight decay" in before) == (cfg.optimizer == "lars")
    assert ("queue" in before) == (trainer.queue is not None)
    assert cfg.mode != "moco" or cfg.queue_capacity < cfg.batch_size
    size = cfg.batch_size
    for k in range(5):
        trainer.train_step(trainer.dataset.samples[k * size:(k + 1) * size],
                           k)
    after = state_arrays(trainer)
    assert after.keys() == before.keys()
    for key in before:
        assert after[key] is before[key], key
    for arena in (pair.student, pair.teacher):
        for p in arena.params:
            assert p.tensor.values.base is arena.values, p.name
            assert p.tensor.grad.base is arena.grads, p.name
    # Every block keeps the views its arena bound at construction.
    for p, (values, grad) in zip(params, views):
        assert p.tensor.values is values and p.tensor.grad is grad, p.name


def test_probe_state_keeps_its_arrays(monkeypatch):
    steps, commits = [], []
    real_step = evaluate.sgd_step
    real_commit = evaluate.momentum_bn_lazy_commit

    def step(opt, lr):
        arena = opt.arena
        steps.append((arena.values, arena.grads, opt.buffer,
                      *(p.tensor.values.base for p in arena.params),
                      *(p.tensor.grad.base for p in arena.params)))
        real_step(opt, lr)

    def commit(history, mean, var, momentum):
        commits.append((history.hist_mean, history.hist_var))
        real_commit(history, mean, var, momentum)

    monkeypatch.setattr(evaluate, "sgd_step", step)
    monkeypatch.setattr(evaluate, "momentum_bn_lazy_commit", commit)
    rng = np.random.default_rng(8)
    evaluate.linear_probe(rng.normal(size=(300, 6)),
                          rng.integers(0, 3, size=300), epochs=5, seed=2)
    assert len(steps) == len(commits) == 5
    values, grads, _, *blocks = steps[0]
    n = len(blocks) // 2
    assert all(b is values for b in blocks[:n])
    assert all(b is grads for b in blocks[n:])
    for seen in steps + commits:
        assert all(isinstance(a, np.ndarray) for a in seen)
    assert all(a is b for seen in steps for a, b in zip(seen, steps[0]))
    assert all(a is b for seen in commits for a, b in zip(seen, commits[0]))


# ---------------------------------------------------------------------------
# EMA and commit on a pair, with blocks and histories rewritten in place


def tiny_pair(seed, teacher_bn="momentum"):
    return build_pair(MlpSpec(widths=(4, 6, 6), bn=(True, True),
                              relu=(True, True)),
                      mlp_spec((6, 6, 4), final_plain=False),
                      mlp_spec((4, 4, 4)), np.random.default_rng(seed),
                      teacher_bn=teacher_bn)


def twin_pairs(seed=4):
    return tiny_pair(seed), tiny_pair(seed)


def test_ema_with_rewritten_blocks_equals_oracle():
    got, want = twin_pairs()
    rng = np.random.default_rng(5)
    for k in range(STEPS):
        if k % 5 == 2:  # write one student and one teacher block
            for pair in (got, want):
                r = np.random.default_rng(k)
                s = pair.projector.layers[0].bias
                s.values[...] = r.normal(size=s.shape)
                t = pair.t_encoder.layers[1].weight
                t.values[...] = r.normal(size=t.shape)
        else:  # move the whole student
            delta = signed_zeros(rng, got.student.values.shape)
            for pair in (got, want):
                pair.student.values += delta
        m = float(rng.uniform())
        ema_update(got, m)
        ref.ema_update(want, m)
        for (t, _), (u, _) in zip(ref.ema_pairs(got), ref.ema_pairs(want)):
            assert_bits_equal(t.values, u.values)
    for arena in (got.teacher, got.student):
        for p in arena.params:
            assert p.tensor.values.base is arena.values


def pass_stats(pair, batches, alpha, k) -> tuple:
    """The statistics rows of one teacher pass per batch, stacked."""
    return ref.stack_stats(*(
        forward_teacher(pair, v, alpha, workers=2, perm_seed=k)[1]
        for v in batches))


def commits_equal_oracle(got, want, views: int) -> list:
    """Run STEPS teacher iterations of ``views`` passes on twin pairs,
    committing ``got`` with :func:`commit_teacher_bn` and ``want`` with the
    per-layer oracle; the histories and drifts must agree to the bit. The
    first commit initializes the history, and steps 3 and 11 write one
    layer's range of it in place first. Returns the drifts."""
    rng = np.random.default_rng(6)
    hist = got.history
    mean0, var0 = hist.hist_mean, hist.hist_var
    assert not hist.initialized
    drifts = []
    for k in range(STEPS):
        batches = [rng.normal(size=(8, 4)) for _ in range(views)]
        alpha = float(rng.uniform())
        if k in (3, 11) and got.teacher_bn_layers():
            for pair in (got, want):
                ch = pair.teacher_bn_layers()[1].channels
                pair.history.hist_mean[ch] += 1.0
                pair.history.hist_var[ch] = np.abs(
                    pair.history.hist_var[ch] - 0.5)
        got_stats, want_stats = (pass_stats(pair, batches, alpha, k)
                                 for pair in (got, want))
        drift = commit_teacher_bn(got, got_stats, alpha)
        assert_bits_equal(drift, ref.commit_teacher_bn(want, want_stats,
                                                       alpha),
                          f"drift at step {k}")
        assert_bits_equal(hist.hist_mean, want.history.hist_mean)
        assert_bits_equal(hist.hist_var, want.history.hist_var)
        assert hist.initialized
        # Each history vector keeps its one array across commits, so every
        # layer's range of it stays a view of the committed history.
        assert hist.hist_mean is mean0 and hist.hist_var is var0
        drifts.append(drift)
    return drifts


def test_commit_with_rebound_history_equals_oracle():
    commits_equal_oracle(*twin_pairs(), views=2)


@pytest.mark.parametrize("kind, views", [
    ("momentum", 1), *[(kind, views) for kind in ("plain", "synced",
                                                  "shuffling")
                       for views in (1, 2)]])
def test_commit_of_every_teacher_kind_equals_oracle(kind, views):
    # Momentum BN with two views is the test above.
    drifts = commits_equal_oracle(tiny_pair(4, kind), tiny_pair(4, kind),
                                  views)
    assert all(d > 0.0 for d in drifts)


def test_commit_of_teacher_without_bn_has_zero_drift():
    def pair():
        return build_pair(MlpSpec((4, 6, 6), (False, False), (True, True)),
                          MlpSpec((6, 4), (False,), (False,)), None,
                          np.random.default_rng(9))

    for views in (1, 2):
        got, want = pair(), pair()
        assert got.history.hist_mean.size == 0
        assert commits_equal_oracle(got, want, views) == [0.0] * STEPS


# ---------------------------------------------------------------------------
# the per-step finiteness check


def test_non_finite_gradient_exits_3_at_its_iteration(tmp_path, monkeypatch,
                                                      capsys):
    arenas = []
    real_zero, real_loss = Arena.zero_grads, trainer_module.symmetrized_loss
    calls = []

    def zero_grads(self):
        arenas.append(self)
        real_zero(self)

    def symmetrized_loss(*args, **kwargs):
        lv = real_loss(*args, **kwargs)

        def backward(g):
            lv_backward(g)
            calls.append(float(lv.loss))
            if len(calls) == 3:  # iteration 2: the loss itself is finite
                arenas[-1].grads[7] = np.nan

        lv_backward, lv.backward = lv.backward, backward
        return lv

    monkeypatch.setattr(Arena, "zero_grads", zero_grads)
    monkeypatch.setattr(trainer_module, "symmetrized_loss", symmetrized_loss)
    out = tmp_path / "run"
    code = cli.main(["pretrain", "--preset", "default-synth",
                     "--set", "epochs=1", "--set", "log_interval=1",
                     "--out", str(out)])
    assert code == 3
    assert "non-finite gradient at iteration 2" in capsys.readouterr().err
    assert not (out / "checkpoint.m2t").exists()
    rows = (out / "metrics.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "1", "2"]
    assert np.isfinite(float(rows[-1].split(",")[2]))
    assert np.isfinite(calls[-1])


def test_non_finite_parameter_after_the_step_raises(monkeypatch):
    real_step = trainer_module.sgd_step

    def step(state, lr):
        real_step(state, lr)
        state.arena.values[-1] = np.inf

    monkeypatch.setattr(trainer_module, "sgd_step", step)
    trainer = Trainer(small_config())
    with pytest.raises(NanLossError, match="parameter after the step") as e:
        trainer.train_step(trainer.dataset.samples[:16], 0)
    assert np.isfinite(e.value.diagnostic.loss)
