"""The arena updates against the per-block oracle of ``update_reference``.

The student's SGD step, the teacher's weight EMA and the teacher's BN
history commit run as whole-vector operations over flat arenas. Over 25
steps each must give the per-block updates' bits exactly, compared as
int64 so that +0 and -0 differ, including after a test rebinds a block.
"""

import numpy as np
import pytest

from m2t import cli, evaluate
from m2t import trainer as trainer_module
from m2t.engine import parameter
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
    got = [Param(n, parameter(v.copy()), ex)
           for (n, _, ex), v in zip(BLOCKS, init)]
    want = [Param(n, parameter(v.copy()), ex)
            for (n, _, ex), v in zip(BLOCKS, init)]
    arena = Arena(got)
    state = OptimizerState(momentum=0.9, **OPTIMIZERS[name])
    ref_state = ref.OptimizerState(momentum=0.9, **OPTIMIZERS[name])
    for k in range(STEPS):
        grads = [signed_zeros(rng, shape) for _, shape, _ in BLOCKS]
        lr = 0.5 / (k + 1)
        # backward adds the first gradient to the zeroed arena; the oracle
        # got it as 0.0 + g.
        arena.zero_grads()
        for p, g in zip(got, grads):
            p.tensor.grad += g
        sgd_step(arena, state, lr)
        ref.sgd_step(want, [np.add(g, 0.0) for g in grads], ref_state, lr)
        for p, q, (a, b) in zip(got, want, arena.bounds):
            assert_bits_equal(p.tensor.values, q.tensor.values, p.name)
            assert_bits_equal(state.buffer[a:b],
                              ref_state.buffers[q.name].ravel(), p.name)
    # Every block stayed a view of the arena.
    for p in got:
        assert p.tensor.values.base is arena.values


def test_rebound_values_and_grad_take_part_in_the_step():
    rng = np.random.default_rng(1)
    init = [rng.normal(size=shape) for _, shape, _ in BLOCKS]
    got = [Param(n, parameter(v.copy()), ex)
           for (n, _, ex), v in zip(BLOCKS, init)]
    want = [Param(n, parameter(v.copy()), ex)
            for (n, _, ex), v in zip(BLOCKS, init)]
    arena = Arena(got)
    state = OptimizerState(weight_decay=0.01)
    ref_state = ref.OptimizerState(weight_decay=0.01)
    for k in range(3):
        grads = [rng.normal(size=shape) for _, shape, _ in BLOCKS]
        arena.zero_grads()
        for p, g in zip(got, grads):
            p.tensor.grad += g
        if k == 1:
            new = rng.normal(size=got[3].tensor.shape)
            got[3].tensor.values = new.copy()
            want[3].tensor.values = new.copy()
            got[0].tensor.grad = grads[0] * 2.0  # a fresh array
            grads[0] = grads[0] * 2.0
        sgd_step(arena, state, 0.1)
        ref.sgd_step(want, [np.add(g, 0.0) for g in grads], ref_state, 0.1)
        for p, q in zip(got, want):
            assert_bits_equal(p.tensor.values, q.tensor.values, p.name)
    assert got[3].tensor.values.base is arena.values
    assert got[0].tensor.grad.base is arena.grads


def test_state_is_bound_to_one_arena():
    state = OptimizerState()
    a = Arena([Param("w", parameter(np.ones(2)))])
    a.zero_grads()
    sgd_step(a, state, 0.1)
    b = Arena([Param("w", parameter(np.ones(2)))])
    b.zero_grads()
    with pytest.raises(ValueError, match="another arena"):
        sgd_step(b, state, 0.1)


def test_missing_gradient_rejected():
    arena = Arena([Param("w", parameter(np.ones(2)))])
    arena.params[0].tensor.grad = None
    with pytest.raises(ValueError, match="w: no gradient"):
        sgd_step(arena, OptimizerState(), 0.1)


# ---------------------------------------------------------------------------
# training runs: arena updates against the oracle, step by step


MOCO = dict(mode="moco", m_base=0.001, m_schedule="constant",
            alpha_base=0.064, alpha_schedule="constant", queue_capacity=32,
            teacher_bn="shuffling")

CONFIGS = {
    "byol_sgd": {},
    "byol_wd_exclude": dict(wd_exclude_bias_bn=True, weight_decay=0.01),
    "byol_lars": dict(optimizer="lars", weight_decay=0.01),
    "byol_plain_teacher": dict(teacher_bn="plain", workers=2),
    "moco": MOCO,
}


def per_block_zero_grads(self):
    for p in self.params:
        p.tensor.zero_grad()


def reference_step(monkeypatch, trainer, ref_state, batch, k):
    """``trainer.train_step`` with the per-block oracle for every update,
    and gradients written fresh by backward as before the arena."""
    def step(arena, state, lr):
        ref.sgd_step(list(arena.params), [p.tensor.grad for p in arena.params],
                     ref_state, lr)

    with monkeypatch.context() as m:
        m.setattr(trainer_module, "sgd_step", step)
        m.setattr(trainer_module, "ema_update", ref.ema_update)
        m.setattr(trainer_module, "commit_teacher_bn", ref.commit_teacher_bn)
        m.setattr(Arena, "zero_grads", per_block_zero_grads)
        return trainer.train_step(batch, k)


def snapshot(trainer) -> dict:
    pair = trainer.pair
    out = {p.name: p.tensor.values for p in pair.student.params}
    out.update({p.name: p.tensor.values for p in pair.teacher.params})
    for i, state in enumerate(pair.teacher_bn_states()):
        out[f"hist_mean{i}"] = state.hist_mean
        out[f"hist_var{i}"] = state.hist_var
        out[f"commits{i}"] = float(state.commits)
    if trainer.queue is not None:
        out["queue"] = trainer.queue.as_matrix()
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_training_steps_equal_per_block_oracle(monkeypatch, name):
    cfg = small_config(epochs=5, **CONFIGS[name])
    got, want = Trainer(cfg), Trainer(cfg)
    ref_state = ref.OptimizerState(
        kind=cfg.optimizer, momentum=cfg.sgd_momentum,
        weight_decay=cfg.weight_decay, trust_coeff=cfg.trust_coeff,
        wd_exclude=cfg.wd_exclude_bias_bn)
    samples, size = got.dataset.samples, cfg.batch_size
    assert got.total_iters == want.total_iters >= 20
    for k in range(got.total_iters):
        order = got.epoch_order(k // got.iters_per_epoch)
        start = got.batch_starts[k % got.iters_per_epoch]
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

        def step(arena, opt, lr):
            if oracle:
                ref.sgd_step(list(arena.params),
                             [p.tensor.grad for p in arena.params],
                             ref_state, lr)
            else:
                real_step(arena, opt, lr)
            seen.append([p.tensor.values.copy() for p in arena.params])

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
# EMA and commit on a pair, with rebound blocks and histories


def tiny_pair(seed):
    return build_pair(MlpSpec(widths=(4, 6, 6), bn=(True, True),
                              relu=(True, True)),
                      mlp_spec((6, 6, 4), final_plain=False),
                      mlp_spec((4, 4, 4)), np.random.default_rng(seed))


def twin_pairs(seed=4):
    return tiny_pair(seed), tiny_pair(seed)


def test_ema_with_rebound_blocks_equals_oracle():
    got, want = twin_pairs()
    rng = np.random.default_rng(5)
    for k in range(STEPS):
        if k % 5 == 2:  # rebind one student and one teacher block
            for pair in (got, want):
                r = np.random.default_rng(k)
                s = pair.projector.layers[0].bias
                s.values = r.normal(size=s.shape)
                t = pair.t_encoder.layers[1].weight
                t.values = r.normal(size=t.shape)
        else:  # move the student in place
            delta = signed_zeros(rng, got.student.values.shape)
            for pair in (got, want):
                pair.student.gather()[:] += delta
        m = float(rng.uniform())
        ema_update(got, m)
        ref.ema_update(want, m)
        for (t, _), (u, _) in zip(got.ema_pairs(), want.ema_pairs()):
            assert_bits_equal(t.values, u.values)
    for arena in (got.teacher, got.student):
        for p in arena.params:
            assert p.tensor.values.base is arena.values


def test_commit_with_rebound_history_equals_oracle():
    got, want = twin_pairs()
    rng = np.random.default_rng(6)
    for k in range(STEPS):
        v1, v2 = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        alpha = float(rng.uniform())
        if k in (3, 11):
            for pair in (got, want):
                state = pair.teacher_bn_states()[1]
                state.hist_mean = state.hist_mean + 1.0
                state.hist_var = np.abs(state.hist_var - 0.5)
        for pair in (got, want):
            forward_teacher(pair, v1, alpha)
            forward_teacher(pair, v2, alpha)
        drift = commit_teacher_bn(got, alpha)
        drift_want = ref.commit_teacher_bn(want, alpha)
        assert_bits_equal(drift, drift_want, f"drift at step {k}")
        for s, t in zip(got.teacher_bn_states(), want.teacher_bn_states()):
            assert_bits_equal(s.hist_mean, t.hist_mean)
            assert_bits_equal(s.hist_var, t.hist_var)
            assert s.commits == t.commits == k + 1
        # Every layer's history is a view of one joint history.
        bases = {id(h.base) for s in got.teacher_bn_states()
                 for h in (s.hist_mean, s.hist_var)}
        assert len(bases) == 2


def test_commit_of_some_layers_only_rejected():
    pair = tiny_pair(7)
    forward_teacher(pair, np.random.default_rng(8).normal(size=(8, 4)), 0.5)
    pair.teacher_bn_states()[0].pending.clear()
    with pytest.raises(ValueError, match="disagree"):
        commit_teacher_bn(pair, 0.5)


# ---------------------------------------------------------------------------
# the per-step finiteness check


def test_non_finite_gradient_exits_3_at_its_iteration(tmp_path, monkeypatch,
                                                      capsys):
    arenas = []
    real_zero, real_backward = Arena.zero_grads, trainer_module.backward
    calls = []

    def zero_grads(self):
        arenas.append(self)
        real_zero(self)

    def backward(loss):
        real_backward(loss)
        calls.append(loss.item())
        if len(calls) == 3:  # iteration 2: the loss itself is finite
            arenas[-1].grads[7] = np.nan

    monkeypatch.setattr(Arena, "zero_grads", zero_grads)
    monkeypatch.setattr(trainer_module, "backward", backward)
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

    def step(arena, state, lr):
        real_step(arena, state, lr)
        arena.values[-1] = np.inf

    monkeypatch.setattr(trainer_module, "sgd_step", step)
    trainer = Trainer(small_config())
    with pytest.raises(NanLossError, match="parameter after the step") as e:
        trainer.train_step(trainer.dataset.samples[:16], 0)
    assert np.isfinite(e.value.diagnostic.loss)
