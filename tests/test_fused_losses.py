"""The fused losses equal their composed references bit for bit.

Each fused loss (:func:`m2t.engine.normalized_mse`, :func:`~m2t.engine.info_nce`,
:func:`~m2t.engine.cross_entropy`), recorded as one entry of the reference
tape, is compared with the composed ops of ``tests/loss_reference.py``: the
value and every gradient must be equal arrays with equal sign bits (so a -0
where the reference has +0 fails), and the zero-norm rows the loss returns
must be the rows the reference counts. Whole training steps and probe runs
are compared the same way, with the program's losses swapped for the
references.
"""

import numpy as np
import pytest

from m2t import evaluate, objectives
from m2t import trainer as trainer_module
from m2t.evaluate import linear_probe
from m2t.objectives import NegQueue, queue_update
from m2t.trainer import Trainer

import engine_reference as composed
import loss_reference as ref
from engine_reference import backward, constant, parameter, record
from loss_reference import empty_queue
from test_trainer import small_config


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def run(loss_fn, inputs, upstream=1.0):
    """(value, input gradients, the loss's tape ops, zero-norm rows
    counted); backward is seeded with ``upstream`` as the loss's
    gradient."""
    for t in inputs:
        t.zero_grad()
    with record() as tape:
        loss = loss_fn()
        ops = [e.op for e in tape.entries]
    counted = tape.zero_norm_rows
    if ops:
        backward(loss, seed=np.full(loss.shape, upstream))
    return loss.values, [t.grad for t in inputs], ops, counted


# Upstream gradients of both signs, and a subnormal one whose share of the
# batch mean rounds to -0: negative factors turn zero terms into -0.
UPSTREAM = (1.0, -1.0, -5e-324)


def assert_same_as_reference(fused, composed, inputs, op):
    for upstream in UPSTREAM:
        value, grads, ops, counted = run(fused, inputs, upstream)
        want_value, want_grads, want_ops, want_counted = run(
            composed, inputs, upstream)
        assert ops == [op] and len(want_ops) > 1
        assert_bits_equal(value, want_value)
        for got, want in zip(grads, want_grads):
            assert_bits_equal(got, want)
        assert counted == want_counted


def rows(rng, n, d, zero=(), negative_zero=()):
    """Random rows with the given rows zeroed (+0 or -0 entries)."""
    x = rng.normal(size=(n, d))
    x[list(zero)] = 0.0
    x[list(negative_zero)] = -0.0
    return x


def test_l2_normalize_rows_equals_composed_on_constants():
    rng = np.random.default_rng(0)
    x = rows(rng, 6, 3, zero=(2,), negative_zero=(4,))
    got, counted = objectives.l2_normalize_rows(x)
    with record() as want_tape:
        want = ref.l2_normalize_rows(x).values
    assert_bits_equal(got, want)
    assert counted == want_tape.zero_norm_rows == 2


class TestNormalizedMse:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_composed(self, seed):
        rng = np.random.default_rng(seed)
        p = parameter(rng.normal(size=(8, 5)))
        z = rng.normal(size=(8, 5))
        assert_same_as_reference(lambda: composed.normalized_mse(p, z)[0],
                                 lambda: ref.byol_terms(p, z)[0], [p],
                                 "normalized_mse")

    @pytest.mark.parametrize("side", ["student", "teacher", "both"])
    def test_zero_norm_rows(self, side):
        rng = np.random.default_rng(1)
        p_zero = (1,) if side != "teacher" else ()
        z_zero = (2,) if side != "student" else ()
        p = parameter(rows(rng, 6, 4, zero=p_zero, negative_zero=(4,)
                           if side == "both" else ()))
        z = rows(rng, 6, 4, zero=z_zero, negative_zero=(5,)
                 if side == "both" else ())
        assert_same_as_reference(lambda: composed.normalized_mse(p, z)[0],
                                 lambda: ref.byol_terms(p, z)[0], [p],
                                 "normalized_mse")
        _, _, _, counted = run(lambda: composed.normalized_mse(p, z)[0], [p])
        assert counted == len(p_zero) + len(z_zero) + 2 * (side == "both")

    def test_equal_rows_give_signed_zero_gradients(self):
        # p == z: every difference is 0, and so is every gradient; the
        # signs of those zeros must match the reference too.
        rng = np.random.default_rng(2)
        values = rng.normal(size=(4, 3))
        p = parameter(values.copy())
        z = values.copy()
        assert_same_as_reference(lambda: composed.normalized_mse(p, z)[0],
                                 lambda: ref.byol_terms(p, z)[0], [p],
                                 "normalized_mse")

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_two_views_equal_two_terms_plus_add(self, n):
        # One call over the (2, n, 4) stack of both views against one call
        # per view on its own tensor, summed with add; zero rows of both
        # signs in each view.
        rng = np.random.default_rng(n)
        p_values = rows(rng, 2 * n, 4, zero=(1,), negative_zero=(n + 2,))
        z = rows(rng, 2 * n, 4, zero=(n,), negative_zero=(3,))
        for upstream in UPSTREAM:
            p = parameter(p_values.reshape(2, n, 4).copy())
            views = [parameter(p_values[:n].copy()),
                     parameter(p_values[n:].copy())]
            with record() as tape:
                loss, terms = composed.normalized_mse(p, z.reshape(2, n, 4))
                ops = [e.op for e in tape.entries]
            with record() as want_tape:
                want_terms = [composed.normalized_mse(v, z[rows])[0]
                              for v, rows in zip(views, (slice(0, n),
                                                         slice(n, None)))]
                want = composed.add(*want_terms)
                want_ops = [e.op for e in want_tape.entries]
            assert ops == ["normalized_mse"]
            assert want_ops == ["normalized_mse", "normalized_mse", "add"]
            assert tape.zero_norm_rows == want_tape.zero_norm_rows == 4
            assert_bits_equal(loss.values, want.values)
            for term, want_term in zip(terms, want_terms):
                assert_bits_equal(term, want_term.values)
            backward(loss, seed=np.full((), upstream))
            backward(want, seed=np.full((), upstream))
            assert_bits_equal(p.grad, np.stack([v.grad for v in views]))

    def test_constant_inputs_record_nothing(self):
        rng = np.random.default_rng(3)
        p = constant(rows(rng, 5, 3, zero=(0,)))
        z = rng.normal(size=(5, 3))
        value, _, ops, counted = run(lambda: composed.normalized_mse(p, z)[0], [])
        want, _, want_ops, want_counted = run(
            lambda: ref.byol_terms(p, z)[0], [])
        assert ops == want_ops == []
        assert_bits_equal(value, want)
        assert counted == want_counted == 1


def queue_of(rng, state, capacity=6, dim=4):
    if state == "full":
        return NegQueue(capacity, dim, rng=rng)
    queue = empty_queue(capacity, dim)
    if state == "partial":
        queue_update(queue, objectives.l2_normalize_rows(
            rng.normal(size=(capacity // 2, dim)))[0])
    return queue


def info_nce(q, k, queue, temperature):
    """The fused InfoNCE over ``queue``'s keys, recorded on the tape."""
    return composed.info_nce(q, k, queue.as_matrix(), temperature)


class TestInfoNce:
    @pytest.mark.parametrize("temperature", [0.07, 0.2, 1.0])
    @pytest.mark.parametrize("state", ["empty", "partial", "full"])
    def test_equals_composed(self, state, temperature):
        rng = np.random.default_rng(4)
        queue = queue_of(rng, state)
        q = parameter(rng.normal(size=(5, 4)))
        k = objectives.l2_normalize_rows(rng.normal(size=(5, 4)))[0]
        assert_same_as_reference(
            lambda: info_nce(q, k, queue, temperature),
            lambda: ref.infonce(q, k, queue, temperature), [q],
            "info_nce")

    @pytest.mark.parametrize("state", ["empty", "full"])
    def test_zero_norm_queries_and_keys(self, state):
        rng = np.random.default_rng(5)
        queue = queue_of(rng, state)
        q = parameter(rows(rng, 5, 4, zero=(0,), negative_zero=(3,)))
        k = rows(rng, 5, 4, zero=(1,))  # a zero key: no positive
        assert_same_as_reference(
            lambda: info_nce(q, k, queue, 0.2),
            lambda: ref.infonce(q, k, queue, 0.2), [q], "info_nce")
        _, _, _, counted = run(lambda: info_nce(q, k, queue, 0.2), [q])
        assert counted == 2

    def test_constant_inputs_record_nothing(self):
        rng = np.random.default_rng(6)
        queue = queue_of(rng, "full")
        q = constant(rng.normal(size=(5, 4)))
        k = objectives.l2_normalize_rows(rng.normal(size=(5, 4)))[0]
        value, _, ops, _ = run(lambda: info_nce(q, k, queue, 0.2), [])
        want, _, want_ops, _ = run(
            lambda: ref.infonce(q, k, queue, 0.2), [])
        assert ops == want_ops == []
        assert_bits_equal(value, want)


class TestCrossEntropy:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_composed(self, seed):
        rng = np.random.default_rng(seed)
        logits = parameter(3.0 * rng.normal(size=(9, 4)))
        onehot = np.eye(4)[rng.integers(0, 4, size=9)]
        assert_same_as_reference(
            lambda: composed.cross_entropy(logits, onehot),
            lambda: ref.softmax_cross_entropy(logits, onehot), [logits],
            "cross_entropy")

    def test_tied_and_zero_logits(self):
        # Zero and tied logits, -0 included, exercise the signs of zeros.
        logits = parameter([[0.0, 0.0, 0.0], [-0.0, 1.0, 1.0],
                            [2.0, -0.0, 2.0]])
        onehot = np.eye(3)[[0, 1, 2]]
        assert_same_as_reference(
            lambda: composed.cross_entropy(logits, onehot),
            lambda: ref.softmax_cross_entropy(logits, onehot), [logits],
            "cross_entropy")

    def test_constant_inputs_record_nothing(self):
        logits = constant([[1.0, 2.0], [0.5, -1.0]])
        onehot = np.eye(2)
        value, _, ops, _ = run(lambda: composed.cross_entropy(logits, onehot),
                               [])
        want, _, want_ops, _ = run(lambda: ref.softmax_cross_entropy(logits, onehot),
                                   [])
        assert ops == want_ops == []
        assert_bits_equal(value, want)


@pytest.mark.parametrize("mode", ["byol_m2t", "moco"])
def test_training_steps_equal_composed_losses(monkeypatch, mode):
    """Three train steps with the fused losses and three with the composed
    ones leave bit-identical student and teacher arrays and metrics."""

    def steps():
        cfg = small_config(mode=mode, queue_capacity=32)
        trainer = Trainer(cfg)
        records = [trainer.train_step(trainer.dataset.samples[16 * i:
                                                              16 * i + 16], i)
                   for i in range(3)]
        arrays = [t.values for _, t, _ in trainer.pair.student_params()]
        arrays += [layer.weight.values for layer in
                   trainer.pair.t_encoder.layers + trainer.pair.t_projector.layers]
        if trainer.queue is not None:
            arrays.append(trainer.queue.as_matrix())
        return [r.csv_row() for r in records], arrays

    got_rows, got = steps()
    monkeypatch.setattr(objectives, "byol_loss", ref.byol_loss)
    monkeypatch.setattr(trainer_module, "infonce_loss", ref.infonce_loss)
    want_rows, want = steps()
    assert got_rows == want_rows
    for a, b in zip(got, want):
        assert_bits_equal(a, b)


def test_probe_steps_equal_composed_ops(monkeypatch):
    """Every probe gradient (dense head and fused cross-entropy) equals the
    composed matmul + add and reference cross-entropy bit for bit."""
    rng = np.random.default_rng(7)
    features = rng.normal(size=(300, 6))
    labels = rng.integers(0, 3, size=300)

    real_step = evaluate.sgd_step

    def probe():
        seen = []

        def spy(opt, lr):
            seen.append([p.tensor.grad.copy() for p in opt.arena.params])
            real_step(opt, lr)

        monkeypatch.setattr(evaluate, "sgd_step", spy)
        acc = linear_probe(features, labels, epochs=3, lr=0.5, seed=1)
        return acc, seen

    got_acc, got = probe()

    def composed_logits(head, x):
        mean, var = evaluate.constant_batch_stats(x)
        evaluate.momentum_bn_lazy_commit(head.history, mean[None], var[None],
                                         evaluate.HISTORY_MOMENTUM)
        blocks = (head.gamma, head.beta, head.weight, head.bias)
        gamma, beta, weight, bias = params = [parameter(t.values)
                                              for t in blocks]
        with record():
            h = composed.batch_norm(x, 1, gamma, beta, evaluate.EPS,
                                    stats=(mean, var))
            logits = composed.add(composed.matmul(h, weight), bias)

        def head_backward(g):
            backward(logits, seed=g)
            for t, p in zip(blocks, params):
                t.grad += p.grad

        return logits.values, head_backward

    monkeypatch.setattr(evaluate._ProbeHead, "train_logits", composed_logits)
    monkeypatch.setattr(evaluate, "_cross_entropy", ref.cross_entropy)
    want_acc, want = probe()
    assert got_acc == want_acc
    assert len(got) == len(want) == 3
    for step_got, step_want in zip(got, want):
        for a, b in zip(step_got, step_want):
            assert_bits_equal(a, b)
