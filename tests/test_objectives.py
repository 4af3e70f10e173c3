import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2t import engine
from m2t.engine import GradCheckReport
from m2t.config import INFONCE_LOG_LIMIT, ConfigError, TrainConfig
from m2t.model import MlpSpec, build_pair, mlp_spec

from bn_reference import worker_slices
from m2t.objectives import (
    LossValue,
    NegQueue,
    byol_loss,
    infonce_loss,
    l2_normalize_rows,
    queue_update,
    symmetrized_loss,
)


class TestByolLoss:
    def test_aligned_vectors_give_zero(self):
        p = np.array([[1.0, 2.0], [0.5, 0.5]])
        z = np.array([[2.0, 4.0], [1.0, 1.0]])
        assert byol_loss(p, z)[0].item() == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_vectors_give_four(self):
        p = np.array([[1.0, 0.0]])
        z = np.array([[-3.0, 0.0]])
        assert byol_loss(p, z)[0].item() == pytest.approx(4.0, abs=1e-12)

    def test_orthogonal_vectors_give_two(self):
        p = np.array([[1.0, 0.0]])
        z = np.array([[0.0, 5.0]])
        assert byol_loss(p, z)[0].item() == pytest.approx(2.0, abs=1e-12)

    def test_zero_norm_row_guarded_and_counted(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, _, _, zero_rows = byol_loss(p, z)
        assert np.isfinite(loss.item())
        assert zero_rows == 1

    @settings(max_examples=60)
    @given(st.lists(st.floats(-3, 3), min_size=4, max_size=4),
           st.floats(0.01, 100.0))
    def test_range_and_positive_rescaling_invariance(self, vec, c):
        p_vals = np.array(vec).reshape(2, 2) + 0.1  # keep away from zero rows
        z_vals = np.array([[1.0, -0.5], [0.3, 2.0]])
        base = byol_loss(np.array(p_vals), np.array(z_vals))[0].item()
        assert -1e-12 <= base <= 4.0 + 1e-12
        scaled = byol_loss(np.array(c * p_vals), np.array(z_vals))[0].item()
        assert scaled == pytest.approx(base, abs=1e-9)
        scaled_z = byol_loss(np.array(p_vals), np.array(c * z_vals))[0].item()
        assert scaled_z == pytest.approx(base, abs=1e-9)

    def test_gradient_only_into_student_branch(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(4, 3))
        z = rng.normal(size=(4, 3))  # stands in for teacher output
        _, backward, _, _ = byol_loss(p, z)
        # The backward gives one gradient, the prediction's: the target is
        # a constant of the loss.
        dp = backward(1.0)
        assert isinstance(dp, np.ndarray) and dp.shape == p.shape

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(5, 4))
        z = rng.normal(size=(5, 4))

        def f():
            loss, backward = byol_loss(p, z)[:2]
            return loss, lambda w: (backward(w),)

        report = engine.finite_diff_check(f, [("p", p)])
        assert GradCheckReport.passes(report.max_rel_error, report.tol), \
            report.per_block


def identity_pair(dim=3):
    rng = np.random.default_rng(42)
    spec = MlpSpec(widths=(dim, dim), bn=(False,), relu=(False,))
    pair = build_pair(spec, spec, spec, rng)
    for mlp in (pair.encoder, pair.projector, pair.predictor,
                pair.t_encoder, pair.t_projector):
        mlp.layers[0].weight.values[...] = np.eye(dim)
        mlp.layers[0].bias.values[...] = 0.0
    return pair


class TestSymmetrizedLoss:
    def test_perfect_prediction_gives_zero(self):
        pair = identity_pair()
        v = np.random.default_rng(2).normal(size=(4, 3))
        out = symmetrized_loss(pair, v, v, 1, alpha=1.0)
        assert out.loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_view_swap_swaps_terms_keeps_sum(self):
        rng = np.random.default_rng(3)
        pair = build_pair(MlpSpec((4, 6, 6), (True, True), (True, True)),
                          mlp_spec((6, 6, 4)), mlp_spec((4, 4, 4)), rng)
        v1 = rng.normal(size=(8, 4))
        v2 = rng.normal(size=(8, 4))
        a = symmetrized_loss(pair, v1, v2, 2, alpha=1.0)
        b = symmetrized_loss(pair, v2, v1, 2, alpha=1.0)
        assert a.term_student_v.item() == pytest.approx(b.term_student_v2.item(), rel=1e-12)
        assert a.term_student_v2.item() == pytest.approx(b.term_student_v.item(), rel=1e-12)
        assert a.loss.item() == pytest.approx(b.loss.item(), rel=1e-12)

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(4)
        pair = build_pair(MlpSpec((4, 6, 6), (True, True), (True, True)),
                          mlp_spec((6, 6, 4)), mlp_spec((4, 4, 4)), rng)
        out = symmetrized_loss(pair, rng.normal(size=(8, 4)),
                               rng.normal(size=(8, 4)), 2, 0.7)
        assert out.loss.item() == pytest.approx(
            out.term_student_v.item() + out.term_student_v2.item(), rel=1e-14)

    def test_matches_scripted_reference_trace(self):
        """Step-by-step numpy replay of one symmetrized evaluation."""
        rng = np.random.default_rng(5)
        pair = build_pair(MlpSpec((3, 6, 6), (True, True), (True, True)),
                          mlp_spec((6, 6, 4)), mlp_spec((4, 4, 4)), rng,
                          teacher_bn="momentum")
        # Pre-seed teacher histories so the blend is non-trivial.
        hist = pair.history
        for layer in pair.teacher_bn_layers():
            width = layer.weight.shape[1]
            hist.hist_mean[layer.channels] = np.linspace(-0.5, 0.5, width)
            hist.hist_var[layer.channels] = np.linspace(0.8, 1.2, width)
        hist.initialized = True
        v1 = rng.normal(size=(8, 3))
        v2 = rng.normal(size=(8, 3))
        alpha = 0.25
        got = symmetrized_loss(pair, v1, v2, 2, alpha)

        eps = 1e-5

        def student(mlp, x):
            for layer in mlp.layers:
                x = x @ layer.weight.values + layer.bias.values
                if layer.norm is not None:
                    out = np.empty_like(x)
                    for rows in worker_slices(8, 2):
                        sl = x[rows]
                        out[rows] = (layer.norm.gamma.values
                                    * (sl - sl.mean(0)) / np.sqrt(sl.var(0) + eps)
                                    + layer.norm.beta.values)
                    x = out
                if layer.relu:
                    x = np.maximum(x, 0.0)
            return x

        def teacher(mlp, x):
            for layer in mlp.layers:
                x = x @ layer.weight.values + layer.bias.values
                if layer.norm is not None:
                    ch = layer.channels
                    mu = alpha * x.mean(0) + (1 - alpha) * hist.hist_mean[ch]
                    sig = alpha * x.var(0) + (1 - alpha) * hist.hist_var[ch]
                    x = (layer.norm.gamma.values * (x - mu) / np.sqrt(sig + eps)
                         + layer.norm.beta.values)
                if layer.relu:
                    x = np.maximum(x, 0.0)
            return x

        def nmse(p, z):
            p = p / np.sqrt(np.sum(p * p, axis=1, keepdims=True) + 1e-24)
            z = z / np.sqrt(np.sum(z * z, axis=1, keepdims=True) + 1e-24)
            return float(np.mean(np.sum((p - z) ** 2, axis=1)))

        p_v1 = student(pair.predictor,
                       student(pair.projector, student(pair.encoder, v1)))
        p_v2 = student(pair.predictor,
                       student(pair.projector, student(pair.encoder, v2)))
        t_v1 = teacher(pair.t_projector, teacher(pair.t_encoder, v1))
        t_v2 = teacher(pair.t_projector, teacher(pair.t_encoder, v2))
        expected = nmse(p_v1, t_v2) + nmse(p_v2, t_v1)
        assert got.loss.item() == pytest.approx(expected, abs=1e-10)


def full_queue(capacity: int, dim: int) -> NegQueue:
    """A fresh bank: ``capacity`` random unit keys, as a run starts."""
    return NegQueue(capacity, dim, np.random.default_rng(0))


def fifo(queue: NegQueue) -> np.ndarray:
    """Stored keys, oldest first: the write cursor marks the oldest slot."""
    return np.roll(queue.keys, -queue.cursor, axis=0)


class TestNegQueue:
    def test_holds_only_keys_and_cursor(self):
        # The bank is full from construction on, so its capacity and width
        # are its keys' shape and it tracks no fill level.
        queue = full_queue(4, 2)
        assert sorted(vars(queue)) == ["cursor", "keys"]
        assert queue.keys.shape == (4, 2) and queue.cursor == 0
        assert [name for name in ("size", "as_matrix", "__len__", "capacity",
                                  "dim") if hasattr(queue, name)] == []

    def test_fifo_eviction_keeps_newest_in_order(self):
        queue = full_queue(4, 2)
        start = queue.keys.copy()
        keys = np.array([[float(i + 1), 0.0] for i in range(6)])
        queue_update(queue, keys[:1])
        # One key evicts the oldest of the starting keys.
        np.testing.assert_array_equal(fifo(queue),
                                      np.vstack((start[1:], keys[:1])))
        queue_update(queue, keys)
        # Keys 3..6 survive, oldest first, stored as given.
        np.testing.assert_array_equal(fifo(queue), keys[2:])
        assert queue.keys.shape == (4, 2)

    def test_order_tracked_through_wraparound(self):
        queue = full_queue(3, 2)
        for i in range(5):
            queue_update(queue, np.array([[1.0, float(i)]]))
        expected = np.array([[1.0, float(i)] for i in (2, 3, 4)])
        np.testing.assert_array_equal(fifo(queue), expected)

    def test_batch_enqueue_across_wrap_matches_row_by_row(self):
        rng = np.random.default_rng(10)
        batches = [rng.normal(size=(n, 3)) for n in (3, 4, 2)]
        batched, by_row = full_queue(5, 3), full_queue(5, 3)
        for keys in batches:
            # 3 rows stop mid-ring; the next 4 wrap past the end, and 2
            # more wrap again from a mid-ring cursor.
            queue_update(batched, keys)
            for row in keys:
                queue_update(by_row, row[None, :])
            assert batched.keys.tobytes() == by_row.keys.tobytes()
            assert batched.cursor == by_row.cursor

    def test_empty_enqueue_is_noop(self):
        queue = full_queue(4, 3)
        queue_update(queue, np.ones((1, 3)))
        keys, cursor = queue.keys.copy(), queue.cursor
        queue_update(queue, np.zeros((0, 3)))
        assert queue.keys.tobytes() == keys.tobytes()
        assert queue.cursor == cursor == 1

    @given(st.integers(1, 5), st.integers(1, 12))
    def test_stored_keys_unit_norm(self, dim, n):
        # Keys normalized once are stored bit for bit, so they stay unit,
        # and so do the starting keys they have not yet evicted.
        rng = np.random.default_rng(dim * 100 + n)
        queue = full_queue(8, dim)
        keys, _ = l2_normalize_rows(rng.normal(size=(n, dim)))
        queue_update(queue, keys)
        assert fifo(queue)[8 - min(n, 8):].tobytes() == keys[-8:].tobytes()
        norms = np.linalg.norm(queue.keys, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_fresh_queue_holds_unit_rows(self):
        queue = NegQueue(capacity=16, dim=5, rng=np.random.default_rng(12))
        norms = np.linalg.norm(queue.keys, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestInfoNce:
    def test_uniform_similarities_give_log_queue_plus_one(self):
        queue = full_queue(8, 4)
        # All negatives equal to the positive key: every similarity matches.
        key = np.tile([[1.0, 0.0, 0.0, 0.0]], (8, 1))
        queue_update(queue, key)
        q = np.array(np.tile([[1.0, 0.0, 0.0, 0.0]], (5, 1)))
        loss, _, _ = infonce_loss(q, np.array(key[:5]), queue,
                                  temperature=0.2)
        assert loss.item() == pytest.approx(math.log(1 + 8), rel=1e-12)

    def test_dominant_positive_drives_loss_to_zero(self):
        queue = full_queue(4, 2)
        queue_update(queue, np.tile([[0.0, 1.0]], (4, 1)))
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0]])
        loss, _, _ = infonce_loss(q, k, queue, temperature=0.005)
        assert loss.item() < 1e-6

    def test_hand_computed_two_negatives(self):
        queue = full_queue(2, 2)
        queue_update(queue, np.array([[0.0, 1.0], [0.0, -1.0]]))
        q = np.array([[1.0, 0.0]])
        loss, _, _ = infonce_loss(q, np.array([[1.0, 0.0]]), queue,
                                  temperature=1.0)
        assert loss.item() == pytest.approx(math.log(1 + 2 * math.exp(-1.0)),
                                            rel=1e-12)
        assert loss.item() == pytest.approx(0.5514, abs=5e-5)

    @pytest.mark.parametrize("capacity", [1, 256, 65536])
    def test_smallest_accepted_temperature_stays_finite(self, capacity):
        def accepted(t):
            try:
                TrainConfig(seed=0, epochs=1, mode="moco",
                            temperature=float(t),
                            queue_capacity=capacity).validate()
            except ConfigError:
                return False
            return True

        # The smallest accepted temperature lies within a few ulps of this.
        ts = [1.0 / (INFONCE_LOG_LIMIT - math.log1p(capacity))]
        for _ in range(8):
            ts = [np.nextafter(ts[0], 0.0), *ts, np.nextafter(ts[-1], np.inf)]
        assert not accepted(ts[0]) and accepted(ts[-1])
        t = min(t for t in ts if accepted(t))
        # A full queue of keys equal to the query: every logit is 1/t, up to
        # the rounding of the cosines.
        rng = np.random.default_rng(capacity)
        for _ in range(50):
            x = rng.normal(size=(1, 8)) * 10.0 ** rng.uniform(-3, 3)
            k_hat, _ = l2_normalize_rows(x)
            queue = full_queue(capacity, 8)
            queue_update(queue, np.tile(k_hat, (capacity, 1)))
            loss, backward, _ = infonce_loss(x, k_hat, queue, float(t))
            assert np.isfinite(loss.item())
            assert np.isfinite(backward(1.0)).all()

    def test_nonpositive_temperature_rejected(self):
        queue = full_queue(2, 2)
        with pytest.raises(ValueError, match="temperature"):
            infonce_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]),
                         queue, temperature=0.0)

    def test_empty_queue_degenerates_to_positive_only(self):
        # A bank is never empty; the op itself takes no negative rows.
        q = np.array([[1.0, 0.0]])
        loss, _, _ = engine.info_nce(q, np.array([[0.0, 1.0]]),
                                     np.zeros((0, 2)), temperature=0.5)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_strictly_decreasing_in_positive_similarity(self):
        rng = np.random.default_rng(6)
        queue = NegQueue(capacity=16, dim=3, rng=rng)
        k = np.array([[1.0, 0.0, 0.0]])
        losses = []
        for angle in (1.2, 0.8, 0.4, 0.0):
            q = np.array([[math.cos(angle), math.sin(angle), 0.0]])
            losses.append(infonce_loss(q, k, queue, temperature=0.2)[0])
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        queue = NegQueue(capacity=8, dim=3, rng=rng)
        q = rng.normal(size=(4, 3))
        k, _ = l2_normalize_rows(rng.normal(size=(4, 3)))

        def f():
            loss, backward, _ = infonce_loss(q, k, queue, temperature=0.2)
            return loss, lambda w: (backward(w),)

        report = engine.finite_diff_check(f, [("q", q)])
        assert GradCheckReport.passes(report.max_rel_error, report.tol), \
            report.per_block

    def test_fresh_random_queue_initial_loss_near_log(self):
        rng = np.random.default_rng(8)
        queue = NegQueue(capacity=256, dim=64, rng=rng)
        q = np.array(rng.normal(size=(128, 64)))
        k, _ = l2_normalize_rows(rng.normal(size=(128, 64)))
        loss = infonce_loss(q, k, queue, temperature=0.2)[0].item()
        assert loss == pytest.approx(math.log(257), rel=0.05)


def test_l2_normalize_rows_unit_norm():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 5)) * 10
    out, zero_rows = l2_normalize_rows(x)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0,
                               atol=1e-12)
    assert zero_rows == 0
