"""BN statistics, the momentum history and the BN kinds the model runs.

Each kind is tested through the spec a training run builds: the student's
through :func:`m2t.model.forward_student` (``student_bn``), the teacher's
through :func:`m2t.model.teacher_norm` on :func:`m2t.engine.dense`
(``layer_bn``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2t import engine
from m2t import normalization as norm
from m2t.engine import DimensionError, backward, constant, parameter, record
from m2t.model import teacher_norm
from m2t.normalization import (
    MomentumBNState,
    constant_batch_stats,
    momentum_bn_lazy_commit,
)

import engine_reference as composed
from bn_reference import (
    TapeStats,
    batch_stats,
    bn_apply,
    identity_norm_params,
    layer_bn,
    new_history,
    student_bn,
    teacher_layer,
    worker_slices,
)


def two_pass_stats(x: np.ndarray):
    """Independent reference: accumulate mean, then squared deviations."""
    m, c = x.shape
    mean = np.zeros(c)
    for j in range(c):
        acc = 0.0
        for i in range(m):
            acc += x[i, j]
        mean[j] = acc / m
    var = np.zeros(c)
    for j in range(c):
        acc = 0.0
        for i in range(m):
            acc += (x[i, j] - mean[j]) ** 2
        var[j] = acc / m
    return mean, var


class TestBatchStats:
    def test_biased_variance(self):
        s = batch_stats(constant([[1.0], [2.0], [3.0]]))
        np.testing.assert_array_equal(s.mean.values, [2.0])
        np.testing.assert_allclose(s.var.values, [2.0 / 3.0], rtol=1e-15)
        assert s.count == 3

    def test_constant_batch(self):
        s = batch_stats(constant([[5.0, 5.0], [5.0, 5.0]]))
        np.testing.assert_array_equal(s.mean.values, [5.0, 5.0])
        np.testing.assert_array_equal(s.var.values, [0.0, 0.0])

    def test_random_batch_matches_two_pass_reference(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 8))
        s = batch_stats(constant(x))
        mean, var = two_pass_stats(x)
        np.testing.assert_allclose(s.mean.values, mean, atol=1e-12)
        np.testing.assert_allclose(s.var.values, var, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_stats(constant(np.zeros((0, 3))))

    def test_constant_stats_are_arrays_equal_to_tape_stats(self):
        x = np.random.default_rng(0).normal(size=(32, 8))
        (mean, var), ref = constant_batch_stats(x), batch_stats(constant(x))
        assert type(mean) is np.ndarray and type(var) is np.ndarray
        assert mean.tobytes() == ref.mean.values.tobytes()
        assert var.tobytes() == ref.var.values.tobytes()
        assert len(x) == ref.count == 32


class TestBnApply:
    def test_self_stats_standardize(self):
        rng = np.random.default_rng(1)
        x = constant(rng.normal(3.0, 2.0, size=(64, 4)))
        p = identity_norm_params(4, eps=1e-5)
        y = bn_apply(x, batch_stats(x), p)
        np.testing.assert_allclose(y.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.values.var(axis=0), 1.0, atol=1e-4)

    def test_constant_input_maps_to_beta(self):
        x = constant(np.full((5, 2), 7.0))
        p = norm.NormParams(gamma=constant([2.0, 2.0]), beta=constant([3.0, 3.0]))
        y = bn_apply(x, batch_stats(x), p)
        np.testing.assert_allclose(y.values, 3.0)

    def test_hand_computed_example(self):
        x = constant([[0.0], [2.0]])
        p = identity_norm_params(1, eps=1e-5)
        y = bn_apply(x, batch_stats(x), p)
        expected = (np.array([[0.0], [2.0]]) - 1.0) / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(y.values, expected, rtol=1e-12)
        assert y.values[0, 0] == pytest.approx(-0.999995, abs=1e-6)

    def test_channel_mismatch(self):
        x = constant(np.zeros((4, 3)))
        with pytest.raises(DimensionError, match="channel"):
            bn_apply(x, batch_stats(x), identity_norm_params(2))

    def test_full_backward_through_stats(self):
        # Gradient flows through mean and variance of the current batch.
        rng = np.random.default_rng(2)
        x = parameter(rng.normal(size=(6, 3)))
        gamma = parameter(np.full(3, 1.3))
        beta = parameter(np.full(3, -0.2))
        p = norm.NormParams(gamma=gamma, beta=beta, eps=1e-5)

        report = engine.finite_diff_check(
            lambda: bn_apply(x, batch_stats(x), p),
            [("x", x), ("gamma", gamma), ("beta", beta)])
        assert report.passed, report.per_block

    def test_history_stats_are_gradient_constants(self):
        x = parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
        stats = TapeStats(mean=constant([1.0, 1.0]),
                          var=constant([2.0, 2.0]), count=8)
        p = identity_norm_params(2)
        with record():
            loss = composed.sum(bn_apply(x, stats, p))
        backward(loss)
        assert stats.mean.grad is None and stats.var.grad is None
        assert x.grad is not None


class TestWorkerLayout:
    """The batch splits into equal contiguous slices, one per worker."""

    def test_ranges_partition(self):
        assert worker_slices(8, 4) == [slice(0, 2), slice(2, 4),
                                       slice(4, 6), slice(6, 8)]

    def test_indivisible_batch_rejected(self):
        x = constant(np.zeros((10, 2)))
        with pytest.raises(DimensionError, match="equal groups"):
            student_bn(x, "plain", 4, identity_norm_params(2))
        with pytest.raises(DimensionError, match="equal groups"):
            layer_bn(x, "plain", 1.0, identity_norm_params(2), 4)


class TestPlainBn:
    def test_single_worker_equals_bn_apply(self):
        rng = np.random.default_rng(3)
        x = constant(rng.normal(size=(16, 4)))
        p = identity_norm_params(4)
        want = bn_apply(x, batch_stats(x), p).values.tobytes()
        assert student_bn(x, "plain", 1, p).values.tobytes() == want
        assert layer_bn(x, "plain", 1.0, p, 1).values.tobytes() \
            == want

    def test_constant_slices_normalize_to_beta(self):
        x = constant([[1.0], [1.0], [3.0], [3.0]])
        p = norm.NormParams(gamma=constant([1.0]), beta=constant([0.5]))
        np.testing.assert_allclose(student_bn(x, "plain", 2, p).values, 0.5)
        np.testing.assert_allclose(
            layer_bn(x, "plain", 1.0, p, 2).values, 0.5)

    def test_matches_slice_wise_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(32, 8))
        p = identity_norm_params(8)
        student = student_bn(constant(x), "plain", 4, p)
        teacher = layer_bn(constant(x), "plain", 1.0, p, 4)
        for rows in worker_slices(32, 4):
            piece = constant(x[rows])
            ref = bn_apply(piece, batch_stats(piece), p)
            np.testing.assert_array_equal(student.values[rows], ref.values)
            np.testing.assert_array_equal(teacher.values[rows], ref.values)

    def test_backward_through_worker_slices(self):
        rng = np.random.default_rng(5)
        x = parameter(rng.normal(size=(8, 3)))
        p = identity_norm_params(3)
        assert engine.finite_diff_check(
            lambda: student_bn(x, "plain", 2, p), [("x", x)]).passed

    def test_student_forward_is_one_tape_entry(self):
        # BN records nothing of its own: the BN layer and the plain layer
        # are one fused entry each.
        x = parameter(np.random.default_rng(6).normal(size=(32, 8)))
        p = identity_norm_params(8, requires_grad=True)
        with record() as tape:
            student_bn(x, "plain", 4, p)
        assert [e.op for e in tape.entries] == ["dense", "dense"]
        assert p.gamma in tape.entries[0].inputs


class TestBatchNormKernel:
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_gradients_match_composed_slices(self, groups):
        """The closed-form backward agrees with autodiff through the composed
        per-slice bn_apply(piece, batch_stats(piece)) path."""
        rng = np.random.default_rng(groups)
        values = rng.normal(1.0, 2.0, size=(16, 5))
        weights = rng.normal(size=(16, 5))
        gamma0 = rng.uniform(0.5, 2.0, size=5)
        beta0 = rng.uniform(-1.0, 1.0, size=5)
        per = 16 // groups

        def fused(x, p):
            y = engine.batch_norm(x, groups, p.gamma, p.beta, p.eps)
            return composed.sum(composed.mul(y, weights))

        def sliced(x, p):
            loss = 0.0
            for a in range(0, 16, per):
                piece = composed.gather_rows(x, np.arange(a, a + per))
                y = bn_apply(piece, batch_stats(piece), p)
                loss = engine.add(
                    loss, composed.sum(composed.mul(y, weights[a:a + per])))
            return loss

        def grads(loss_fn):
            x = parameter(values.copy())
            p = norm.NormParams(gamma=parameter(gamma0.copy()),
                                beta=parameter(beta0.copy()))
            with record():
                loss = loss_fn(x, p)
            backward(loss)
            return x.grad, p.gamma.grad, p.beta.grad

        for got, want in zip(grads(fused), grads(sliced)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_given_stats_are_gradient_constants(self):
        x = parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
        gamma, beta = parameter([2.0, 0.5]), parameter([0.0, 0.0])
        with record():
            loss = composed.sum(engine.batch_norm(
                x, 1, gamma, beta, 1e-5,
                stats=(np.array([1.0, 1.0]), np.array([3.0, 3.0]))))
        backward(loss)
        np.testing.assert_allclose(
            x.grad, np.tile(np.array([2.0, 0.5]) / np.sqrt(3.0 + 1e-5), (2, 1)),
            rtol=1e-15)

    def test_uneven_groups_rejected(self):
        with pytest.raises(DimensionError, match="groups"):
            engine.batch_norm(constant(np.zeros((6, 2))), 4,
                              np.ones(2), np.zeros(2), 1e-5)


class TestSyncedBn:
    def test_equals_single_worker_plain_bitwise(self):
        rng = np.random.default_rng(7)
        x = constant(rng.normal(size=(24, 5)))
        p = identity_norm_params(5)
        student = student_bn(x, "plain", 1, p).values.tobytes()
        teacher = layer_bn(x, "plain", 1.0, p, 1).values.tobytes()
        for w in (2, 3, 4):
            assert student_bn(x, "synced", w, p).values.tobytes() == student
            assert layer_bn(x, "synced", 1.0, p, w).values.tobytes() == teacher

    def test_hand_stats_over_union(self):
        x = constant([[0.0], [2.0], [4.0], [6.0]])
        p = identity_norm_params(1, eps=1e-12)
        # union mean 3, union biased variance 5
        expected = (x.values - 3.0) / np.sqrt(5.0 + 1e-12)
        for y in (student_bn(x, "synced", 2, p),
                  layer_bn(x, "synced", 1.0, p, 2)):
            np.testing.assert_allclose(y.values, expected, rtol=1e-12)

    def test_global_zero_mean(self):
        rng = np.random.default_rng(8)
        x = constant(rng.normal(2.0, 3.0, size=(20, 6)))
        y = student_bn(x, "synced", 4, identity_norm_params(6))
        np.testing.assert_allclose(y.values.mean(axis=0), 0.0, atol=1e-12)


class TestShufflingBn:
    def test_identity_permutation_equals_plain(self):
        rng = np.random.default_rng(9)
        x = constant(rng.normal(size=(12, 3)))
        p = identity_norm_params(3)
        layer = teacher_layer(p)
        history = new_history(3)
        spec = teacher_norm(history, "shuffling", 1.0, history.record_rows(1),
                            3, np.arange(12))(layer)
        got = engine.dense(x, layer.weight, layer.bias, False, spec)
        want = layer_bn(x, "plain", 1.0, p, 3)
        assert got.values.tobytes() == want.values.tobytes()

    def test_single_worker_any_permutation_equals_plain(self):
        rng = np.random.default_rng(10)
        x = constant(rng.normal(size=(8, 2)))
        p = identity_norm_params(2)
        got = layer_bn(x, "shuffling", 1.0, p, 1, 123)
        want = layer_bn(x, "plain", 1.0, p, 1)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-12)

    def test_rows_normalized_by_shuffled_group_stats(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(16, 4))
        p = identity_norm_params(4)
        seed = 77
        y = layer_bn(constant(x), "shuffling", 1.0, p, 4, seed)

        # Oracle: follow the permutation and recompute each group's stats.
        perm = np.random.default_rng(seed).permutation(16)
        position_of = np.argsort(perm)
        for i in range(16):
            group = position_of[i] // 4
            members = x[perm[worker_slices(16, 4)[group]]]
            mu, sig = members.mean(axis=0), members.var(axis=0)
            expected = (x[i] - mu) / np.sqrt(sig + p.eps)
            np.testing.assert_allclose(y.values[i], expected, rtol=1e-10, atol=1e-12)


def momentum_bn(x, state, alpha, p):
    return layer_bn(x, "momentum", alpha, p, history=state)


class TestMomentumBn:
    def _state(self, mean, var):
        return MomentumBNState(hist_mean=np.asarray(mean, dtype=float),
                               hist_var=np.asarray(var, dtype=float),
                               initialized=True)

    def test_alpha_one_is_bitwise_plain_bn(self):
        rng = np.random.default_rng(12)
        x = constant(rng.normal(size=(16, 4)))
        p = identity_norm_params(4)
        state = self._state(mean=np.zeros(4), var=np.ones(4))
        y = momentum_bn(x, state, 1.0, p)
        want = bn_apply(x, batch_stats(x), p)
        assert y.values.tobytes() == want.values.tobytes()

    def test_alpha_zero_uses_pure_history(self):
        x = constant([[3.0]])
        p = identity_norm_params(1, eps=1e-12)
        state = self._state(mean=[1.0], var=[4.0])
        y = momentum_bn(x, state, 0.0, p)
        assert y.values[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_half_blend_hand_example(self):
        x = constant([[0.0], [2.0]])
        p = identity_norm_params(1, eps=1e-12)
        state = self._state(mean=[0.0], var=[1.0])
        y = momentum_bn(x, state, 0.5, p)
        # batch mean 1, batch var 1 -> blended mean 0.5, blended var 1
        np.testing.assert_allclose(y.values, [[-0.5], [1.5]], atol=1e-9)
        np.testing.assert_array_equal(
            state.pending_mean[state.pending_count - 1], [1.0])

    def test_forward_does_not_touch_history(self):
        x = constant(np.random.default_rng(13).normal(size=(4, 2)))
        state = self._state(mean=[1.0, 1.0], var=[2.0, 2.0])
        momentum_bn(x, state, 0.3, identity_norm_params(2))
        np.testing.assert_array_equal(state.hist_mean, [1.0, 1.0])
        np.testing.assert_array_equal(state.hist_var, [2.0, 2.0])
        assert state.pending_count == 1

    def test_uninitialized_history_falls_back_to_batch(self):
        x = constant([[0.0], [2.0]])
        y = momentum_bn(x, None, 0.25, identity_norm_params(1, eps=1e-12))
        np.testing.assert_allclose(y.values, [[-1.0], [1.0]], atol=1e-9)

    def test_alpha_out_of_range(self):
        x = constant([[1.0]])
        with pytest.raises(ValueError, match="alpha"):
            momentum_bn(x, None, 1.5, identity_norm_params(1))


class TestLazyCommit:
    @staticmethod
    def _record(state, *views):
        """Record each ``(mean, var)`` view in the next pending row."""
        for mean, var in views:
            row = state.record_rows(1)
            state.pending_mean[row] = mean
            state.pending_var[row] = var

    def test_fixed_point(self):
        state = MomentumBNState(hist_mean=np.array([2.0]), hist_var=np.array([3.0]),
                                initialized=True)
        s = ([2.0], [3.0])
        self._record(state, s, s)
        momentum_bn_lazy_commit(state, 0.7)
        np.testing.assert_array_equal(state.hist_mean, [2.0])
        np.testing.assert_array_equal(state.hist_var, [3.0])
        assert state.pending_count == 0

    def test_alpha_one_takes_view_average(self):
        state = MomentumBNState(hist_mean=np.array([9.0]), hist_var=np.array([9.0]),
                                initialized=True)
        self._record(state, ([1.0], [2.0]), ([3.0], [4.0]))
        momentum_bn_lazy_commit(state, 1.0)
        np.testing.assert_array_equal(state.hist_mean, [2.0])
        np.testing.assert_array_equal(state.hist_var, [3.0])

    def test_quarter_blend(self):
        state = MomentumBNState(hist_mean=np.array([0.0]), hist_var=np.array([1.0]),
                                initialized=True)
        s = ([4.0], [1.0])
        self._record(state, s, s)
        momentum_bn_lazy_commit(state, 0.25)
        np.testing.assert_allclose(state.hist_mean, [1.0])

    def test_commit_without_pending_rejected(self):
        state = new_history(1)
        with pytest.raises(ValueError, match="pending"):
            momentum_bn_lazy_commit(state, 0.5)

    def test_single_pending_view_commits_its_stats(self):
        state = new_history(1)
        self._record(state, ([1.5], [2.5]))
        momentum_bn_lazy_commit(state, 0.3)
        np.testing.assert_array_equal(state.hist_mean, [1.5])
        np.testing.assert_array_equal(state.hist_var, [2.5])

    def test_more_than_two_pending_rejected(self):
        state = new_history(1)
        self._record(state, ([1.0], [1.0]), ([1.0], [1.0]))
        with pytest.raises(ValueError, match="expected 1 or 2"):
            self._record(state, ([1.0], [1.0]))
        assert state.pending_count == 2

    def test_first_commit_seeds_history_with_view_average(self):
        state = new_history(1)
        self._record(state, ([1.0], [2.0]), ([3.0], [6.0]))
        momentum_bn_lazy_commit(state, 0.1)
        assert state.initialized
        np.testing.assert_array_equal(state.hist_mean, [2.0])
        np.testing.assert_array_equal(state.hist_var, [4.0])

    def test_pending_buffers_exist_before_the_first_pass(self):
        state = new_history(3)
        buffers = state.pending_mean, state.pending_var
        assert state.pending_count == 0
        assert all(b.shape == (2, 3) for b in buffers)
        for _ in range(3):
            self._record(state, ([1.0] * 3, [2.0] * 3), ([3.0] * 3, [4.0] * 3))
            momentum_bn_lazy_commit(state, 0.5)
        assert state.pending_mean is buffers[0]
        assert state.pending_var is buffers[1]

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10),
                              st.floats(0, 1)), min_size=1, max_size=20))
    def test_history_variance_stays_nonnegative(self, steps):
        state = new_history(1)
        for v1, v2, alpha in steps:
            self._record(state, ([0.0], [v1]), ([0.0], [v2]))
            momentum_bn_lazy_commit(state, alpha)
            assert state.hist_var[0] >= 0.0


class TestLeakageFreedom:
    def test_view_v_normalization_independent_of_view_vprime(self):
        """Perturbing the other view arbitrarily leaves this view's teacher
        normalization bit-identical within the iteration."""
        rng = np.random.default_rng(14)
        p = identity_norm_params(3)
        v = rng.normal(size=(8, 3))

        def teacher_pass(other_view):
            state = MomentumBNState(hist_mean=np.zeros(3), hist_var=np.ones(3),
                                    initialized=True)
            momentum_bn(constant(other_view), state, 0.5, p)
            y_v = momentum_bn(constant(v), state, 0.5, p)
            momentum_bn_lazy_commit(state, 0.5)
            return y_v.values.tobytes()

        base = teacher_pass(rng.normal(size=(8, 3)))
        for _ in range(5):
            assert teacher_pass(rng.normal(10.0, 100.0, size=(8, 3))) == base


def test_comm_bytes_model():
    assert norm.comm_bytes("plain", 4, 32, 8) == 0
    assert norm.comm_bytes("momentum", 4, 32, 8) == 0
    assert norm.comm_bytes("synced", 4, 32, 8) == 2 * 8 * 8 * 4
    assert norm.comm_bytes("shuffling", 4, 32, 8) == 2 * 32 * 8 * 8
    assert norm.comm_bytes("synced", 1, 32, 8) == 0
