import gc
import weakref

import numpy as np
import pytest

from m2t import engine, model
from m2t.config import decode, encode
from m2t.model import (
    MlpSpec,
    StudentTeacherPair,
    build_pair,
    commit_teacher_bn,
    default_encoder_spec,
    default_predictor_spec,
    default_projector_spec,
    dump_teacher,
    ema_update,
    expected_array_shapes,
    forward_mlp,
    forward_student,
    forward_teacher,
    load_teacher,
    mlp_spec,
    teacher_norm,
)
from m2t.evaluate import extract_features
from m2t.normalization import constant_batch_stats

from bn_reference import worker_slices
from engine_reference import spy_backwards
from update_reference import ema_pairs


def tiny_pair(seed=0, in_dim=4, student_bn="plain", teacher_bn="momentum"):
    rng = np.random.default_rng(seed)
    return build_pair(
        encoder_spec=MlpSpec(widths=(in_dim, 6, 6), bn=(True, True), relu=(True, True)),
        projector_spec=mlp_spec((6, 6, 4)),
        predictor_spec=mlp_spec((4, 4, 4)),
        rng=rng, student_bn=student_bn, teacher_bn=teacher_bn,
    )


def plain_pair_no_bn(seed=0, dim=3):
    """Identity-shaped pair with BN disabled everywhere."""
    rng = np.random.default_rng(seed)
    spec = MlpSpec(widths=(dim, dim), bn=(False,), relu=(False,))
    return build_pair(spec, spec, spec, rng)


class TestSpecs:
    def test_default_shapes(self):
        enc = default_encoder_spec(32)
        assert enc.widths == (32, 64, 64)
        assert default_projector_spec().widths == (64, 64, 32)
        assert default_predictor_spec().widths == (32, 32, 32)

    def test_flag_length_validation(self):
        with pytest.raises(ValueError, match="flags"):
            MlpSpec(widths=(4, 4), bn=(True, True), relu=(True,))

    def test_spec_roundtrip(self):
        spec = mlp_spec((8, 16, 4))
        assert decode(MlpSpec, encode(spec)) == spec

    def test_pair_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(engine.DimensionError):
            build_pair(mlp_spec((4, 8)), mlp_spec((9, 4)), mlp_spec((4, 4)), rng)


class TestForwardStudent:
    def test_zero_weights_give_zero_prediction(self):
        pair = tiny_pair()
        for _, t, _ in pair.student_params():
            t.values[...] = 0.0
        v = np.random.default_rng(1).normal(size=(8, 4))
        _, p, _ = forward_student(pair, v, 2)
        np.testing.assert_array_equal(p, 0.0)

    def test_identity_network_passes_input_through(self):
        pair = plain_pair_no_bn(dim=3)
        for mlp in (pair.encoder, pair.projector):
            mlp.layers[0].weight.values[...] = np.eye(3)
            mlp.layers[0].bias.values[...] = 0.0
        v = np.random.default_rng(2).normal(size=(6, 3))
        z, _, _ = forward_student(pair, v, 1)
        np.testing.assert_array_equal(z, v)

    def test_matches_scripted_reference_forward(self):
        pair = tiny_pair(seed=3)
        rng = np.random.default_rng(0)
        v = rng.normal(size=(8, 4))
        z, p, _ = forward_student(pair, v, 2)

        def ref_mlp(mlp, x):
            for layer in mlp.layers:
                x = x @ layer.weight.values + layer.bias.values
                if layer.norm is not None:
                    out = np.empty_like(x)
                    for rows in worker_slices(8, 2):
                        sl = x[rows]
                        mu = sl.mean(axis=0)
                        sig = sl.var(axis=0)
                        out[rows] = (layer.norm.gamma.values * (sl - mu)
                                    / np.sqrt(sig + layer.norm.eps)
                                    + layer.norm.beta.values)
                    x = out
                if layer.relu:
                    x = np.maximum(x, 0.0)
            return x

        ref_z = ref_mlp(pair.projector, ref_mlp(pair.encoder, v))
        ref_p = ref_mlp(pair.predictor, ref_z)
        np.testing.assert_allclose(z, ref_z, atol=1e-12)
        np.testing.assert_allclose(p, ref_p, atol=1e-12)


class TestForwardTeacher:
    def test_fresh_copy_alpha_one_matches_student_projection(self):
        pair = tiny_pair(seed=4)
        v = np.random.default_rng(5).normal(size=(8, 4))
        z, _, _ = forward_student(pair, v, 1)
        z_t, _ = forward_teacher(pair, v, alpha=1.0, workers=1)
        np.testing.assert_array_equal(z_t, z)

    def test_alpha_zero_is_per_sample_affine(self):
        pair = tiny_pair(seed=6)
        # Give every teacher BN layer a fixed history.
        for layer in pair.teacher_bn_layers():
            width = layer.weight.shape[1]
            pair.history.hist_mean[layer.channels] = np.linspace(-1, 1, width)
            pair.history.hist_var[layer.channels] = np.linspace(0.5, 2.0,
                                                                width)
        pair.history.initialized = True
        rng = np.random.default_rng(7)
        v = rng.normal(size=(8, 4))
        base = forward_teacher(pair, v, alpha=0.0)[0].copy()

        # Perturb every other sample; row 0 must be bit-identical.
        v2 = v.copy()
        v2[1:] = rng.normal(50.0, 10.0, size=(7, 4))
        out, _ = forward_teacher(pair, v2, alpha=0.0)
        assert out[0].tobytes() == base[0].tobytes()

    def test_no_gradients_anywhere_on_teacher(self, monkeypatch):
        # The teacher pass drops the backwards of its layers: a step's
        # backward runs the student's alone, and no teacher block gets a
        # gradient.
        ran, _ = spy_backwards(monkeypatch, "dense")
        pair = tiny_pair(seed=8)
        v = np.random.default_rng(9).normal(size=(8, 4))
        _, p, backward = forward_student(pair, v, 2)
        t, _ = forward_teacher(pair, v, alpha=1.0, workers=2)
        pair.student.zero_grads()
        backward(2.0 * (p - t))
        assert ran == ["dense"] * 6
        assert pair.student.grads.any()
        assert pair.teacher.grads is None
        for t_mlp in (pair.t_encoder, pair.t_projector):
            for _, tensor, _ in t_mlp.params():
                assert tensor.grad is None

    def test_no_bn_teacher_copy_equals_student_truncation(self):
        pair = plain_pair_no_bn(seed=10, dim=5)
        v = np.random.default_rng(11).normal(size=(4, 5))
        z, _, _ = forward_student(pair, v, 1)
        z_t, _ = forward_teacher(pair, v, alpha=1.0)
        np.testing.assert_array_equal(z_t, z)

    def test_baseline_teacher_modes_also_record_pending(self, monkeypatch):
        # One statistics row per pass, holding each layer's whole-batch
        # statistics in its channel range.
        for kind in ("plain", "synced", "shuffling"):
            layer_stats = []

            def spy(h):
                layer_stats.append(constant_batch_stats(h))
                return layer_stats[-1]

            monkeypatch.setattr(model, "constant_batch_stats", spy)
            pair = tiny_pair(seed=12, teacher_bn=kind)
            v = np.random.default_rng(13).normal(size=(8, 4))
            _, (seen_mean, seen_var) = forward_teacher(
                pair, v, alpha=1.0, workers=2, perm_seed=0)
            assert seen_mean.shape == seen_var.shape == (1, 18)
            assert len(layer_stats) == len(pair.teacher_bn_layers()) == 3
            for layer, (mean, var) in zip(pair.teacher_bn_layers(),
                                          layer_stats):
                assert seen_mean[:, layer.channels].tobytes() == mean.tobytes()
                assert seen_var[:, layer.channels].tobytes() == var.tobytes()


class TestBackwardState:
    """Only the student keeps backward closures, and only until its backward
    runs them."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Weak references to every dense closure, and at each dense call the
        count of earlier closures still alive; the cycle collector is off, so
        a closure is dead exactly when nothing refers to it."""
        made, alive = [], []
        real = engine.dense

        def dense(*args):
            alive.append(sum(ref() is not None for ref in made))
            out, backward = real(*args)
            made.append(weakref.ref(backward))
            return out, backward

        monkeypatch.setattr(engine, "dense", dense)
        gc.collect()
        gc.disable()
        yield made, alive
        gc.enable()

    def test_student_backward_drops_each_closure_as_it_runs(self, spy):
        made, alive = spy
        pair = tiny_pair(seed=8)
        v = np.random.default_rng(9).normal(size=(8, 4))
        _, p, backward = forward_student(pair, v, 2)
        assert alive == [0, 1, 2, 3, 4, 5]
        assert all(ref() is not None for ref in made)
        pair.student.zero_grads()
        backward(np.ones_like(p))
        assert all(ref() is None for ref in made)

    def test_student_backward_twice_raises(self):
        pair = tiny_pair(seed=8)
        v = np.random.default_rng(9).normal(size=(8, 4))
        _, p, backward = forward_student(pair, v, 2)
        pair.student.zero_grads()
        backward(np.ones_like(p))
        grads = pair.student.grads.copy()
        with pytest.raises(RuntimeError, match="pred: .* ran already"):
            backward(np.ones_like(p))
        assert pair.student.grads.tobytes() == grads.tobytes()

    @pytest.mark.parametrize("kind", ["momentum", "shuffling"])
    def test_teacher_pass_holds_one_layer_at_a_time(self, spy, kind):
        made, alive = spy
        pair = tiny_pair(seed=8, teacher_bn=kind)
        v = np.random.default_rng(9).normal(size=(2, 8, 4))
        forward_teacher(pair, v, alpha=0.5, workers=2, perm_seed=3)
        assert alive == [0, 0, 0, 0]
        assert all(ref() is None for ref in made)

    def test_inference_pass_holds_one_layer_at_a_time(self, spy):
        made, alive = spy
        payload = dump_teacher(tiny_pair(seed=8).t_encoder)
        extract_features(payload, np.random.default_rng(9).normal(size=(8, 4)))
        assert alive == [0, 0]
        assert all(ref() is None for ref in made)

    def test_backward_over_teacher_layers_raises(self):
        pair = tiny_pair(seed=8)
        v = np.random.default_rng(9).normal(size=(8, 4))
        rows = np.empty((1, pair.history.hist_mean.size))
        h, backward = forward_mlp(pair.t_encoder, v,
                                  teacher_norm(pair.history, "momentum", 0.5,
                                               (rows, rows.copy())))
        with pytest.raises(RuntimeError, match="t_enc: .* no gradients"):
            backward(np.ones_like(h))


class TestEmaUpdate:
    def test_full_copy(self):
        pair = tiny_pair(seed=14)
        rng = np.random.default_rng(15)
        for _, t, _ in pair.encoder.params():
            t.values[...] = rng.normal(size=t.values.shape)
        ema_update(pair, 1.0)
        for t, s in ema_pairs(pair):
            np.testing.assert_array_equal(t.values, s.values)

    def test_zero_keeps_teacher(self):
        pair = tiny_pair(seed=16)
        before = [t.values.copy() for t, _ in ema_pairs(pair)]
        for _, s in ema_pairs(pair):
            s.values += 1.0
        ema_update(pair, 0.0)
        for (t, _), b in zip(ema_pairs(pair), before):
            np.testing.assert_array_equal(t.values, b)

    def test_midpoint(self):
        pair = plain_pair_no_bn(seed=17, dim=2)
        pair.t_encoder.layers[0].weight.values[...] = 0.0
        pair.encoder.layers[0].weight.values[...] = 2.0
        ema_update(pair, 0.5)
        np.testing.assert_array_equal(pair.t_encoder.layers[0].weight.values,
                                      np.ones((2, 2)))

    def test_out_of_range_rejected(self):
        pair = tiny_pair()
        with pytest.raises(ValueError, match="EMA"):
            ema_update(pair, 1.5)

    def test_rebound_teacher_block_rejected(self):
        # A rebound block would keep its own array while the EMA moved the
        # arena, so every later teacher forward would read stale weights.
        pair = tiny_pair(seed=23)
        before = pair.teacher.values.copy()
        pair.t_encoder.layers[0].weight.values = np.zeros((4, 6))
        with pytest.raises(ValueError, match="t_enc0.weight: values rebound"):
            ema_update(pair, 1.0)
        assert pair.teacher.values.tobytes() == before.tobytes()

    def test_convex_combination_bounds(self):
        pair = tiny_pair(seed=18)
        rng = np.random.default_rng(19)
        for _, s in ema_pairs(pair):
            s.values[...] = rng.normal(size=s.values.shape)
        snapshots = [(t.values.copy(), s.values.copy()) for t, s in ema_pairs(pair)]
        ema_update(pair, 0.37)
        for (t, _), (t0, s0) in zip(ema_pairs(pair), snapshots):
            lo, hi = np.minimum(t0, s0), np.maximum(t0, s0)
            assert np.all(t.values >= lo - 1e-15)
            assert np.all(t.values <= hi + 1e-15)

    def test_repeated_full_copies_track_student(self):
        pair = tiny_pair(seed=20)
        rng = np.random.default_rng(21)
        for _ in range(3):
            for _, s in ema_pairs(pair):
                s.values[...] = rng.normal(size=s.values.shape)
            ema_update(pair, 1.0)
        for t, s in ema_pairs(pair):
            np.testing.assert_array_equal(t.values, s.values)

    def test_histories_untouched(self):
        pair = tiny_pair(seed=22)
        pair.history.hist_mean[:] = 3.0
        pair.history.hist_var[:] = 2.0
        pair.history.initialized = True
        ema_update(pair, 0.5)
        assert np.all(pair.history.hist_mean == 3.0)
        assert np.all(pair.history.hist_var == 2.0)


class TestCommit:
    def test_one_commit_per_iteration_clears_pending(self):
        pair = tiny_pair(seed=23)
        v = np.random.default_rng(24).normal(size=(8, 4))
        _, stats = forward_teacher(pair, np.stack((v, v + 1.0)), alpha=0.5)
        drift = commit_teacher_bn(pair, stats, alpha=0.5)
        assert drift > 0.0
        assert all(rows.shape == (2, 18) for rows in stats)
        assert pair.history.initialized


class TestDumpTeacher:
    def test_payload_excludes_predictor_and_projector(self):
        pair = tiny_pair(seed=26)
        payload = dump_teacher(pair.t_encoder)
        assert all(name.startswith("enc") for name in payload["arrays"])

    def test_array_name_set_matches_spec(self):
        pair = tiny_pair(seed=27)
        payload = dump_teacher(pair.t_encoder)
        shapes = expected_array_shapes(pair.t_encoder.spec)
        assert set(payload["arrays"]) == set(shapes)
        for name, arr in payload["arrays"].items():
            assert arr.shape == shapes[name]

    def test_uninitialized_history_dumps_identity_stats(self):
        pair = tiny_pair(seed=28)
        payload = dump_teacher(pair.t_encoder)
        assert payload["bn_initialized"] == [False, False]
        np.testing.assert_array_equal(payload["arrays"]["enc0.hist_var"], 1.0)
        np.testing.assert_array_equal(payload["arrays"]["enc0.hist_mean"], 0.0)


def trained_teacher_pair(seed=29):
    """A pair whose teacher encoder has committed histories and non-trivial
    BN affines."""
    pair = tiny_pair(seed=seed)
    rng = np.random.default_rng(seed + 1)
    for layer in pair.t_encoder.layers:
        width = layer.weight.shape[1]
        layer.norm.gamma.values[...] = rng.uniform(0.5, 1.5, size=width)
        layer.norm.beta.values[...] = rng.normal(size=width)
    for _ in range(2):
        _, stats = forward_teacher(pair, rng.normal(size=(8, 4)), alpha=0.5)
        commit_teacher_bn(pair, stats, alpha=0.5)
    return pair


class TestLoadTeacher:
    @pytest.mark.parametrize("trained", [False, True])
    def test_dump_of_load_reproduces_payload(self, trained):
        pair = trained_teacher_pair() if trained else tiny_pair(seed=30)
        payload = dump_teacher(pair.t_encoder)
        again = dump_teacher(load_teacher(payload))
        assert again["bn_initialized"] == payload["bn_initialized"] \
            == [trained, trained]
        assert again["bn_eps"] == payload["bn_eps"]
        assert again["encoder_spec"] == payload["encoder_spec"]
        assert set(again["arrays"]) == set(payload["arrays"])
        for name, arr in payload["arrays"].items():
            assert again["arrays"][name].tobytes() == arr.tobytes()

    def test_dumped_encoder_spec_decodes_to_the_spec(self):
        encoder = trained_teacher_pair().t_encoder
        dumped = dump_teacher(encoder)["encoder_spec"]
        assert dumped == encode(encoder.spec)
        assert decode(MlpSpec, dumped, "encoder_spec") == encoder.spec

    def test_missing_array_rejected(self):
        payload = dump_teacher(tiny_pair(seed=31).t_encoder)
        del payload["arrays"]["enc1.hist_var"]
        with pytest.raises(ValueError, match="missing"):
            load_teacher(payload)

    @pytest.mark.parametrize("key, value, message", [
        ("encoder_spec", None, "encoder_spec"),
        ("encoder_spec", {"widths": [4, 6, 6], "bn": [1, 1],
                          "relu": [True, True]}, "encoder_spec"),
        ("encoder_spec", {"widths": [4, 6, 7], "bn": [True, True],
                          "relu": [True, True]}, "misshapen"),
        ("bn_eps", ["x", 1e-5], "bn_eps"),
        ("bn_eps", [1e-5], "bn_eps"),
        ("bn_initialized", 3, "bn_initialized"),
        ("bn_initialized", [1, 0], "bn_initialized"),
    ])
    def test_ill_formed_payload_rejected(self, key, value, message):
        payload = dump_teacher(tiny_pair(seed=31).t_encoder)
        payload[key] = value
        with pytest.raises(ValueError, match=message):
            load_teacher(payload)

    def test_extra_array_rejected(self):
        payload = dump_teacher(tiny_pair(seed=31).t_encoder)
        payload["arrays"]["proj0.weight"] = np.zeros((6, 6))
        with pytest.raises(ValueError, match="unexpected"):
            load_teacher(payload)

    def test_alpha_zero_momentum_encoder_equals_frozen_features(self):
        # With history weight 1 the training teacher's momentum BN uses the
        # history alone, which is exactly the evaluation path.
        pair = trained_teacher_pair()
        x = np.random.default_rng(32).normal(size=(8, 4))
        payload = dump_teacher(pair.t_encoder)

        rows = np.empty((1, pair.history.hist_mean.size))
        train_side, _ = forward_mlp(pair.t_encoder, x,
                                    teacher_norm(pair.history, "momentum", 0.0,
                                                 (rows, rows.copy())))
        assert train_side.tobytes() == extract_features(payload, x).tobytes()
