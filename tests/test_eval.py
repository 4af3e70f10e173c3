import hashlib

import numpy as np
import pytest

from m2t.data import synth_clusters
from m2t.evaluate import (ProbeDivergedError, extract_features, knn_eval,
                          linear_probe)
from m2t.model import MlpSpec

from engine_reference import spy_backwards


def identity_payload(dim=4):
    spec = MlpSpec(widths=(dim, dim), bn=(False,), relu=(False,))
    return {
        "version": 1,
        "encoder_spec": spec.to_dict(),
        "bn_initialized": [],
        "bn_eps": [],
        "arrays": {"enc0.weight": np.eye(dim), "enc0.bias": np.zeros(dim)},
    }


def bn_payload(dim=3):
    spec = MlpSpec(widths=(dim, dim), bn=(True,), relu=(False,))
    return {
        "version": 1,
        "encoder_spec": spec.to_dict(),
        "bn_initialized": [True],
        "bn_eps": [1e-5],
        "arrays": {
            "enc0.weight": np.eye(dim),
            "enc0.bias": np.zeros(dim),
            "enc0.gamma": np.full(dim, 2.0),
            "enc0.beta": np.full(dim, 1.0),
            "enc0.hist_mean": np.linspace(-1, 1, dim),
            "enc0.hist_var": np.linspace(1.0, 2.0, dim),
        },
    }


class TestExtractFeatures:
    def test_identity_encoder_returns_inputs(self):
        x = np.random.default_rng(0).normal(size=(10, 4))
        np.testing.assert_array_equal(extract_features(identity_payload(), x), x)

    def test_feature_independent_of_batch_composition(self):
        payload = bn_payload()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 3))
        full = extract_features(payload, x)
        alone = extract_features(payload, x[:1])
        assert full[0].tobytes() == alone[0].tobytes()

    def test_two_passes_bit_identical(self):
        payload = bn_payload()
        x = np.random.default_rng(2).normal(size=(16, 3))
        a = extract_features(payload, x)
        b = extract_features(payload, x)
        assert a.tobytes() == b.tobytes()

    def test_history_normalization_applied(self):
        payload = bn_payload(dim=3)
        x = np.zeros((1, 3))
        out = extract_features(payload, x)
        mean = np.linspace(-1, 1, 3)
        var = np.linspace(1.0, 2.0, 3)
        expected = 2.0 * (0.0 - mean) / np.sqrt(var + 1e-5) + 1.0
        np.testing.assert_allclose(out[0], expected, rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            extract_features(identity_payload(dim=4), np.zeros((3, 5)))

    def test_missing_array_rejected(self):
        payload = identity_payload()
        del payload["arrays"]["enc0.bias"]
        with pytest.raises(ValueError, match="missing"):
            extract_features(payload, np.zeros((2, 4)))


class TestLinearProbe:
    def test_one_hot_features_reach_perfect_accuracy(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, size=400)
        features = np.eye(4)[labels]
        acc = linear_probe(features, labels, epochs=10, lr=0.5, seed=0)
        assert acc == 1.0

    def test_random_features_stay_at_chance(self):
        rng = np.random.default_rng(4)
        n, c = 1000, 4
        labels = np.repeat(np.arange(c), n // c)
        features = rng.normal(size=(n, 16))
        acc = linear_probe(features, labels, epochs=5, lr=0.1, seed=0)
        n_test = int(round(0.2 * n))
        sigma = np.sqrt((1 / c) * (1 - 1 / c) / n_test)
        assert abs(acc - 1 / c) < 3 * sigma + 0.02

    def test_separable_raw_features(self):
        ds = synth_clusters(num_classes=4, dim=16, per_class=100, spread=0.1,
                            seed=5)
        acc = linear_probe(ds.samples, ds.labels, epochs=20, lr=0.5, seed=0)
        assert acc > 0.99

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            linear_probe(np.random.default_rng(6).normal(size=(10, 4)),
                         np.zeros(10, dtype=int), epochs=1, lr=0.1)

    def test_non_finite_features_rejected(self):
        # The probe's features come from extract_features, which rejects
        # non-finite ones for the probe and kNN alike.
        payload = identity_payload(2)
        payload["arrays"]["enc0.bias"][1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            extract_features(payload, np.ones((10, 2)))

    def test_backbone_payload_untouched(self):
        payload = bn_payload()
        x = np.random.default_rng(7).normal(size=(200, 3))
        features = extract_features(payload, x)
        labels = (x[:, 0] > 0).astype(int)
        digest_before = hashlib.sha256(
            b"".join(payload["arrays"][k].tobytes()
                     for k in sorted(payload["arrays"]))).hexdigest()
        linear_probe(features, labels, epochs=3, lr=0.2, seed=0)
        digest_after = hashlib.sha256(
            b"".join(payload["arrays"][k].tobytes()
                     for k in sorted(payload["arrays"]))).hexdigest()
        assert digest_before == digest_after

    def test_step_is_three_tape_entries(self, monkeypatch):
        # A step's backward is three op backwards, in reverse: the fused
        # cross-entropy, the dense linear layer and the head BN.
        ran, _ = spy_backwards(monkeypatch, "batch_norm", "dense",
                               "cross_entropy")
        ds = synth_clusters(num_classes=3, dim=8, per_class=200, spread=0.4,
                            seed=8)
        linear_probe(ds.samples, ds.labels, epochs=2, lr=0.5, seed=1)
        assert ran == ["cross_entropy", "dense", "batch_norm"] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_head_raises(self):
        ds = synth_clusters(num_classes=3, dim=8, per_class=60, spread=0.4,
                            seed=8)
        with pytest.raises(ProbeDivergedError, match="non-finite head"):
            linear_probe(ds.samples, ds.labels, epochs=5, lr=1e300, seed=0)

    def test_beats_constant_predictor_on_train_features(self):
        ds = synth_clusters(num_classes=3, dim=8, per_class=60, spread=0.4,
                            seed=8)
        acc = linear_probe(ds.samples, ds.labels, epochs=10, lr=0.5, seed=1)
        counts = np.bincount(ds.labels)
        assert acc >= counts.max() / counts.sum()


class TestKnn:
    def test_exact_match_wins_at_k1(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 1, 2])
        acc = knn_eval(train, labels, train[1:2], labels[1:2], k=1)
        assert acc == 1.0

    def test_train_as_test_is_perfect_at_k1(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(50, 4))
        labels = rng.integers(0, 3, size=50)
        assert knn_eval(feats, labels, feats, labels, k=1) == 1.0

    def test_duplicate_class_feature_space(self):
        feats = np.tile([[1.0, 2.0]], (10, 1))
        labels = np.zeros(10, dtype=int)
        test = np.tile([[2.0, 4.0]], (3, 1))
        assert knn_eval(feats, labels, test, np.zeros(3, dtype=int), k=5) == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        train = rng.normal(size=(100, 6))
        train_labels = rng.integers(0, 5, size=100)
        test = rng.normal(size=(40, 6))
        test_labels = rng.integers(0, 5, size=40)
        k = 7
        got = knn_eval(train, train_labels, test, test_labels, k=k)

        def cosine(u, w):
            return float(u @ w / (np.linalg.norm(u) * np.linalg.norm(w)))

        correct = 0
        for i in range(len(test)):
            sims = [(cosine(test[i], train[j]), j) for j in range(len(train))]
            sims.sort(key=lambda t: -t[0])
            votes = np.zeros(5, dtype=int)
            for _, j in sims[:k]:
                votes[train_labels[j]] += 1
            winner = int(np.argmax(votes))  # ties -> smaller class index
            correct += int(winner == test_labels[i])
        assert got == pytest.approx(correct / len(test))

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            knn_eval(np.ones((3, 2)), np.zeros(3, dtype=int),
                     np.ones((1, 2)), np.zeros(1, dtype=int), k=4)

    def test_tie_broken_by_smaller_class_index(self):
        train = np.array([[1.0, 0.0], [0.9, 0.1]])
        labels = np.array([1, 0])
        # k=2: one vote each; class 0 must win the tie.
        test = np.array([[1.0, 0.05]])
        acc = knn_eval(train, labels, test, np.array([0]), k=2)
        assert acc == 1.0
