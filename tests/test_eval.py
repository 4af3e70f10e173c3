import hashlib
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from m2t import engine, evaluate
from m2t.config import encode
from m2t.data import synth_clusters
from m2t.evaluate import (ProbeDivergedError, extract_features, knn_eval,
                          linear_probe)
from m2t.model import MlpSpec
from m2t.objectives import l2_normalize_rows

from bn_reference import bn_then_linear, probe_op
from engine_reference import spy_backwards


def identity_payload(dim=4):
    spec = MlpSpec(widths=(dim, dim), bn=(False,), relu=(False,))
    return {
        "version": 1,
        "encoder_spec": encode(spec),
        "bn_initialized": [],
        "bn_eps": [],
        "arrays": {"enc0.weight": np.eye(dim), "enc0.bias": np.zeros(dim)},
    }


def bn_payload(dim=3):
    spec = MlpSpec(widths=(dim, dim), bn=(True,), relu=(False,))
    return {
        "version": 1,
        "encoder_spec": encode(spec),
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

    def test_memory_peak_is_one_layer(self):
        # A 32 -> 64 -> 64 encoder with BN over 30000 rows: the second
        # layer holds its input, its pre-BN buffer and its output, three
        # arrays of 30000 x 64 (14.6 MiB each). A fourth (a closure keeping
        # the first layer's buffer alive) would take the peak past 58 MiB.
        rng = np.random.default_rng(17)
        spec = MlpSpec(widths=(32, 64, 64), bn=(True, True),
                       relu=(True, True))
        arrays = {}
        for i, (fan_in, fan_out) in enumerate([(32, 64), (64, 64)]):
            arrays[f"enc{i}.weight"] = rng.normal(size=(fan_in, fan_out))
            arrays[f"enc{i}.bias"] = rng.normal(size=fan_out)
            arrays[f"enc{i}.gamma"] = rng.uniform(0.5, 2.0, size=fan_out)
            arrays[f"enc{i}.beta"] = rng.normal(size=fan_out)
            arrays[f"enc{i}.hist_mean"] = rng.normal(size=fan_out)
            arrays[f"enc{i}.hist_var"] = rng.uniform(0.5, 2.0, size=fan_out)
        payload = {"version": 1, "encoder_spec": encode(spec),
                   "bn_initialized": [True, True], "bn_eps": [1e-5, 1e-5],
                   "arrays": arrays}
        x = rng.normal(size=(30000, 32))
        tracemalloc.start()
        try:
            extract_features(payload, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 30000 * 64 * 8 + 2 ** 18


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

    def test_step_is_two_op_backwards(self, monkeypatch):
        # A step's backward is two op backwards, in reverse: the fused
        # cross-entropy and the head, BN folded into the linear layer.
        ran, _ = spy_backwards(monkeypatch, "bn_linear", "cross_entropy")
        ds = synth_clusters(num_classes=3, dim=8, per_class=200, spread=0.4,
                            seed=8)
        linear_probe(ds.samples, ds.labels, epochs=2, lr=0.5, seed=1)
        assert ran == ["cross_entropy", "bn_linear"] * 2

    def test_step_runs_one_bn_linear_and_no_statistics_pass(self,
                                                            monkeypatch):
        # The head computes the batch statistics the history commits; no
        # separate statistics pass recomputes them. Counted, not timed.
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def logged(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, logged)

        spy(engine, "bn_linear")
        spy(evaluate, "sgd_step")
        for module in list(sys.modules.values()):
            if (module.__name__.startswith("m2t")
                    and hasattr(module, "constant_batch_stats")):
                spy(module, "constant_batch_stats")
        ds = synth_clusters(num_classes=3, dim=8, per_class=200, spread=0.4,
                            seed=8)
        linear_probe(ds.samples, ds.labels, epochs=3, lr=0.5, seed=1)
        # Three one-batch epochs, then one inference pass.
        assert calls == ["bn_linear", "sgd_step"] * 3 + ["bn_linear"]

    @pytest.mark.parametrize("seed", range(4))
    def test_accuracy_equals_bn_then_linear_probe(self, monkeypatch, seed):
        # Folding BN into the linear layer changes the head's rounding, not
        # its accuracy: on features of a small BN encoder, the probe scores
        # what the BN-then-linear head of composed ops scores.
        ds = synth_clusters(num_classes=4, dim=3, per_class=150, spread=0.6,
                            seed=seed)
        features = extract_features(bn_payload(), ds.samples)
        got = linear_probe(features, ds.labels, epochs=8, lr=0.5, seed=seed)
        calls, parent_head = [], probe_op(bn_then_linear)

        def head(x, gamma, beta, weight, bias, eps, stats=None):
            calls.append(stats is None)  # training: the batch's statistics
            return parent_head(x, gamma, beta, weight, bias, eps, stats)

        monkeypatch.setattr(evaluate, "engine", SimpleNamespace(
            bn_linear=head, cross_entropy=engine.cross_entropy))
        want = linear_probe(features, ds.labels, epochs=8, lr=0.5, seed=seed)
        assert calls == [True] * 8 + [False]
        assert 0.4 < got == want < 1.0

    def test_negative_label_rejected(self):
        # Read by index, a -1 would train as the last class.
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 3, size=300)
        labels[[17, 40]] = -1
        with pytest.raises(ValueError,
                           match=r"labels\[17\] = -1 lies outside \[0, 3\)"):
            linear_probe(rng.normal(size=(300, 4)), labels, epochs=1, lr=0.1)

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


def per_row_winners(features_train, labels_train, features_test, k):
    """The kNN vote one test row at a time: a partition of each row's
    negated similarities and a vote count per row; each row's winner."""
    a = l2_normalize_rows(features_train)[0]
    b = l2_normalize_rows(features_test)[0]
    sims = b @ a.T
    labels_train = np.asarray(labels_train, dtype=np.int64)
    num_classes = int(labels_train.max()) + 1
    winners = []
    for i in range(len(b)):
        nearest = np.argpartition(-sims[i], k - 1)[:k]
        counts = np.bincount(labels_train[nearest], minlength=num_classes)
        winners.append(int(np.argmax(counts)))  # ties go to the lower class
    return np.array(winners)


def knn_per_row(features_train, labels_train, features_test, labels_test,
                k):
    """The accuracy of :func:`per_row_winners`."""
    winners = per_row_winners(features_train, labels_train, features_test, k)
    return int(np.count_nonzero(winners == labels_test)) / len(winners)


class TestKnn:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 24])
    def test_equals_per_row_vote_on_exact_ties(self, k):
        # Six training rows, each four times with labels 0-3, so every
        # test row meets exact similarity ties, and the partition decides
        # which tied points vote. k = 24 takes every training point.
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(6, 5))
        train = np.repeat(rows, 4, axis=0)
        labels = np.tile(np.arange(4), 6)
        test = np.concatenate([rows, 2.0 * rows[::-1],
                               rng.normal(size=(8, 5))])
        for test_labels in [rng.integers(0, 4, size=len(test)),
                            *(np.full(len(test), c) for c in range(4))]:
            assert (knn_eval(train, labels, test, test_labels, k=k)
                    == knn_per_row(train, labels, test, test_labels, k))
        for i in range(len(test)):
            for c in range(4):
                assert (knn_eval(train, labels, test[i:i + 1], [c], k=k)
                        == knn_per_row(train, labels, test[i:i + 1], [c], k))

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_row_blocks_equal_per_row_vote(self, monkeypatch, block):
        # 293 test rows leave a partial last block at each block size, and
        # training rows three times over give exact similarity ties.
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(40, 6))
        train = np.repeat(rows, 3, axis=0)
        labels = np.tile(np.arange(3), 40)
        test = np.concatenate([rows, -rows, rng.normal(size=(213, 6))])
        monkeypatch.setattr(evaluate, "KNN_BLOCK_ROWS", block)
        for k in (1, 2, 5, 120):
            winners = per_row_winners(train, labels, test, k)
            # Every row votes as it does alone.
            assert knn_eval(train, labels, test, winners, k=k) == 1.0
            test_labels = rng.integers(0, 3, size=len(test))
            assert (knn_eval(train, labels, test, test_labels, k=k)
                    == knn_per_row(train, labels, test, test_labels, k))

    def test_memory_peak_is_one_matrix_and_one_block(self):
        # The similarity matrix of 1000 x 4000 rows is 30.5 MiB; a second
        # array of its size (an index array of the whole matrix) would
        # take the peak past 60 MiB.
        rng = np.random.default_rng(16)
        train, test = rng.normal(size=(4000, 32)), rng.normal(size=(1000, 32))
        labels_train = rng.integers(0, 10, size=4000)
        labels_test = rng.integers(0, 10, size=1000)
        tracemalloc.start()
        try:
            knn_eval(train, labels_train, test, labels_test, k=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2 ** 20

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_negative_label_rejected(self, split):
        rng = np.random.default_rng(14)
        labels = {"train": rng.integers(0, 3, size=20),
                  "test": rng.integers(0, 3, size=5)}
        labels[split][3] = -2
        with pytest.raises(ValueError, match=rf"labels_{split}\[3\] = -2 "
                                             rf"lies outside \[0, 3\)"):
            knn_eval(rng.normal(size=(20, 4)), labels["train"],
                     rng.normal(size=(5, 4)), labels["test"], k=3)

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
