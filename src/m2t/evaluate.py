"""Frozen-feature evaluation: linear probe and cosine kNN.

Features come from the dumped teacher encoder running in inference mode:
every BN layer normalizes with its stored momentum history, which makes
the feature of a sample independent of whatever batch it arrives in. The
probe trains a BN + linear head on the frozen features; the backbone is
never touched.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Tensor, backward, record
from .model import forward_mlp, history_norm, load_teacher


def extract_features(payload: dict, samples: np.ndarray) -> np.ndarray:
    """Teacher-encoder forward in inference mode (history statistics only).

    Purely per-sample affine + ReLU composition: batch composition cannot
    influence any output row. ``ValueError`` if any feature is non-finite,
    so neither the probe nor kNN scores a broken encoder.
    """
    encoder = load_teacher(payload)
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != encoder.spec.in_dim:
        raise ValueError(
            f"samples of shape {x.shape} do not match encoder input width "
            f"{encoder.spec.in_dim}")
    features = forward_mlp(encoder, engine.constant(x), history_norm).values
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    return features


def holdout_split(n: int, rng: np.random.Generator,
                  test_fraction: float = 0.2) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) indices, holding out ``test_fraction`` of n (>= 1)."""
    perm = rng.permutation(n)
    n_test = max(1, int(round(test_fraction * n)))
    return perm[n_test:], perm[:n_test]


# ---------------------------------------------------------------------------
# linear probe


def _cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    # Shift by the detached row max; the softmax is invariant to it.
    shift = engine.constant(logits.values.max(axis=1, keepdims=True))
    shifted = logits - shift
    logsumexp = engine.log(engine.sum(engine.exp(shifted), axis=1,
                                      keepdims=True))
    true_logit = engine.sum(shifted * engine.constant(onehot), axis=1,
                            keepdims=True)
    return engine.mean(logsumexp - true_logit)


class _ProbeHead:
    """Whole-batch BN (with running inference statistics) plus one linear
    layer."""

    def __init__(self, dim: int, num_classes: int, eps: float = 1e-5,
                 running_momentum: float = 0.1):
        self.gamma = engine.parameter(np.ones(dim))
        self.beta = engine.parameter(np.zeros(dim))
        self.weight = engine.parameter(np.zeros((dim, num_classes)))
        self.bias = engine.parameter(np.zeros(num_classes))
        self.eps = eps
        self.running_momentum = running_momentum
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self._seen = False

    def params(self):
        return [self.gamma, self.beta, self.weight, self.bias]

    def train_logits(self, x: np.ndarray) -> Tensor:
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        mo = self.running_momentum
        if not self._seen:
            self.running_mean, self.running_var = mu.copy(), var.copy()
            self._seen = True
        else:
            self.running_mean = (1 - mo) * self.running_mean + mo * mu
            self.running_var = (1 - mo) * self.running_var + mo * var
        h = engine.batch_norm(x, 1, self.gamma, self.beta, self.eps,
                              stats=(mu, var))
        return engine.matmul(h, self.weight) + self.bias

    def infer_logits(self, x: np.ndarray) -> np.ndarray:
        h = engine.batch_norm(x, 1, self.gamma.values, self.beta.values,
                              self.eps,
                              stats=(self.running_mean, self.running_var))
        return h.values @ self.weight.values + self.bias.values


def linear_probe(features: np.ndarray, labels: np.ndarray, epochs: int = 80,
                 lr: float = 0.5, batch_size: int = 256,
                 test_fraction: float = 0.2, seed: int = 0,
                 features_test: np.ndarray = None,
                 labels_test: np.ndarray = None) -> float:
    """Train a BN + linear head on frozen features; top-1 on the held-out
    split.

    Without an explicit test set, a seeded fraction of the input is held
    out. Optimization is momentum SGD (0.9) without weight decay under a
    cosine learning-rate decay.
    """
    if epochs < 1:
        raise ValueError(f"probe epochs must be >= 1, got {epochs}")
    if not 0 < lr < np.inf:
        raise ValueError(f"probe lr must be positive and finite, got {lr}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("probe needs at least two classes")
    num_classes = int(labels.max()) + 1

    rng = np.random.default_rng(seed)
    if features_test is None:
        train_idx, test_idx = holdout_split(len(features), rng, test_fraction)
        features_test = features[test_idx]
        labels_test = labels[test_idx]
        features, labels = features[train_idx], labels[train_idx]
    else:
        features_test = np.asarray(features_test, dtype=np.float64)
        labels_test = np.asarray(labels_test, dtype=np.int64)

    head = _ProbeHead(features.shape[1], num_classes)
    onehot_all = np.eye(num_classes)[labels]
    momentum = 0.9
    buffers = [np.zeros_like(p.values) for p in head.params()]
    n = len(features)
    batches = max(1, n // batch_size)
    total_steps = max(1, epochs * batches)
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(n)
        for b in range(batches):
            idx = order[b * batch_size:(b + 1) * batch_size]
            if idx.size == 0:
                continue
            step_lr = lr * (np.cos(np.pi * step / total_steps) + 1.0) / 2.0
            for p in head.params():
                p.zero_grad()
            with record():
                logits = head.train_logits(features[idx])
                loss = _cross_entropy(logits, onehot_all[idx])
            backward(loss)
            for p, buf in zip(head.params(), buffers):
                g = p.grad if p.grad is not None else np.zeros_like(p.values)
                buf *= momentum
                buf += g
                p.values = p.values - step_lr * buf
            step += 1

    pred = head.infer_logits(features_test).argmax(axis=1)
    return float((pred == labels_test).mean())


# ---------------------------------------------------------------------------
# kNN


def knn_eval(features_train: np.ndarray, labels_train: np.ndarray,
             features_test: np.ndarray, labels_test: np.ndarray,
             k: int = 5) -> float:
    """Cosine-similarity k-nearest-neighbour vote; ties go to the smaller
    class index."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(features_train):
        raise ValueError(
            f"k={k} exceeds the {len(features_train)} training points")
    a = np.asarray(features_train, dtype=np.float64)
    b = np.asarray(features_test, dtype=np.float64)
    a = a / np.sqrt(np.sum(a * a, axis=1, keepdims=True) + 1e-24)
    b = b / np.sqrt(np.sum(b * b, axis=1, keepdims=True) + 1e-24)
    sims = b @ a.T
    labels_train = np.asarray(labels_train, dtype=np.int64)
    num_classes = int(labels_train.max()) + 1
    correct = 0
    for i in range(len(b)):
        nearest = np.argpartition(-sims[i], k - 1)[:k]
        counts = np.bincount(labels_train[nearest], minlength=num_classes)
        winner = int(np.argmax(counts))  # argmax resolves ties downward
        correct += int(winner == labels_test[i])
    return correct / len(b)
