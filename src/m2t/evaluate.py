"""Frozen-feature evaluation: linear probe and cosine kNN.

Features come from the dumped teacher encoder running in inference mode:
every BN layer normalizes with its stored momentum history, which makes
the feature of a sample independent of whatever batch it arrives in. The
probe trains a BN + linear head on the frozen features with the trainer's
primitives (momentum-SGD step, cosine schedule, momentum-statistics
history); the backbone is never touched.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Tensor, backward, record
from .model import Arena, Param, forward_mlp, history_norm, load_teacher
from .normalization import (MomentumBNState, constant_batch_stats,
                            momentum_bn_lazy_commit)
from .objectives import l2_normalize_rows
from .schedules import cosine_value
from .trainer import OptimizerState, sgd_step

# Probe protocol constants.
BATCH_SIZE = 256
TEST_FRACTION = 0.2
EPS = 1e-5
HISTORY_MOMENTUM = 0.1  # weight of each training batch in the history


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


def holdout_split(n: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) indices, holding out ``TEST_FRACTION`` of n (>= 1)."""
    perm = rng.permutation(n)
    n_test = max(1, int(round(TEST_FRACTION * n)))
    return perm[n_test:], perm[:n_test]


# ---------------------------------------------------------------------------
# linear probe


def _cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    return engine.cross_entropy(logits, onehot)


class ProbeDivergedError(RuntimeError):
    """The linear probe's head left the finite range (for instance at a
    learning rate far too large), so it has no accuracy to report."""


class _ProbeHead:
    """Whole-batch BN plus one linear layer. Inference normalizes with a
    momentum-statistics history of the training batches, committed once per
    step (the first commit initializes it)."""

    def __init__(self, dim: int, num_classes: int):
        self.arena = Arena([
            Param(name, engine.parameter(values)) for name, values
            in (("gamma", np.ones(dim)), ("beta", np.zeros(dim)),
                ("weight", np.zeros((dim, num_classes))),
                ("bias", np.zeros(num_classes)))])
        self.gamma, self.beta, self.weight, self.bias = (
            p.tensor for p in self.arena.params)
        self.history = MomentumBNState()

    def train_logits(self, x: np.ndarray) -> Tensor:
        s = constant_batch_stats(x)
        self.history.pending.append(s)
        momentum_bn_lazy_commit(self.history, HISTORY_MOMENTUM)
        h = engine.batch_norm(x, 1, self.gamma, self.beta, EPS,
                              stats=(s.mean, s.var))
        return engine.dense(h, self.weight, self.bias, relu=False)

    def infer_logits(self, x: np.ndarray) -> np.ndarray:
        h = engine.batch_norm(x, 1, self.gamma.values, self.beta.values, EPS,
                              stats=(self.history.hist_mean,
                                     self.history.hist_var))
        return h.values @ self.weight.values + self.bias.values


def linear_probe(features: np.ndarray, labels: np.ndarray, epochs: int = 80,
                 lr: float = 0.5, seed: int = 0) -> float:
    """Train a BN + linear head on frozen features; top-1 on a seeded
    held-out ``TEST_FRACTION`` of them.

    Training is the trainer's momentum-SGD step (0.9, no weight decay) over
    batches of ``BATCH_SIZE`` under a cosine learning-rate decay.
    :class:`ProbeDivergedError` if a head array ends non-finite.
    """
    if epochs < 1:
        raise ValueError(f"probe epochs must be >= 1, got {epochs}")
    if not 0 < lr < np.inf:
        raise ValueError(f"probe lr must be positive and finite, got {lr}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.unique(labels).size < 2:
        raise ValueError("probe needs at least two classes")
    num_classes = int(labels.max()) + 1

    rng = np.random.default_rng(seed)
    train_idx, test_idx = holdout_split(len(features), rng)
    onehot = np.eye(num_classes)
    head = _ProbeHead(features.shape[1], num_classes)
    opt = OptimizerState(momentum=0.9, weight_decay=0.0)
    n = len(train_idx)
    batches = max(1, n // BATCH_SIZE)
    total_steps = epochs * batches
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for b in range(batches):
            # Rows gathered per step, so no copy of the training split.
            rows = train_idx[order[b * BATCH_SIZE:(b + 1) * BATCH_SIZE]]
            head.arena.zero_grads()
            with record():
                loss = _cross_entropy(head.train_logits(features[rows]),
                                      onehot[labels[rows]])
            backward(loss)
            sgd_step(head.arena, opt, cosine_value(lr, step, total_steps))
            step += 1
    if not np.isfinite(head.arena.gather()).all():
        bad = next(p.name for p in head.arena.params
                   if not np.isfinite(p.tensor.values).all())
        raise ProbeDivergedError(
            f"linear probe diverged: non-finite head {bad} after {step} "
            f"steps at lr {lr}")

    pred = head.infer_logits(features[test_idx]).argmax(axis=1)
    return float((pred == labels[test_idx]).mean())


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
    a = l2_normalize_rows(features_train).values
    b = l2_normalize_rows(features_test).values
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
