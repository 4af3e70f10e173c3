"""Frozen-feature evaluation: linear probe and cosine kNN.

Features come from the dumped teacher encoder running in inference mode:
every BN layer normalizes with its stored momentum history, which makes
the feature of a sample independent of whatever batch it arrives in. The
probe trains a BN + linear head on the frozen features with the trainer's
primitives (momentum-SGD step, cosine schedule, momentum-statistics
history); the backbone is never touched. Both reject a negative label.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .config import TrainConfig
from .engine import Tensor
from .model import Arena, Param, forward_mlp, history_norm, load_teacher
from .normalization import MomentumBNState, momentum_bn_lazy_commit
from .objectives import l2_normalize_rows
from .schedules import cosine_value
from .trainer import OptimizerState, sgd_step

# Probe protocol constants.
BATCH_SIZE = 256
TEST_FRACTION = 0.2
EPS = 1e-5
HISTORY_MOMENTUM = 0.1  # weight of each training batch in the history
# Test rows per kNN argpartition: kNN holds the similarity matrix and the
# index array of one block, not a second matrix-sized array.
KNN_BLOCK_ROWS = 128


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
    features, _ = forward_mlp(encoder, x, history_norm(encoder.history))
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    return features


def _class_count(**label_sets: np.ndarray) -> int:
    """1 + the largest label; ``ValueError`` naming the first negative one."""
    count = 1 + max(int(labels.max()) for labels in label_sets.values())
    for name, labels in label_sets.items():
        if labels.min() < 0:
            i = int(np.argmax(labels < 0))
            raise ValueError(
                f"{name}[{i}] = {labels[i]} lies outside [0, {count})")
    return count


def holdout_split(n: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) indices, holding out ``TEST_FRACTION`` of n (>= 1)."""
    perm = rng.permutation(n)
    n_test = max(1, int(round(TEST_FRACTION * n)))
    return perm[n_test:], perm[:n_test]


# ---------------------------------------------------------------------------
# linear probe


class ProbeDivergedError(RuntimeError):
    """The linear probe's head left the finite range (for instance at a
    learning rate far too large), so it has no accuracy to report."""


def linear_probe(features: np.ndarray, labels: np.ndarray,
                 epochs: int = TrainConfig.probe_epochs,
                 lr: float = TrainConfig.probe_lr, seed: int = 0) -> float:
    """Train a whole-batch BN plus linear head on frozen features; top-1 on
    a seeded held-out ``TEST_FRACTION`` of them.

    Each step commits its BN's batch statistics at once, as one view's row,
    to the momentum-statistics history that inference normalizes with.
    Training is the trainer's momentum-SGD step (0.9, no weight decay) over
    batches of ``BATCH_SIZE`` under a cosine learning-rate decay.
    ``ValueError`` for a negative label; :class:`ProbeDivergedError` if a
    head array ends non-finite.
    """
    if epochs < 1:
        raise ValueError(f"probe epochs must be >= 1, got {epochs}")
    if not 0 < lr < np.inf:
        raise ValueError(f"probe lr must be positive and finite, got {lr}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.unique(labels).size < 2:
        raise ValueError("probe needs at least two classes")
    num_classes = _class_count(labels=labels)

    rng = np.random.default_rng(seed)
    train_idx, test_idx = holdout_split(len(features), rng)
    dim = features.shape[1]
    head = Arena([Param(name, Tensor(values)) for name, values
                  in (("gamma", np.ones(dim)), ("beta", np.zeros(dim)),
                      ("weight", np.zeros((dim, num_classes))),
                      ("bias", np.zeros(num_classes)))])
    gamma, beta, weight, bias = blocks = [p.tensor for p in head.params]
    history = MomentumBNState(np.zeros(dim), np.ones(dim))
    opt = OptimizerState(head, momentum=0.9, weight_decay=0.0)
    n = len(train_idx)
    batches = max(1, n // BATCH_SIZE)
    total_steps = epochs * batches
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for b in range(batches):
            # Rows gathered per step, so no copy of the training split.
            rows = train_idx[order[b * BATCH_SIZE:(b + 1) * BATCH_SIZE]]
            head.zero_grads()
            h, bn_backward, (mean, var) = engine.batch_norm(
                features.take(rows, axis=0), 1, gamma.values, beta.values,
                EPS)
            momentum_bn_lazy_commit(history, mean, var, HISTORY_MOMENTUM)
            logits, dense_backward = engine.dense(
                h, weight.values, bias.values, relu=False)
            _, loss_backward = engine.cross_entropy(logits, labels[rows])
            dh, dweight, dbias = dense_backward(loss_backward(1.0))
            _, dgamma, dbeta = bn_backward(dh, need_dx=False)
            for t, grad in zip(blocks, (dgamma, dbeta, dweight, dbias)):
                t.grad += grad
            sgd_step(opt, cosine_value(lr, step, total_steps))
            step += 1
    if not np.isfinite(head.values).all():
        bad = next(p.name for p in head.params
                   if not np.isfinite(p.tensor.values).all())
        raise ProbeDivergedError(
            f"linear probe diverged: non-finite head {bad} after {step} "
            f"steps at lr {lr}")

    h, _, _ = engine.batch_norm(features[test_idx], 1, gamma.values,
                                beta.values, EPS,
                                (history.hist_mean, history.hist_var))
    pred = (h @ weight.values + bias.values).argmax(axis=1)
    return float((pred == labels[test_idx]).mean())


# ---------------------------------------------------------------------------
# kNN


def knn_eval(features_train: np.ndarray, labels_train: np.ndarray,
             features_test: np.ndarray, labels_test: np.ndarray,
             k: int = 5) -> float:
    """Cosine-similarity k-nearest-neighbour vote; ties go to the smaller
    class index. ``ValueError`` for a negative label of either split. The
    negated similarities are one product (``(-b) @ a.T``, which is ``-(b @
    a.T)`` up to the sign of zero); an ``argpartition`` of each block of
    ``KNN_BLOCK_ROWS`` of its rows finds their k nearest (a row's partition
    depends on that row alone), and one scatter-add counts every vote."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(features_train):
        raise ValueError(
            f"k={k} exceeds the {len(features_train)} training points")
    labels_train = np.asarray(labels_train, dtype=np.int64)
    labels_test = np.asarray(labels_test, dtype=np.int64)
    num_classes = _class_count(labels_train=labels_train,
                               labels_test=labels_test)
    a = l2_normalize_rows(features_train)[0]
    b = l2_normalize_rows(features_test)[0]
    sims = (-b) @ a.T
    nearest = np.empty((len(b), k), dtype=np.intp)
    for i in range(0, len(b), KNN_BLOCK_ROWS):
        nearest[i:i + KNN_BLOCK_ROWS] = np.argpartition(
            sims[i:i + KNN_BLOCK_ROWS], k - 1, axis=1)[:, :k]
    votes = np.zeros((len(b), num_classes), dtype=np.int64)
    np.add.at(votes, (np.arange(len(b))[:, None], labels_train[nearest]), 1)
    winner = votes.argmax(axis=1)  # argmax resolves ties downward
    return int(np.count_nonzero(winner == labels_test)) / len(b)
