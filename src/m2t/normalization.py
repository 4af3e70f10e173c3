"""Batch-normalization state and statistics over 2-D activations (batch x
channels).

Every BN layer is normalized by one fused :func:`m2t.engine.dense` op, and
how it normalizes is its :class:`m2t.engine.BNSpec`, built in
:mod:`m2t.model`: equal row groups normalized with their own statistics,
or with given ones, optionally after a row permutation. Four flavours
cover the student/teacher combinations studied here:

* plain: each simulated worker normalizes its own slice of the batch with
  that slice's statistics (one group per worker);
* synced: statistics are taken over the union of all workers' samples (one
  group), so the result matches single-worker BN on the whole batch bit for
  bit;
* shuffling: samples are permuted across workers (:func:`shuffle_permutation`)
  before per-worker BN and the permutation is undone afterwards, so a
  worker's statistics never come from its own samples in original order;
* momentum: normalization uses a convex blend of the current batch
  statistics with an exponentially averaged history
  (:func:`momentum_stats`), and the history itself is only committed once
  per iteration (lazily, :func:`momentum_bn_lazy_commit`), after both views
  of a symmetrized step have been processed.

A :class:`MomentumBNState` is one such history: a teacher's covers all its
BN layers, each using only its own channel range; the probe head has one.
It owns the statistics rows pending for its next commit, too.

The blend coefficient ``alpha`` weights the current batch:

    mu_use = alpha * mu_batch + (1 - alpha) * mu_hist

so that ``alpha = 1`` degenerates to plain BN. The lazy commit blends the
two-view average with the history the same way. Variances are blended
directly (not standard deviations).

Momentum statistics are always gradient constants: the teacher side never
back-propagates, so no gradient correction of the history is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import DimensionError, Tensor


@dataclass
class NormParams:
    """Learnable per-channel affine (gamma, beta) and the eps inside sqrt."""

    gamma: Tensor
    beta: Tensor
    eps: float = 1e-5

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.gamma.shape != self.beta.shape:
            raise DimensionError(
                f"gamma/beta shapes differ: {self.gamma.shape} vs {self.beta.shape}")


@dataclass
class MomentumBNState:
    """Momentum history of a set of BN channels, allocated once (identity
    statistics until its first commit), and the per-view statistics pending
    for its next commit: one row of ``pending_mean``/``pending_var`` over
    every channel per view of the current iteration, in the order the
    teacher saw the views, ``pending_count`` of them (0 between
    iterations). Every buffer is allocated here and written in place."""

    hist_mean: np.ndarray
    hist_var: np.ndarray
    initialized: bool = False

    def __post_init__(self):
        self.pending_count = 0
        self.pending_mean = np.empty((2, self.hist_mean.size))
        self.pending_var = np.empty((2, self.hist_mean.size))

    def record_rows(self, count: int) -> slice:
        """The next ``count`` pending rows, one per view of a pass, now
        recorded (``ValueError`` past the two a commit takes)."""
        rows = slice(self.pending_count, self.pending_count + count)
        if rows.stop > 2:
            raise ValueError(f"{rows.stop} pending view statistics; "
                             f"expected 1 or 2")
        self.pending_count = rows.stop
        return rows


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


# ---------------------------------------------------------------------------
# statistics


def constant_batch_stats(x_values: np.ndarray) -> tuple:
    """``(mean, var)``, per channel and biased, over the batch axis, the
    second-to-last: a (B, C) batch gives (C,) statistics, a (V, B, C)
    stack of views one (V, C) row per view."""
    m = x_values.shape[-2]
    if m < 1:
        raise ValueError("batch statistics of an empty batch")
    # np.add.reduce(a, axis) / m is the arithmetic of a.mean(axis), without
    # the wrapper's Python overhead.
    mu = np.add.reduce(x_values, axis=-2) / m
    dev = x_values - mu[..., None, :]
    return mu, np.add.reduce(dev * dev, axis=-2) / m


# ---------------------------------------------------------------------------
# shuffling BN


def shuffle_permutation(batch_size: int,
                        perm_seed: Optional[int]) -> np.ndarray:
    """The seeded permutation of the batch that shuffling BN applies."""
    if perm_seed is None:
        raise ValueError("shuffling BN needs a permutation seed")
    return np.random.default_rng(perm_seed).permutation(batch_size)


# ---------------------------------------------------------------------------
# momentum BN


def momentum_stats(history: MomentumBNState, channels: slice,
                   mean: np.ndarray, var: np.ndarray, alpha: float) -> tuple:
    """The ``(mean, var)`` a momentum BN layer normalizes with: the blend of
    its batch ``mean``/``var`` (per channel, or one row per view) with its
    ``channels`` of the history, which it leaves untouched."""
    _check_alpha(alpha)
    w_hist = 1.0 - alpha
    if w_hist == 0.0 or not history.initialized:
        # Pure current-batch statistics; also the fallback before the
        # history's first commit.
        return mean, var
    return ((1.0 - w_hist) * mean + w_hist * history.hist_mean[channels],
            (1.0 - w_hist) * var + w_hist * history.hist_var[channels])


def momentum_bn_lazy_commit(state: MomentumBNState, alpha: float) -> None:
    """Fold the average of the first and the last pending view's statistics
    into the history, then clear the pending rows.

    Called exactly once per iteration, after both view forwards, so neither
    view's statistics can leak into the other view's normalization within
    the same iteration. A single pending view (one-view recipes) commits as
    the average of itself with itself, which is that view's statistics.
    """
    _check_alpha(alpha)
    last = state.pending_count - 1
    if last < 0:
        raise ValueError("lazy commit with no pending view statistics")
    avg_mean = 0.5 * (state.pending_mean[0] + state.pending_mean[last])
    avg_var = 0.5 * (state.pending_var[0] + state.pending_var[last])
    if state.initialized:
        w_hist = 1.0 - alpha
        avg_mean = (1.0 - w_hist) * avg_mean + w_hist * state.hist_mean
        avg_var = (1.0 - w_hist) * avg_var + w_hist * state.hist_var
    state.hist_mean[...] = avg_mean
    state.hist_var[...] = avg_var
    state.initialized = True
    state.pending_count = 0


# ---------------------------------------------------------------------------
# communication model

# Deterministic stand-in for the wall-clock cost of cross-worker traffic:
# synced BN all-reduces one (mean, var) pair per channel per worker, while
# shuffling BN exchanges whole activation rows twice (scatter and gather).
def comm_bytes(kind: str, workers: int, batch_size: int, channels: int) -> int:
    """Modeled bytes a single forward of this BN kind would move between
    workers (zero for purely local kinds)."""
    if workers <= 1:
        return 0
    if kind == "synced":
        return 2 * channels * 8 * workers
    if kind == "shuffling":
        return 2 * batch_size * channels * 8
    if kind in ("plain", "momentum"):
        return 0
    raise ValueError(f"unknown BN kind {kind!r}")
