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

The blend coefficient ``alpha`` weights the current batch:

    mu_use = alpha * mu_batch + (1 - alpha) * mu_hist

so that ``alpha = 1`` degenerates to plain BN. The lazy commit blends the
two-view average with the history the same way. Variances are blended
directly (not standard deviations).

Momentum statistics are always gradient constants: the teacher side never
back-propagates, so no gradient correction of the history is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .engine import DimensionError, Tensor


@dataclass
class BatchStats:
    """Per-channel mean and biased variance of one mini-batch (gradient
    constants: the teacher never back-propagates)."""

    mean: np.ndarray
    var: np.ndarray
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"batch stats need count >= 1, got {self.count}")
        if self.mean.shape != self.var.shape:
            raise DimensionError(
                f"mean/var shapes differ: {self.mean.shape} vs {self.var.shape}")


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
    for its next commit: one :class:`BatchStats` over every channel per
    view of the current iteration, in the order the teacher saw the views
    (a pass over stacked views appends one per view), empty outside one.
    The commit writes the history in place, so views of it stay bound."""

    hist_mean: np.ndarray
    hist_var: np.ndarray
    initialized: bool = False
    pending: list[BatchStats] = field(default_factory=list)


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


# ---------------------------------------------------------------------------
# statistics


def constant_batch_stats(x_values: np.ndarray) -> BatchStats:
    """Per-channel mean and biased variance over the batch axis, the
    second-to-last: a (B, C) batch gives (C,) statistics, a (V, B, C)
    stack of views one (V, C) row per view."""
    m = x_values.shape[-2]
    if m < 1:
        raise ValueError("batch statistics of an empty batch")
    # np.add.reduce(a, axis) / m is the arithmetic of a.mean(axis), without
    # the wrapper's Python overhead.
    mu = np.add.reduce(x_values, axis=-2) / m
    dev = x_values - mu[..., None, :]
    return BatchStats(mean=mu, var=np.add.reduce(dev * dev, axis=-2) / m,
                      count=m)


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


def momentum_stats(history: MomentumBNState, channels: slice, s: BatchStats,
                   alpha: float) -> tuple:
    """The ``(mean, var)`` a momentum BN layer normalizes with: the blend of
    its batch statistics ``s`` (per channel, or one row per view) with its
    ``channels`` of the history, which it leaves untouched."""
    _check_alpha(alpha)
    w_hist = 1.0 - alpha
    if w_hist == 0.0 or not history.initialized:
        # Pure current-batch statistics; also the fallback before the
        # history's first commit.
        return s.mean, s.var
    return ((1.0 - w_hist) * s.mean + w_hist * history.hist_mean[channels],
            (1.0 - w_hist) * s.var + w_hist * history.hist_var[channels])


def momentum_bn_lazy_commit(state: MomentumBNState, alpha: float) -> None:
    """Fold the average of the pending views' statistics into the history.

    Called exactly once per iteration, after both view forwards, so neither
    view's statistics can leak into the other view's normalization within
    the same iteration. A single pending view (one-view recipes) commits as
    the average of itself with itself, which is that view's statistics.
    """
    _check_alpha(alpha)
    if not state.pending:
        raise ValueError("lazy commit with no pending view statistics")
    if len(state.pending) > 2:
        raise ValueError(
            f"{len(state.pending)} pending view statistics; expected 1 or 2")
    s_v, s_v2 = state.pending[0], state.pending[-1]
    if s_v.count != s_v2.count:
        raise ValueError(
            f"view statistics counts differ: {s_v.count} vs {s_v2.count}")
    avg_mean = 0.5 * (s_v.mean + s_v2.mean)
    avg_var = 0.5 * (s_v.var + s_v2.var)
    if state.initialized:
        w_hist = 1.0 - alpha
        avg_mean = (1.0 - w_hist) * avg_mean + w_hist * state.hist_mean
        avg_var = (1.0 - w_hist) * avg_var + w_hist * state.hist_var
    state.hist_mean[...] = avg_mean
    state.hist_var[...] = avg_var
    state.initialized = True
    state.pending.clear()


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
