"""Batch-normalization variants over 2-D activations (batch x channels).

Four normalization flavours cover the student/teacher combinations studied
here, and each is one call to the fused :func:`m2t.engine.batch_norm` op
(normalize equal row groups with their own or with given statistics):

* plain: each simulated worker normalizes its own slice of the batch with
  that slice's statistics (one group per worker);
* synced: statistics are taken over the union of all workers' samples (one
  group), so the result matches single-worker BN on the whole batch bit for
  bit;
* shuffling: samples are permuted across workers before per-worker BN and
  the permutation is undone afterwards, so a worker's statistics never come
  from its own samples in original order;
* momentum: normalization uses a convex blend of the current batch
  statistics with an exponentially averaged history, and the history itself
  is only committed once per iteration (lazily), after both views of a
  symmetrized step have been processed (given statistics).

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

from . import engine
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
class WorkerLayout:
    """Contiguous equal partition of a batch across simulated workers."""

    batch_size: int
    num_workers: int = 1

    def __post_init__(self):
        if self.num_workers < 1:
            raise ValueError(f"need >= 1 worker, got {self.num_workers}")
        if self.batch_size < 1:
            raise ValueError(f"need >= 1 sample, got {self.batch_size}")
        if self.batch_size % self.num_workers != 0:
            raise ValueError(
                f"batch size {self.batch_size} not divisible by "
                f"{self.num_workers} workers")

    @property
    def per_worker(self) -> int:
        return self.batch_size // self.num_workers


@dataclass
class MomentumBNState:
    """History statistics and pending per-view stats of one momentum BN layer.

    ``pending`` holds the per-view batch statistics collected by forwards in
    the current iteration; it is filled by the (up to two) view passes and
    cleared by the commit. Outside an iteration it is empty.
    """

    hist_mean: Optional[np.ndarray] = None
    hist_var: Optional[np.ndarray] = None
    initialized: bool = False
    pending: list[BatchStats] = field(default_factory=list)
    commits: int = 0


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


# ---------------------------------------------------------------------------
# statistics


def constant_batch_stats(x_values: np.ndarray) -> BatchStats:
    """Per-channel mean and biased variance over the batch axis."""
    m = x_values.shape[0]
    if m < 1:
        raise ValueError("batch statistics of an empty batch")
    mu = x_values.mean(axis=0)
    dev = x_values - mu
    return BatchStats(mean=mu, var=np.mean(dev * dev, axis=0), count=m)


# ---------------------------------------------------------------------------
# worker-partitioned forwards


def _validate_layout(x: Tensor, layout: WorkerLayout) -> None:
    if x.shape[0] != layout.batch_size:
        raise DimensionError(
            f"layout covers {layout.batch_size} samples but batch has "
            f"{x.shape[0]}")


def plain_bn_forward(x: Tensor, layout: WorkerLayout, p: NormParams) -> Tensor:
    """Per-worker BN: each slice is normalized by its own statistics."""
    _validate_layout(x, layout)
    return engine.batch_norm(x, layout.num_workers, p.gamma, p.beta, p.eps)


def synced_bn_forward(x: Tensor, layout: WorkerLayout, p: NormParams) -> Tensor:
    """Simulated cross-worker BN: statistics over the union of all slices.

    One group over the concatenated batch is exactly single-worker BN, so
    the defining equivalence holds bit for bit.
    """
    _validate_layout(x, layout)
    return engine.batch_norm(x, 1, p.gamma, p.beta, p.eps)


def shuffling_bn_forward(x: Tensor, layout: WorkerLayout, p: NormParams,
                         perm_seed: Optional[int] = None,
                         perm: Optional[np.ndarray] = None) -> Tensor:
    """Permute samples across workers, apply per-worker BN, permute back.

    The permutation is drawn uniformly from ``perm_seed`` unless an explicit
    ``perm`` is supplied.
    """
    _validate_layout(x, layout)
    if perm is None:
        if perm_seed is None:
            raise ValueError("either perm_seed or perm must be given")
        perm = np.random.default_rng(perm_seed).permutation(layout.batch_size)
    else:
        perm = np.asarray(perm, dtype=np.intp)
        if sorted(perm.tolist()) != list(range(layout.batch_size)):
            raise ValueError("perm is not a permutation of the batch")
    inverse = np.argsort(perm, kind="stable")
    shuffled = engine.gather_rows(x, perm)
    normalized = plain_bn_forward(shuffled, layout, p)
    return engine.gather_rows(normalized, inverse)


# ---------------------------------------------------------------------------
# momentum BN


def _blend(state: MomentumBNState, s: BatchStats, alpha: float) -> BatchStats:
    w_hist = 1.0 - alpha
    if w_hist == 0.0 or not state.initialized:
        # Pure current-batch statistics; also the first-iteration fallback
        # when no history exists yet.
        return s
    mu = (1.0 - w_hist) * s.mean + w_hist * state.hist_mean
    sig = (1.0 - w_hist) * s.var + w_hist * state.hist_var
    return BatchStats(mean=mu, var=sig, count=s.count)


def momentum_bn_forward(x: Tensor, state: MomentumBNState, alpha: float,
                        p: NormParams) -> tuple[Tensor, BatchStats]:
    """Normalize with blended batch/history statistics; history untouched.

    Returns the normalized tensor together with the current-view statistics,
    which are also retained on ``state.pending`` for the lazy commit at the
    end of the iteration. All statistics involved are gradient constants.
    """
    _check_alpha(alpha)
    s = constant_batch_stats(x.values)
    use = _blend(state, s, alpha)
    y = engine.batch_norm(x, 1, p.gamma, p.beta, p.eps,
                          stats=(use.mean, use.var))
    state.pending.append(s)
    return y, s


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
    if not state.initialized:
        state.hist_mean = avg_mean.copy()
        state.hist_var = avg_var.copy()
        state.initialized = True
    else:
        w_hist = 1.0 - alpha
        state.hist_mean = (1.0 - w_hist) * avg_mean + w_hist * state.hist_mean
        state.hist_var = (1.0 - w_hist) * avg_var + w_hist * state.hist_var
    state.pending.clear()
    state.commits += 1


# ---------------------------------------------------------------------------
# communication model

# Deterministic stand-in for the wall-clock cost of cross-worker traffic:
# synced BN all-reduces one (mean, var) pair per channel per worker, while
# shuffling BN exchanges whole activation rows twice (scatter and gather).
def comm_bytes(kind: str, layout: WorkerLayout, channels: int) -> int:
    """Modeled bytes a single forward of this BN kind would move between
    workers (zero for purely local kinds)."""
    if layout.num_workers <= 1:
        return 0
    if kind == "synced":
        return 2 * channels * 8 * layout.num_workers
    if kind == "shuffling":
        return 2 * layout.batch_size * channels * 8
    if kind in ("plain", "momentum"):
        return 0
    raise ValueError(f"unknown BN kind {kind!r}")
