"""Training objectives: symmetrized prediction loss and contrastive
InfoNCE with a negatives queue.

The prediction loss is the normalized mean squared error between the
student's prediction and the teacher's projection, mean over the batch of
``||p_hat - z_hat||^2 = 2 - 2 cos(p, z)`` per row. Teacher outputs are
always treated as gradient constants.

The symmetrized form feeds each view through both networks with swapped
roles and sums the two terms. Both teacher passes normalize against the
previous iteration's history; committing that history is left to the
caller (one commit per iteration, after both passes), which is what keeps
one view's statistics out of the other view's normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .engine import HEALTH, Tensor
from .model import StudentTeacherPair, forward_student, forward_teacher
from .normalization import WorkerLayout

NORM_GUARD = 1e-12


def l2_normalize_rows(x: Tensor, guard: float = NORM_GUARD) -> Tensor:
    """Row-wise unit vectors; zero-norm rows are guarded and counted.

    The guard is added under the square root (as guard^2), so rows of
    ordinary magnitude are normalized exactly in double precision while
    zero rows map to zero vectors with finite gradients.
    """
    sq = engine.sum(x * x, axis=1, keepdims=True)
    zero_rows = int(np.count_nonzero(sq.values == 0.0))
    if zero_rows:
        HEALTH.zero_norm_rows += zero_rows
    return x / engine.sqrt(sq + guard * guard)


def _l2_normalize_array(x: np.ndarray, guard: float = NORM_GUARD) -> np.ndarray:
    sq = np.sum(x * x, axis=1, keepdims=True)
    zero_rows = int(np.count_nonzero(sq == 0.0))
    if zero_rows:
        HEALTH.zero_norm_rows += zero_rows
    return x / np.sqrt(sq + guard * guard)


def byol_loss(p: Tensor, z_teacher: Tensor) -> Tensor:
    """Mean over the batch of the squared distance between unit-normalized
    prediction and target rows; the target is detached."""
    if p.shape != z_teacher.shape:
        raise engine.DimensionError(
            f"prediction/target shapes differ: {p.shape} vs {z_teacher.shape}")
    p_hat = l2_normalize_rows(p)
    z_hat = engine.constant(_l2_normalize_array(z_teacher.values))
    d = p_hat - z_hat
    return engine.mean(engine.sum(d * d, axis=1))


@dataclass
class LossValue:
    """Total symmetrized loss plus its two directional terms."""

    loss: Tensor
    term_student_v: Tensor
    term_student_v2: Tensor


def symmetrized_loss(pair: StudentTeacherPair, v, v2, layout: WorkerLayout,
                     alpha: float,
                     perm_seed: Optional[int] = None) -> LossValue:
    """Two-view symmetrized prediction loss.

    Both teacher passes blend the current view's statistics with the
    history as it stood before this iteration; the pending per-view
    statistics they leave behind must be committed by the caller exactly
    once afterwards.
    """
    _, p_v = forward_student(pair, v, layout)
    t_v2 = forward_teacher(pair, v2, alpha, layout=layout, perm_seed=perm_seed)
    term1 = byol_loss(p_v, t_v2)

    _, p_v2 = forward_student(pair, v2, layout)
    t_v = forward_teacher(pair, v, alpha, layout=layout, perm_seed=perm_seed)
    term2 = byol_loss(p_v2, t_v)

    return LossValue(loss=term1 + term2, term_student_v=term1,
                     term_student_v2=term2)


class NegQueue:
    """Fixed-capacity FIFO of unit-norm key vectors (the negatives bank)."""

    def __init__(self, capacity: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dim = dim
        self._buf = np.zeros((capacity, dim))
        self._cursor = 0
        self.size = 0
        if rng is not None:
            self.fill_random(rng)

    def fill_random(self, rng: np.random.Generator) -> None:
        """Fill to capacity with random unit vectors (fresh-queue init)."""
        self._buf = _l2_normalize_array(rng.normal(size=(self.capacity, self.dim)))
        self._cursor = 0
        self.size = self.capacity

    def keys(self) -> np.ndarray:
        """Stored keys, oldest first."""
        if self.size < self.capacity:
            return self._buf[:self.size].copy()
        return np.roll(self._buf, -self._cursor, axis=0)

    def as_matrix(self) -> np.ndarray:
        """Stored keys in arbitrary order (order is irrelevant to the loss)."""
        return self._buf[:self.size]

    def __len__(self) -> int:
        return self.size


def queue_update(queue: NegQueue, new_keys: np.ndarray) -> None:
    """Enqueue keys (normalized here), evicting the oldest beyond capacity."""
    new_keys = np.asarray(new_keys, dtype=np.float64)
    if new_keys.ndim != 2 or new_keys.shape[1] != queue.dim:
        raise engine.DimensionError(
            f"keys of shape {new_keys.shape} do not fit queue dim {queue.dim}")
    if new_keys.shape[0] == 0:
        return
    keys = _l2_normalize_array(new_keys)
    if keys.shape[0] >= queue.capacity:
        queue._buf = keys[-queue.capacity:].copy()
        queue._cursor = 0
        queue.size = queue.capacity
        return
    n = keys.shape[0]
    queue._buf[(queue._cursor + np.arange(n)) % queue.capacity] = keys
    queue._cursor = (queue._cursor + n) % queue.capacity
    queue.size = min(queue.size + n, queue.capacity)


def infonce_loss(q: Tensor, k_pos: Tensor, queue: NegQueue,
                 temperature: float) -> Tensor:
    """Contrastive cross-entropy over one positive and the queued negatives.

    All similarities are cosines (inputs are unit-normalized here), so the
    logits are bounded by 1/temperature and the softmax needs no
    max-shifting in double precision.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    q_hat = l2_normalize_rows(q)
    k_hat = engine.constant(_l2_normalize_array(k_pos.values))
    l_pos = engine.sum(q_hat * k_hat, axis=1, keepdims=True)
    exp_pos = engine.exp(l_pos / temperature)
    if len(queue) > 0:
        negs = engine.constant(queue.as_matrix().T)
        l_neg = engine.matmul(q_hat, negs)
        denom = exp_pos + engine.sum(engine.exp(l_neg / temperature),
                                     axis=1, keepdims=True)
    else:
        denom = exp_pos
    return engine.mean(engine.log(denom) - l_pos / temperature)
