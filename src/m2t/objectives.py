"""Training objectives: symmetrized prediction loss and contrastive
InfoNCE with a negatives queue.

The prediction loss is the normalized mean squared error between the
student's prediction and the teacher's projection, mean over the batch of
``||p_hat - z_hat||^2 = 2 - 2 cos(p, z)`` per row. Teacher outputs are
always treated as gradient constants. Each loss term is one fused engine op
(:func:`m2t.engine.normalized_mse`, :func:`m2t.engine.info_nce`); the
functions here check their arguments and name the terms.

The symmetrized form pairs each view's prediction with the other view's
teacher projection and sums the two terms. The two views are the leading
axis of one (2, B, C) array: one student pass runs over it, one teacher
pass over it reversed and one two-view loss over both; each equals its
per-view calls bit for bit. The prediction loss always returns the loss
and its per-view terms. The teacher normalizes each view against the
previous iteration's history; committing that history is left to the
caller (one commit per iteration, after the pass), which is what keeps one
view's statistics out of the other view's normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .engine import Tensor
from .model import StudentTeacherPair, forward_student, forward_teacher


def l2_normalize_rows(x) -> Tensor:
    """Row-wise unit vectors of an array or constant tensor, as a constant
    (:func:`m2t.engine.unit_rows`: zero-norm rows are guarded and counted).
    A loss that back-propagates through a normalization does it inside its
    fused op."""
    x = engine.as_tensor(x)
    if x.requires_grad:
        raise ValueError("l2_normalize_rows gives gradient constants; "
                         "got a tensor that requires grad")
    return engine.constant(engine.unit_rows(x.values)[0])


def byol_loss(p: Tensor, z_teacher: Tensor) -> tuple:
    """Mean over the batch of the squared distance between unit-normalized
    prediction and target rows (:func:`m2t.engine.normalized_mse`); the
    target is detached. ``p`` is one view or a (V, B, C) stack of views;
    returns ``(loss, terms)``: the sum of the per-view means and the
    means."""
    if p.shape != z_teacher.shape:
        raise engine.DimensionError(
            f"prediction/target shapes differ: {p.shape} vs {z_teacher.shape}")
    return engine.normalized_mse(p, z_teacher.values)


@dataclass
class LossValue:
    """Total symmetrized loss plus its two directional terms."""

    loss: Tensor
    term_student_v: Tensor
    term_student_v2: Tensor


def symmetrized_loss(pair: StudentTeacherPair, v, v2, workers: int,
                     alpha: float,
                     perm_seed: Optional[int] = None) -> LossValue:
    """Two-view symmetrized prediction loss: the student's prediction of
    ``v`` against the teacher's projection of ``v2``, plus the student's
    prediction of ``v2`` against the teacher's projection of ``v``.

    One student pass over the stack ``[v, v2]``, one teacher pass over
    ``[v2, v]`` (the same stack reversed) and one two-view loss, each
    equal to its per-view calls bit for bit. The teacher blends each
    view's statistics with the history as it stood before this iteration
    and records them in its pending rows, view ``v2`` first; the caller
    must commit them exactly once afterwards.
    """
    v, v2 = np.asarray(v, dtype=np.float64), np.asarray(v2, dtype=np.float64)
    if v.shape != v2.shape:
        raise engine.DimensionError(
            f"view shapes differ: {v.shape} vs {v2.shape}")
    x = np.stack((v, v2))
    _, p = forward_student(pair, x, workers)
    z = forward_teacher(pair, x[::-1], alpha, workers, perm_seed)
    loss, (term1, term2) = byol_loss(p, z)
    return LossValue(loss=loss, term_student_v=engine.constant(term1),
                     term_student_v2=engine.constant(term2))


class NegQueue:
    """Fixed-capacity FIFO of unit-norm key vectors (the negatives bank).

    Its buffer of ``capacity`` rows is allocated at construction and
    :func:`queue_update` writes it in place, so the queue's state is that
    one array, the write cursor and the number of stored keys."""

    def __init__(self, capacity: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dim = dim
        self._cursor = 0
        if rng is None:
            self._buf = np.zeros((capacity, dim))
            self.size = 0
        else:  # a fresh run starts full of random unit vectors
            keys = rng.normal(size=(capacity, dim))
            self._buf = l2_normalize_rows(keys).values
            self.size = capacity

    def as_matrix(self) -> np.ndarray:
        """Stored keys in arbitrary order (order is irrelevant to the loss)."""
        return self._buf[:self.size]

    def __len__(self) -> int:
        return self.size


def queue_update(queue: NegQueue, new_keys: np.ndarray) -> None:
    """Enqueue unit-norm keys as given, evicting the oldest beyond
    capacity; a batch of ``capacity`` keys or more overwrites the buffer
    with its newest ``capacity``."""
    keys = np.asarray(new_keys, dtype=np.float64)
    if keys.ndim != 2 or keys.shape[1] != queue.dim:
        raise engine.DimensionError(
            f"keys of shape {keys.shape} do not fit queue dim {queue.dim}")
    if keys.shape[0] == 0:
        return
    if keys.shape[0] >= queue.capacity:
        queue._buf[...] = keys[-queue.capacity:]
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

    Queries are normalized inside :func:`m2t.engine.info_nce`, the one tape
    entry of the loss. The positive keys ``k_pos`` are unit rows
    and gradient constants, normalized once by the caller so that the queue
    can store the same rows. All similarities are cosines, so the logits are
    bounded by 1/temperature and the softmax needs no max-shifting in double
    precision.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return engine.info_nce(q, k_pos.values, queue.as_matrix(), temperature)
