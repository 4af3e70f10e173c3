"""Training objectives: symmetrized prediction loss and contrastive
InfoNCE with a negatives queue.

The prediction loss is the normalized mean squared error between the
student's prediction and the teacher's projection, mean over the batch of
``||p_hat - z_hat||^2 = 2 - 2 cos(p, z)`` per row. Teacher outputs are
always treated as gradient constants. Each loss term is one fused engine op
(:func:`m2t.engine.normalized_mse`, :func:`m2t.engine.info_nce`), which
returns its backward with its value; the functions here check their
arguments and name the terms.

The symmetrized form pairs each view's prediction with the other view's
teacher projection and sums the two terms. The two views are the leading
axis of one (2, B, C) array: one student pass runs over it, one teacher
pass over it reversed and one two-view loss over both; each equals its
per-view calls bit for bit. The loss's backward is the loss op's closure
followed by the student pass's. The teacher normalizes each view against the
previous iteration's history and the loss carries the pass's per-view
statistics; committing them is left to the caller (one commit per
iteration, after the pass), which is what keeps one view's statistics out
of the other view's normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import engine
from .model import StudentTeacherPair, forward_student, forward_teacher


def l2_normalize_rows(x) -> tuple:
    """Row-wise unit vectors of an array, as gradient constants, and the
    count of its zero rows (:func:`m2t.engine.unit_rows`: zero-norm rows
    are guarded). A loss that back-propagates through a normalization does
    it inside its fused op."""
    rows, _, zero_rows = engine.unit_rows(np.asarray(x, dtype=np.float64))
    return rows, zero_rows


def byol_loss(p: np.ndarray, z_teacher: np.ndarray) -> tuple:
    """Mean over the batch of the squared distance between unit-normalized
    prediction and target rows (:func:`m2t.engine.normalized_mse`); the
    target is a gradient constant. ``p`` is one view or a (V, B, C) stack
    of views; returns ``(loss, backward, terms, zero_rows)``: the sum of the
    per-view means, the gradient for ``p`` of a gradient of the loss, the
    means and the zero rows met."""
    if p.shape != z_teacher.shape:
        raise engine.DimensionError(
            f"prediction/target shapes differ: {p.shape} vs {z_teacher.shape}")
    return engine.normalized_mse(p, z_teacher)


@dataclass
class LossValue:
    """A step's loss: the total, its two directional terms (the second
    0.0 for a one-view loss), the zero-norm rows it met, the teacher pass's
    per-view ``(mean, var)`` statistics for
    :func:`m2t.model.commit_teacher_bn`, and ``backward(g)``, which adds
    the student's gradients of ``g`` times the loss into the student
    arena."""

    loss: np.ndarray
    term_student_v: np.ndarray
    term_student_v2: np.ndarray
    zero_norm_rows: int
    teacher_stats: tuple
    backward: Callable[[float], None]


def symmetrized_loss(pair: StudentTeacherPair, v, v2, workers: int,
                     alpha: float,
                     perm_seed: Optional[int] = None) -> LossValue:
    """Two-view symmetrized prediction loss: the student's prediction of
    ``v`` against the teacher's projection of ``v2``, plus the student's
    prediction of ``v2`` against the teacher's projection of ``v``.

    One student pass over the stack ``[v, v2]``, one teacher pass over
    ``[v2, v]`` (the same stack reversed) and one two-view loss, each
    equal to its per-view calls bit for bit. The teacher blends each
    view's statistics with the history as it stood before this iteration,
    and the loss carries them, view ``v2`` first; the caller must commit
    them exactly once afterwards.
    """
    v, v2 = np.asarray(v, dtype=np.float64), np.asarray(v2, dtype=np.float64)
    if v.shape != v2.shape:
        raise engine.DimensionError(
            f"view shapes differ: {v.shape} vs {v2.shape}")
    x = np.stack((v, v2))
    _, p, student_backward = forward_student(pair, x, workers)
    z, stats = forward_teacher(pair, x[::-1], alpha, workers, perm_seed)
    loss, loss_backward, (term1, term2), zero_rows = byol_loss(p, z)
    return LossValue(loss, term1, term2, zero_rows, stats,
                     lambda g: student_backward(loss_backward(g)))


class NegQueue:
    """Fixed-capacity FIFO of unit-norm key vectors (the negatives bank).

    ``keys``, its ``(capacity, dim)`` rows, start as random unit vectors
    and :func:`queue_update` overwrites them in place, so the bank is
    always full: its state is ``keys`` and the write ``cursor``, the slot
    of the oldest key."""

    def __init__(self, capacity: int, dim: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.keys = l2_normalize_rows(rng.normal(size=(capacity, dim)))[0]
        self.cursor = 0


def queue_update(queue: NegQueue, new_keys: np.ndarray) -> None:
    """Enqueue unit-norm keys as given, evicting the oldest; a batch of
    ``capacity`` keys or more overwrites the bank with its newest
    ``capacity``, in order from slot 0."""
    keys = np.asarray(new_keys, dtype=np.float64)
    capacity, dim = queue.keys.shape
    if keys.ndim != 2 or keys.shape[1] != dim:
        raise engine.DimensionError(
            f"keys of shape {keys.shape} do not fit queue dim {dim}")
    n = keys.shape[0]
    # Slot order is InfoNCE's summation order over the negatives, so a
    # batch this large lands from slot 0, not wherever the cursor stood.
    if n >= capacity:
        queue.keys[...] = keys[-capacity:]
        queue.cursor = 0
        return
    queue.keys[(queue.cursor + np.arange(n)) % capacity] = keys
    queue.cursor = (queue.cursor + n) % capacity


def infonce_loss(q: np.ndarray, k_pos: np.ndarray, queue: NegQueue,
                 temperature: float) -> tuple:
    """Contrastive cross-entropy over one positive and the queued negatives:
    ``(loss, backward, zero_rows)`` of :func:`m2t.engine.info_nce`, the one
    op of the loss.

    Queries are normalized inside the op. The positive keys ``k_pos`` are
    unit rows and gradient constants, normalized once by the caller so that
    the queue can store the same rows. All similarities are cosines, so the
    logits are bounded by 1/temperature and the softmax needs no
    max-shifting in double precision.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return engine.info_nce(q, k_pos, queue.keys, temperature)
