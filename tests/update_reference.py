"""Per-block parameter and statistics updates and the per-view loss: the
oracle for the arena updates of :mod:`m2t.trainer` and :mod:`m2t.model`
and for the stacked passes of :mod:`m2t.objectives`.

``sgd_step``, ``ema_update`` and ``commit_teacher_bn`` are the loops over
parameter blocks and BN layers that the whole-vector updates replace. Each
block or layer gets its own numpy calls, and each result is a new array
bound to its tensor, or (for a BN layer, which commits a state of its
own) copied into its channel range of the teacher's history.
``symmetrized_loss`` runs one student and one teacher pass per view and
sums the two losses with :func:`m2t.engine.add`. The arena updates and
the stacked passes must reproduce them to the bit, signed zeros included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from m2t import engine
from m2t.model import (Param, StudentTeacherPair, forward_student,
                       forward_teacher)
from m2t.normalization import MomentumBNState, momentum_bn_lazy_commit
from m2t.objectives import LossValue, byol_loss


@dataclass
class OptimizerState:
    kind: str = "sgd"
    momentum: float = 0.9
    weight_decay: float = 1e-4
    trust_coeff: float = 0.001
    wd_exclude: bool = False
    buffers: dict = field(default_factory=dict)  # by parameter name


def sgd_step(params: list[Param], grads: list[np.ndarray],
             state: OptimizerState, lr: float) -> None:
    """Momentum SGD: buf <- momentum * buf + d; w <- w - lr * buf, with
    d = g + wd * w.

    Weight decay skips excluded parameters (biases, BN affines) when the
    state says so, and always under LARS. LARS (``kind == "lars"``) is the
    same step with the ``d`` of each non-excluded block scaled by
    trust * ||w|| / (||d|| + 1e-9).
    """
    lars = state.kind == "lars"
    for p, g in zip(params, grads):
        w = p.tensor.values
        if g.shape != w.shape:
            raise engine.DimensionError(
                f"{p.name}: gradient shape {g.shape} != parameter shape "
                f"{w.shape}")
        wd = 0.0 if p.exclude and (lars or state.wd_exclude) \
            else state.weight_decay
        d = g + wd * w
        if lars and not p.exclude:
            d = (state.trust_coeff * float(np.linalg.norm(w))
                 / (float(np.linalg.norm(d)) + 1e-9)) * d
        buf = state.buffers.get(p.name)
        if buf is None:
            buf = state.buffers[p.name] = np.zeros_like(w)
        buf *= state.momentum
        buf += d
        p.tensor.values = w - lr * buf


def ema_update(pair: StudentTeacherPair, m: float) -> None:
    """teacher <- (1 - m) * teacher + m * student for every mirrored weight,
    including BN gamma/beta. Momentum BN histories are never touched here."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"EMA coefficient must lie in [0, 1], got {m}")
    for t, s in pair.ema_pairs():
        t.values = (1.0 - m) * t.values + m * s.values


def commit_teacher_bn(pair: StudentTeacherPair, alpha: float) -> float:
    """Lazily commit every teacher BN layer's pending view statistics, one
    layer at a time: each layer commits a state of its own, made of fresh
    copies of its channel range of the history and of the pending views.

    Returns the total L2 drift of the histories, the per-iteration
    history-movement metric.
    """
    history = pair.history
    views = history.pending_count
    if not views:
        return 0.0
    drift_sq = 0.0
    for layer in pair.teacher_bn_layers():
        ch = layer.channels
        state = MomentumBNState(
            hist_mean=history.hist_mean[ch].copy(),
            hist_var=history.hist_var[ch].copy(),
            initialized=history.initialized)
        rows = state.record_rows(views)
        state.pending_mean[rows] = history.pending_mean[:views, ch]
        state.pending_var[rows] = history.pending_var[:views, ch]
        # The first commit measures drift from zero (x - 0.0 == x exactly).
        before_mean = state.hist_mean.copy() if state.initialized else 0.0
        before_var = state.hist_var.copy() if state.initialized else 0.0
        momentum_bn_lazy_commit(state, alpha)
        drift_sq += float(np.sum((state.hist_mean - before_mean) ** 2))
        drift_sq += float(np.sum((state.hist_var - before_var) ** 2))
        history.hist_mean[ch] = state.hist_mean
        history.hist_var[ch] = state.hist_var
    history.initialized = True
    history.pending_count = 0
    return float(np.sqrt(drift_sq))


def symmetrized_loss(pair: StudentTeacherPair, v, v2, workers: int,
                     alpha: float, perm_seed=None) -> LossValue:
    """Two-view symmetrized prediction loss, one pass per view: the student
    on ``v`` against the teacher on ``v2``, then the student on ``v2``
    against the teacher on ``v``, summed. The teacher passes leave view
    ``v2``'s statistics pending first."""
    _, p_v = forward_student(pair, v, workers)
    t_v2 = forward_teacher(pair, v2, alpha, workers, perm_seed)
    term1 = byol_loss(p_v, t_v2)[0]

    _, p_v2 = forward_student(pair, v2, workers)
    t_v = forward_teacher(pair, v, alpha, workers, perm_seed)
    term2 = byol_loss(p_v2, t_v)[0]

    return LossValue(loss=engine.add(term1, term2), term_student_v=term1,
                     term_student_v2=term2)
