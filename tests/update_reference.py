"""Per-block parameter and statistics updates: the oracle for the arena
updates of :mod:`m2t.trainer` and :mod:`m2t.model`.

``sgd_step``, ``ema_update`` and ``commit_teacher_bn`` are the loops over
parameter blocks and BN layers that the whole-vector updates replace, kept
as they were. Each block or layer gets its own numpy calls, and each
result is a new array bound to its tensor or state. The arena updates must
reproduce them to the bit, signed zeros included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from m2t import engine
from m2t.model import Param, StudentTeacherPair
from m2t.normalization import momentum_bn_lazy_commit


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
    """Lazily commit every teacher BN layer's pending view statistics.

    Returns the total L2 drift of the histories, the per-iteration
    history-movement metric.
    """
    drift_sq = 0.0
    for state in pair.teacher_bn_states():
        if not state.pending:
            continue
        # The first commit measures drift from zero (x - 0.0 == x exactly).
        before_mean = 0.0 if state.hist_mean is None else state.hist_mean.copy()
        before_var = 0.0 if state.hist_var is None else state.hist_var.copy()
        momentum_bn_lazy_commit(state, alpha)
        drift_sq += float(np.sum((state.hist_mean - before_mean) ** 2))
        drift_sq += float(np.sum((state.hist_var - before_var) ** 2))
    return float(np.sqrt(drift_sq))
