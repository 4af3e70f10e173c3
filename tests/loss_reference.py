"""Composed loss references for the fused losses of :mod:`m2t.engine`.

:func:`byol_loss`, :func:`infonce_loss` and :func:`cross_entropy` spell
the normalized MSE, InfoNCE and the probe's softmax cross-entropy out of
generic engine ops (mul, sum, add, sqrt, div, sub, exp, log, matmul,
mean), one tape entry each. Their forward and autodiff backward are what
:func:`m2t.engine.normalized_mse`, :func:`m2t.engine.info_nce` and
:func:`m2t.engine.cross_entropy` must reproduce bit for bit.
"""

import numpy as np

from m2t import engine
from m2t.engine import HEALTH, Tensor

NORM_GUARD = 1e-12


def l2_normalize_rows(x, guard: float = NORM_GUARD) -> Tensor:
    """Row-wise unit vectors of a tensor or array (arrays and constants give
    constants); zero-norm rows are guarded and counted.

    The guard is added under the square root (as guard^2), so rows of
    ordinary magnitude are normalized exactly in double precision while
    zero rows map to zero vectors with finite gradients.
    """
    x = engine.as_tensor(x)
    sq = engine.sum(x * x, axis=1, keepdims=True)
    zero_rows = int(np.count_nonzero(sq.values == 0.0))
    if zero_rows:
        HEALTH.zero_norm_rows += zero_rows
    return x / engine.sqrt(sq + guard * guard)


def byol_loss(p: Tensor, z_teacher: Tensor) -> Tensor:
    """Mean over the batch of the squared distance between unit-normalized
    prediction and target rows; the target is detached."""
    if p.shape != z_teacher.shape:
        raise engine.DimensionError(
            f"prediction/target shapes differ: {p.shape} vs {z_teacher.shape}")
    p_hat = l2_normalize_rows(p)
    z_hat = l2_normalize_rows(z_teacher.values)
    d = p_hat - z_hat
    return engine.mean(engine.sum(d * d, axis=1))


def infonce_loss(q: Tensor, k_pos: Tensor, queue,
                 temperature: float) -> Tensor:
    """Contrastive cross-entropy over one positive and the queued negatives.

    Queries are normalized here. The positive keys ``k_pos`` are unit rows
    and gradient constants, normalized once by the caller so that the queue
    can store the same rows. All similarities are cosines, so the logits are
    bounded by 1/temperature and the softmax needs no max-shifting in double
    precision.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    q_hat = l2_normalize_rows(q)
    l_pos = engine.sum(q_hat * k_pos, axis=1, keepdims=True)
    exp_pos = engine.exp(l_pos / temperature)
    if len(queue) > 0:
        negs = engine.constant(queue.as_matrix().T)
        l_neg = engine.matmul(q_hat, negs)
        denom = exp_pos + engine.sum(engine.exp(l_neg / temperature),
                                     axis=1, keepdims=True)
    else:
        denom = exp_pos
    return engine.mean(engine.log(denom) - l_pos / temperature)


def cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    # Shift by the detached row max; the softmax is invariant to it.
    shift = engine.constant(logits.values.max(axis=1, keepdims=True))
    shifted = logits - shift
    logsumexp = engine.log(engine.sum(engine.exp(shifted), axis=1,
                                      keepdims=True))
    true_logit = engine.sum(shifted * engine.constant(onehot), axis=1,
                            keepdims=True)
    return engine.mean(logsumexp - true_logit)
