"""Composed loss references for the fused losses of :mod:`m2t.engine`.

:func:`byol_loss`, :func:`infonce_loss` and :func:`cross_entropy` spell
the normalized MSE, InfoNCE and the probe's softmax cross-entropy out of
the composed ops of ``engine_reference`` (mul, sum, sqrt, div, sub, exp,
log, matmul, mean) and :func:`m2t.engine.add`, one tape entry each. Their
forward and autodiff backward are what :func:`m2t.engine.normalized_mse`,
:func:`m2t.engine.info_nce` and :func:`m2t.engine.cross_entropy` must
reproduce bit for bit.
"""

import numpy as np

from m2t import engine
from m2t.engine import Tensor

import engine_reference as ref

NORM_GUARD = 1e-12


def l2_normalize_rows(x, guard: float = NORM_GUARD) -> Tensor:
    """Row-wise unit vectors of a tensor or array (arrays and constants give
    constants); zero-norm rows are guarded and counted on the active tape.

    The guard is added under the square root (as guard^2), so rows of
    ordinary magnitude are normalized exactly in double precision while
    zero rows map to zero vectors with finite gradients.
    """
    x = engine.as_tensor(x)
    sq = ref.sum(ref.mul(x, x), axis=-1, keepdims=True)
    tape = engine.active_tape()
    if tape is not None:
        tape.zero_norm_rows += int(np.count_nonzero(sq.values == 0.0))
    return ref.div(x, ref.sqrt(engine.add(sq, guard * guard)))


def _view_loss(p: Tensor, z_values: np.ndarray) -> Tensor:
    p_hat = l2_normalize_rows(p)
    z_hat = l2_normalize_rows(z_values)
    d = ref.sub(p_hat, z_hat)
    return ref.mean(ref.sum(ref.mul(d, d), axis=-1))


def byol_loss(p: Tensor, z_teacher: Tensor):
    """Mean over the batch of the squared distance between unit-normalized
    prediction and target rows; the target is detached. Returns ``(loss,
    terms)``: over a (V, B, C) stack of views one loss per view (its view
    gathered) and their sum with :func:`m2t.engine.add`."""
    if p.shape != z_teacher.shape:
        raise engine.DimensionError(
            f"prediction/target shapes differ: {p.shape} vs {z_teacher.shape}")
    if p.values.ndim == 2:
        loss = _view_loss(p, z_teacher.values)
        return loss, (loss.values,)
    terms = [_view_loss(ref.gather_rows(p, [i]), z_teacher.values[i:i + 1])
             for i in range(p.shape[0])]
    loss = terms[0]
    for term in terms[1:]:
        loss = engine.add(loss, term)
    return loss, tuple(term.values for term in terms)


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
    l_pos = ref.sum(ref.mul(q_hat, k_pos), axis=1, keepdims=True)
    exp_pos = ref.exp(ref.div(l_pos, temperature))
    if len(queue) > 0:
        negs = engine.constant(queue.as_matrix().T)
        l_neg = ref.matmul(q_hat, negs)
        e_neg = ref.exp(ref.div(l_neg, temperature))
        denom = engine.add(exp_pos, ref.sum(e_neg, axis=1, keepdims=True))
    else:
        denom = exp_pos
    return ref.mean(ref.sub(ref.log(denom), ref.div(l_pos, temperature)))


def cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    # Shift by the detached row max; the softmax is invariant to it.
    shift = engine.constant(logits.values.max(axis=1, keepdims=True))
    shifted = ref.sub(logits, shift)
    logsumexp = ref.log(ref.sum(ref.exp(shifted), axis=1, keepdims=True))
    true_logit = ref.sum(ref.mul(shifted, engine.constant(onehot)), axis=1,
                         keepdims=True)
    return ref.mean(ref.sub(logsumexp, true_logit))
