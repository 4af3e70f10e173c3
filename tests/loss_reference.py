"""Composed loss references for the fused losses of :mod:`m2t.engine`.

:func:`byol_terms`, :func:`infonce` and :func:`softmax_cross_entropy` spell
the normalized MSE, InfoNCE and the probe's softmax cross-entropy out of
the composed ops of ``engine_reference`` (mul, sum, sqrt, div, sub, exp,
log, matmul, mean, add) on its tape, one entry each. Their forward and
autodiff backward are what :func:`m2t.engine.normalized_mse`,
:func:`m2t.engine.info_nce` and :func:`m2t.engine.cross_entropy` must
reproduce bit for bit. :func:`byol_loss`, :func:`infonce_loss` and
:func:`cross_entropy` run them in the form the program's losses take, so
that a training step or a probe can run on them instead.
"""

import numpy as np

from m2t import engine
from m2t.objectives import NegQueue

import engine_reference as ref
from engine_reference import Tensor

NORM_GUARD = 1e-12


def l2_normalize_rows(x, guard: float = NORM_GUARD) -> Tensor:
    """Row-wise unit vectors of a tensor or array (arrays and constants give
    constants); zero-norm rows are guarded and counted on the active tape.

    The guard is added under the square root (as guard^2), so rows of
    ordinary magnitude are normalized exactly in double precision while
    zero rows map to zero vectors with finite gradients.
    """
    x = ref.as_tensor(x)
    sq = ref.sum(ref.mul(x, x), axis=-1, keepdims=True)
    tape = ref.active_tape()
    if tape is not None:
        tape.zero_norm_rows += int(np.count_nonzero(sq.values == 0.0))
    return ref.div(x, ref.sqrt(ref.add(sq, guard * guard)))


def _view_loss(p: Tensor, z_values: np.ndarray) -> Tensor:
    p_hat = l2_normalize_rows(p)
    z_hat = l2_normalize_rows(z_values)
    d = ref.sub(p_hat, z_hat)
    return ref.mean(ref.sum(ref.mul(d, d), axis=-1))


def byol_terms(p: Tensor, z_teacher) -> tuple:
    """Mean over the batch of the squared distance between unit-normalized
    prediction and target rows; the target is a constant. Returns ``(loss,
    terms)``: over a (V, B, C) stack of views one loss per view (its view
    gathered) and their sum with ``add``."""
    z = np.asarray(z_teacher, dtype=np.float64)
    if p.shape != z.shape:
        raise engine.DimensionError(
            f"prediction/target shapes differ: {p.shape} vs {z.shape}")
    if p.values.ndim == 2:
        loss = _view_loss(p, z)
        return loss, (loss.values,)
    terms = [_view_loss(ref.gather_rows(p, [i]), z[i:i + 1])
             for i in range(p.shape[0])]
    loss = terms[0]
    for term in terms[1:]:
        loss = ref.add(loss, term)
    return loss, tuple(term.values for term in terms)


def infonce(q: Tensor, k_pos: np.ndarray, queue,
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
        negs = ref.constant(queue.as_matrix().T)
        l_neg = ref.matmul(q_hat, negs)
        e_neg = ref.exp(ref.div(l_neg, temperature))
        denom = ref.add(exp_pos, ref.sum(e_neg, axis=1, keepdims=True))
    else:
        denom = exp_pos
    return ref.mean(ref.sub(ref.log(denom), ref.div(l_pos, temperature)))


def softmax_cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    # Shift by the detached row max; the softmax is invariant to it.
    shift = ref.constant(logits.values.max(axis=1, keepdims=True))
    shifted = ref.sub(logits, shift)
    logsumexp = ref.log(ref.sum(ref.exp(shifted), axis=1, keepdims=True))
    true_logit = ref.sum(ref.mul(shifted, ref.constant(onehot)), axis=1,
                         keepdims=True)
    return ref.mean(ref.sub(logsumexp, true_logit))


# ---------------------------------------------------------------------------
# the composed losses in the program's form


def _program_loss(loss_fn, x) -> tuple:
    """``(loss, backward, zero_rows, extra)`` of ``loss_fn(x)``, which
    records on a fresh tape and returns the loss tensor and any extra
    outputs: ``x`` is the loss's one differentiable input, and
    ``backward(g)`` gives its gradient, seeding the tape with ``g``."""
    x = ref.parameter(np.asarray(x, dtype=np.float64))
    with ref.record() as tape:
        loss, *extra = loss_fn(x)

    def backward(g):
        ref.backward(loss, seed=np.full(loss.shape, g))
        return x.grad

    return loss.values, backward, tape.zero_norm_rows, extra


def byol_loss(p: np.ndarray, z_teacher: np.ndarray) -> tuple:
    """:func:`byol_terms` as :func:`m2t.objectives.byol_loss` returns it."""
    loss, backward, zero_rows, (terms,) = _program_loss(
        lambda t: byol_terms(t, z_teacher), p)
    return loss, backward, terms, zero_rows


def infonce_loss(q: np.ndarray, k_pos: np.ndarray, queue,
                 temperature: float) -> tuple:
    """:func:`infonce` as :func:`m2t.objectives.infonce_loss` returns it."""
    loss, backward, zero_rows, _ = _program_loss(
        lambda t: (infonce(t, k_pos, queue, temperature),), q)
    return loss, backward, zero_rows


def cross_entropy(logits: np.ndarray, onehot: np.ndarray) -> tuple:
    """:func:`softmax_cross_entropy` as :func:`m2t.engine.cross_entropy`
    returns it."""
    loss, backward, _, _ = _program_loss(
        lambda t: (softmax_cross_entropy(t, onehot),), logits)
    return loss, backward


def empty_queue(capacity: int, dim: int) -> NegQueue:
    """A queue that holds no key yet (a run's queue starts full)."""
    queue = NegQueue(capacity, dim, np.random.default_rng(0))
    queue._buf[...] = 0.0
    queue.size = 0
    return queue
