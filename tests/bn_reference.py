"""Composed batch-norm reference for the fused BN of :mod:`m2t.engine`, and
drivers that run the model's own BN specs on a bare batch.

:func:`bn_apply` on :func:`batch_stats` spells BN out of the composed
ops of ``engine_reference`` (mean, var, sub, div, sqrt, mul, add) on its
tape, so its forward and its autodiff backward are independent of the
fused op's closed form. The statistics are tape-linked whenever ``x`` is,
so a student batch back-propagates through its mean and variance.
:func:`batch_norm` is the closed form itself, as one tape entry: the BN
that the composed oracle of :func:`m2t.engine.dense` runs.

The probe head has two references: :func:`folded_head`, the composed ops
whose autodiff :func:`m2t.engine.bn_linear` equals bit for bit, and
:func:`bn_then_linear`, the BN-then-linear head it replaced (:func:`bn_apply`,
then matmul and add). :func:`probe_op` runs either in the form of the
program's op, so that a probe can run on it instead.

:func:`student_bn` and :func:`layer_bn` normalize a batch the way a
training run does: through :func:`m2t.model.forward_student`, or through
:func:`m2t.engine.dense` with a spec of :func:`m2t.model.teacher_norm`. Each
layer has an identity weight and a zero bias, so ``x @ I + 0`` is ``x``
exactly in float64 and the output is that BN of ``x`` alone. A teacher
layer's channel range is the whole of its history. Both take an array or a
tape tensor (its values) and return the output as a tape constant, which
compares with :func:`bn_apply`'s; :func:`layer_bn` returns the pass's
statistics row with it.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from m2t import engine
from m2t.engine import DimensionError
from m2t.model import Layer, MlpSpec, build_pair, forward_student, teacher_norm
from m2t.normalization import (MomentumBNState, NormParams,
                               constant_batch_stats, shuffle_permutation)

import engine_reference as ref
from engine_reference import Tensor


@dataclass
class TapeStats:
    """Per-channel mean and biased variance as (possibly tape-linked)
    tensors."""

    mean: Tensor
    var: Tensor
    count: int


def batch_stats(x: Tensor) -> TapeStats:
    """Per-channel mean and biased variance over the batch axis."""
    if x.values.ndim != 2:
        raise DimensionError(f"expected batch x channels, got shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("batch statistics of an empty batch")
    return TapeStats(mean=ref.mean(x, axis=0), var=ref.var(x, axis=0),
                     count=x.shape[0])


def bn_apply(x: Tensor, stats: TapeStats, p: NormParams) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta."""
    channels = x.values.shape[-1]
    if (stats.mean.values.shape[-1] != channels
            or p.gamma.values.shape[-1] != channels):
        raise DimensionError(
            f"channel mismatch: x has {channels}, stats "
            f"{stats.mean.values.shape[-1]}, params {p.gamma.values.shape[-1]}")
    xhat = ref.div(ref.sub(x, stats.mean),
                   ref.sqrt(ref.add(stats.var, p.eps)))
    return ref.add(ref.mul(p.gamma, xhat), p.beta)


def batch_norm(x, groups: int, gamma, beta, eps: float,
               stats: Optional[tuple] = None) -> Tensor:
    """BN over ``groups`` equal row groups of the 2-D ``x``, each with its
    own mean and biased variance or the given ``stats`` (per channel or one
    row per group), as one tape entry over ``x``, ``gamma`` and ``beta``
    with the closed-form backward: with inv = 1/sqrt(var + eps) and g_hat =
    g * gamma, dx = inv * (g_hat - mean(g_hat) - xhat * mean(g_hat *
    xhat)) per group, or inv * g_hat for given stats. Spelled in numpy's
    mean-based expressions, in the composed ops' order."""
    x, gamma, beta = (ref.as_tensor(t) for t in (x, gamma, beta))
    b, c = x.shape
    x3 = x.values.reshape(groups, -1, c)
    if stats is None:
        mu = x3.mean(axis=1, keepdims=True)
        dev = x3 - mu
        var = np.mean(dev * dev, axis=1, keepdims=True)
    else:
        mu, var = (np.reshape(s, (-1, 1, c)) for s in stats)
        dev = x3 - mu
    std = np.sqrt(var + eps)
    xhat = dev / std

    def bw(g):
        g3 = g.reshape(x3.shape)
        g_hat = g3 * gamma.values
        if stats is None:
            g_hat = (g_hat - g_hat.mean(axis=1, keepdims=True)
                     - xhat * (g_hat * xhat).mean(axis=1, keepdims=True))
        return (((1.0 / std) * g_hat).reshape(b, c),
                (g3 * xhat).reshape(b, c).sum(axis=0), g.sum(axis=0))

    out = (gamma.values * xhat + beta.values).reshape(b, c)
    return ref.recorded("batch_norm", (x, gamma, beta), out, bw)


def folded_head(x: Tensor, gamma: Tensor, beta: Tensor, weight: Tensor,
                bias: Tensor, eps: float, stats: tuple) -> Tensor:
    """The probe head with BN folded into its linear layer, from composed
    ops, on the data ``x`` and the constants ``stats = (mean, var)``: ``(x
    - mean) @ (scale * weight) + (beta @ weight + bias)``, with ``scale``
    the column ``gamma / sqrt(var + eps)`` and ``beta`` a row."""
    c = x.shape[1]
    mean, var = stats
    scale = ref.reshape(ref.div(gamma, ref.sqrt(ref.add(var, eps))), (c, 1))
    shift = ref.add(ref.matmul(ref.reshape(beta, (1, c)), weight), bias)
    return ref.add(ref.matmul(ref.sub(x, mean), ref.mul(scale, weight)),
                   shift)


def bn_then_linear(x: Tensor, gamma: Tensor, beta: Tensor, weight: Tensor,
                   bias: Tensor, eps: float, stats: tuple) -> Tensor:
    """The probe head as BN of ``x`` on the constants ``stats = (mean,
    var)`` (:func:`bn_apply`), then ``@ weight + bias``."""
    mean, var = (ref.constant(s) for s in stats)
    y = bn_apply(x, TapeStats(mean, var, x.shape[0]),
                 NormParams(gamma, beta, eps))
    return ref.add(ref.matmul(y, weight), bias)


def probe_op(head):
    """``head`` (:func:`folded_head` or :func:`bn_then_linear`) in the form
    of :func:`m2t.engine.bn_linear`: ``(logits, backward, (mean, var))``.
    Without given statistics it normalizes with the rows'
    :func:`m2t.normalization.constant_batch_stats`, taken as constants, and
    returns them; ``backward(g)`` seeds the tape with ``g`` and gives
    ``(dgamma, dbeta, dweight, dbias)``."""
    def op(x, gamma, beta, weight, bias, eps, stats=None):
        given = constant_batch_stats(x) if stats is None else stats
        params = [ref.parameter(a) for a in (gamma, beta, weight, bias)]
        with ref.record():
            out = head(ref.constant(x), *params, eps, given)

        def backward(g):
            ref.backward(out, seed=g)
            return tuple(p.grad for p in params)

        return out.values, backward, given

    return op


def identity_norm_params(channels: int, eps: float = 1e-5,
                         requires_grad: bool = False) -> NormParams:
    return NormParams(
        gamma=Tensor(np.ones(channels), requires_grad=requires_grad),
        beta=Tensor(np.zeros(channels), requires_grad=requires_grad),
        eps=eps,
    )


def worker_slices(batch_size: int, workers: int) -> list[slice]:
    """Each simulated worker's contiguous rows of the batch."""
    per = batch_size // workers
    return [slice(w * per, (w + 1) * per) for w in range(workers)]


def student_bn(x, kind: str, workers: int, p: NormParams) -> Tensor:
    """``x`` normalized by the student BN ``kind`` at ``workers`` workers,
    as :func:`forward_student` builds it: its pair is one BN layer with
    params ``p`` (encoder) and one plain layer (projector)."""
    c = p.gamma.shape[0]
    pair = build_pair(MlpSpec((c, c), (True,), (False,)),
                      MlpSpec((c, c), (False,), (False,)), None,
                      np.random.default_rng(0), student_bn=kind)
    for mlp in (pair.encoder, pair.projector):
        mlp.layers[0].weight.values[...] = np.eye(c)
    pair.encoder.layers[0].norm = p
    z, _, _ = forward_student(pair, _values(x), workers)
    return ref.constant(z)


def new_history(channels: int) -> MomentumBNState:
    """An uninitialized history, as a pair allocates it."""
    return MomentumBNState(hist_mean=np.zeros(channels),
                           hist_var=np.ones(channels))


def teacher_layer(p: NormParams) -> Layer:
    """An identity layer with BN params ``p`` over channels 0..c of its
    history."""
    c = p.gamma.shape[0]
    return Layer(weight=engine.Tensor(np.eye(c)),
                 bias=engine.Tensor(np.zeros(c)), norm=p, relu=False,
                 channels=slice(0, c))


def layer_bn(x, kind: str, alpha: float, p: NormParams,
             workers: Optional[int] = None, perm_seed: Optional[int] = None,
             history: Optional[MomentumBNState] = None) -> tuple:
    """``(y, (mean, var))``: ``x`` normalized by the spec of a teacher pass
    with BN ``kind`` (:func:`m2t.model.teacher_norm`) over ``workers``, on a
    layer with params ``p`` and momentum history ``history`` (a fresh one if
    None), and the pass's statistics, one (1, C) row each."""
    x = _values(x)
    if history is None:
        history = new_history(p.gamma.shape[0])
    layer = teacher_layer(p)
    perm = shuffle_permutation(x.shape[0], perm_seed) \
        if kind == "shuffling" else None
    row = np.empty((1, x.shape[1])), np.empty((1, x.shape[1]))
    norm = teacher_norm(history, kind, alpha, row, workers, perm)
    out, _ = engine.dense(x, layer.weight.values, layer.bias.values,
                          layer.relu, norm(layer))
    return ref.constant(out), row


def _values(x) -> np.ndarray:
    """The float64 array of an array or a tape tensor."""
    return np.asarray(x.values if isinstance(x, Tensor) else x,
                      dtype=np.float64)
