"""Composed batch-norm reference for the fused BN of :mod:`m2t.engine`, and
drivers that run the model's own BN specs on a bare batch.

:func:`bn_apply` on :func:`batch_stats` spells BN out of the composed
ops of ``engine_reference`` (mean, var, sub, div, sqrt, mul) and
:func:`m2t.engine.add`, so its forward and its autodiff
backward are independent of the fused op's closed form. The statistics are
tape-linked whenever ``x`` is, so a student batch back-propagates through
its mean and variance.

:func:`student_bn` and :func:`layer_bn` normalize a batch the way a
training run does: through :func:`m2t.model.forward_student`, or through
:func:`m2t.engine.dense` with a spec of :func:`m2t.model.teacher_norm`. Each
layer has an identity weight and a zero bias, so ``x @ I + 0`` is ``x``
exactly in float64 and the output is that BN of ``x`` alone. A teacher
layer's channel range is the whole of its history.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from m2t import engine
from m2t.engine import DimensionError, Tensor
from m2t.model import Layer, MlpSpec, build_pair, forward_student, teacher_norm
from m2t.normalization import MomentumBNState, NormParams, shuffle_permutation

import engine_reference as ref


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
                   ref.sqrt(engine.add(stats.var, p.eps)))
    return engine.add(ref.mul(p.gamma, xhat), p.beta)


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
    z, _ = forward_student(pair, x, workers)
    return z


def new_history(channels: int) -> MomentumBNState:
    """An uninitialized history, as a pair allocates it."""
    return MomentumBNState(hist_mean=np.zeros(channels),
                           hist_var=np.ones(channels))


def teacher_layer(p: NormParams) -> Layer:
    """An identity layer with BN params ``p`` over channels 0..c of its
    history."""
    c = p.gamma.shape[0]
    return Layer(weight=Tensor(np.eye(c)), bias=Tensor(np.zeros(c)), norm=p,
                 relu=False, channels=slice(0, c))


def layer_bn(x, kind: str, alpha: float, p: NormParams,
             workers: Optional[int] = None, perm_seed: Optional[int] = None,
             history: Optional[MomentumBNState] = None) -> Tensor:
    """``x`` normalized by the spec of a teacher pass with BN ``kind``
    (:func:`m2t.model.teacher_norm`) over ``workers``, on a layer with
    params ``p`` and momentum history ``history`` (a fresh one if None)."""
    x = engine.as_tensor(x)
    if history is None:
        history = new_history(p.gamma.shape[0])
    layer = teacher_layer(p)
    perm = shuffle_permutation(x.shape[0], perm_seed) \
        if kind == "shuffling" else None
    norm = teacher_norm(history, kind, alpha, history.record_rows(1), workers,
                        perm)
    return engine.dense(x, layer.weight, layer.bias, layer.relu, norm(layer))
