"""Composed batch-norm reference for the fused :func:`m2t.engine.batch_norm`.

:func:`bn_apply` on :func:`batch_stats` spells BN out of generic engine ops
(mean, var, sub, div, sqrt, mul, add), so its forward and its autodiff
backward are independent of the fused op's closed form. The statistics are
tape-linked whenever ``x`` is, so a student batch back-propagates through
its mean and variance.
"""

from dataclasses import dataclass

import numpy as np

from m2t import engine
from m2t.engine import DimensionError, Tensor
from m2t.normalization import NormParams


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
    return TapeStats(mean=engine.mean(x, axis=0), var=engine.var(x, axis=0),
                     count=x.shape[0])


def bn_apply(x: Tensor, stats: TapeStats, p: NormParams) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta."""
    channels = x.values.shape[-1]
    if (stats.mean.values.shape[-1] != channels
            or p.gamma.values.shape[-1] != channels):
        raise DimensionError(
            f"channel mismatch: x has {channels}, stats "
            f"{stats.mean.values.shape[-1]}, params {p.gamma.values.shape[-1]}")
    xhat = (x - stats.mean) / engine.sqrt(stats.var + p.eps)
    return p.gamma * xhat + p.beta


def identity_norm_params(channels: int, eps: float = 1e-5,
                         requires_grad: bool = False) -> NormParams:
    return NormParams(
        gamma=Tensor(np.ones(channels), requires_grad=requires_grad),
        beta=Tensor(np.zeros(channels), requires_grad=requires_grad),
        eps=eps,
    )


def worker_slices(layout) -> list[slice]:
    """Each simulated worker's contiguous rows of the batch."""
    p = layout.per_worker
    return [slice(w * p, (w + 1) * p) for w in range(layout.num_workers)]
