"""Iteration-indexed hyperparameter schedules.

The teacher's weight-EMA coefficient and the statistics-blend coefficient
both decay from their base value to zero on a half-cosine over the whole
run. The learning rate additionally gets a linear warmup ramp before the
cosine. Epoch-based configuration is converted to iteration counts before
any of these functions are called.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

log = logging.getLogger(__name__)

SCHEDULE_KINDS = ("cosine_to_zero", "constant")


@dataclass(frozen=True)
class ScheduleSpec:
    base: float
    total_steps: int
    kind: str = "cosine_to_zero"
    warmup_steps: int = 0
    warmup_factor: float = 1.0

    def __post_init__(self):
        if self.base < 0:
            raise ValueError(f"base must be >= 0, got {self.base}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError(
                f"warmup_steps must lie in [0, {self.total_steps}), "
                f"got {self.warmup_steps}")
        if not 0 < self.warmup_factor <= 1:
            raise ValueError(
                f"warmup_factor must lie in (0, 1], got {self.warmup_factor}")


def cosine_value(base: float, k: int, total: int) -> float:
    """base * (cos(pi k / K) + 1) / 2, clamping k to K with a warning."""
    if k > total:
        log.warning("schedule step %d beyond horizon %d; clamping", k, total)
        k = total
    return base * (math.cos(math.pi * k / total) + 1.0) / 2.0


def schedule_at(spec: ScheduleSpec, k: int) -> float:
    """Value at iteration k: linear warmup ramp, then the decay (a
    warmup-free spec, such as the EMA and blend coefficients', is the decay
    alone).

    The ramp runs from base * warmup_factor at k=0 to exactly base at
    k=warmup_steps, which is also the k=0 point of the cosine over the
    remaining steps, so the two pieces join continuously.
    """
    w = spec.warmup_steps
    if w > 0 and k < w:
        frac = k / w
        return spec.base * (spec.warmup_factor + (1.0 - spec.warmup_factor) * frac)
    if spec.kind == "constant":
        return spec.base
    return cosine_value(spec.base, k - w, spec.total_steps - w)


def apply_linear_scaling(base_lr: float, m_base: float,
                         batch_scale: float) -> tuple[float, float]:
    """Extended linear scaling: multiply both the learning rate and the
    weight-EMA base coefficient by the batch-size ratio.

    The EMA base is a convex-combination weight, so it is clamped at 1 with
    a warning when the scale would push it past that.
    """
    if batch_scale <= 0:
        raise ValueError(f"batch scale must be positive, got {batch_scale}")
    lr = base_lr * batch_scale
    m = m_base * batch_scale
    if m > 1.0:
        log.warning("scaled EMA base %.4g exceeds 1; clamping", m)
        m = 1.0
    return lr, m
