"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: 2-D (and 1-D / scalar) arrays, a recording
tape, and exactly the operations needed for MLP encoders, batch
normalization (one fused op, :func:`batch_norm`) and the training losses.
Everything is double precision so that gradient checks and
statistics-equivalence tests have numerical headroom.

Gradients are recorded on an explicit :class:`Tape`. Operations record
themselves only while a tape is active (see :func:`record`) and only when at
least one input participates in gradients; everything else evaluates to a
constant. Backward replays the tape in reverse recording order, accumulating
gradients additively, so reusing a tensor twice yields the sum of per-use
gradients.

Broadcasting follows numpy's right-aligned rule restricted to singleton
expansion: shapes are aligned on their trailing axes and an axis may differ
between operands only when one side is 1 (or absent). The matching backward
pass sums gradients over the expanded axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


class DimensionError(ValueError):
    """Shapes are incompatible for the requested operation."""


@dataclass
class RunHealth:
    """Counters for numerically suspicious events observed during a run."""

    zero_norm_rows: int = 0

    def reset(self) -> None:
        self.zero_norm_rows = 0

    def as_dict(self) -> dict:
        return {"zero_norm_rows": self.zero_norm_rows}


#: Process-wide health counters; trainer resets them at run start.
HEALTH = RunHealth()


class Tensor:
    """A dense float64 array with optional gradient participation.

    ``grad`` is filled by :func:`backward` and is only ever allocated for
    tensors with ``requires_grad=True``. Tensors that do not participate in
    gradients are treated as immutable constants.
    """

    __slots__ = ("values", "requires_grad", "grad", "_tape")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional["Tape"] = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise DimensionError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Arithmetic operators dispatch to the module-level ops so that python
    # scalars and numpy arrays are auto-wrapped as constants.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class _Entry:
    op: str
    inputs: tuple
    output: Tensor
    backward: Callable[[np.ndarray], tuple]


class Tape:
    """Ordered record of operations for one reverse-mode sweep."""

    def __init__(self):
        self.entries: list[_Entry] = []

    def __len__(self) -> int:
        return len(self.entries)


_TAPE_STACK: list[Tape] = []


class record:
    """Context manager that activates a fresh (or given) tape.

    All gradient-participating operations performed inside the ``with`` block
    are recorded. Nesting pushes/pops a stack; only the innermost tape
    records.
    """

    def __init__(self, tape: Optional[Tape] = None):
        self.tape = tape if tape is not None else Tape()

    def __enter__(self) -> Tape:
        _TAPE_STACK.append(self.tape)
        return self.tape

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(op: str, inputs: Sequence[Tensor], out_values: np.ndarray,
          backward: Callable[[np.ndarray], tuple]) -> Tensor:
    tape = active_tape()
    track = tape is not None and any(i.requires_grad for i in inputs)
    out = Tensor(out_values, requires_grad=track)
    if track:
        out._tape = tape
        tape.entries.append(_Entry(op, tuple(inputs), out, backward))
    return out


# ---------------------------------------------------------------------------
# broadcasting


def _broadcast_shape(sa: tuple, sb: tuple) -> tuple:
    """Right-aligned broadcast shape; only singleton axes may expand."""
    out = []
    for i in range(1, max(len(sa), len(sb)) + 1):
        a = sa[-i] if i <= len(sa) else 1
        b = sb[-i] if i <= len(sb) else 1
        if a == b or a == 1 or b == 1:
            out.append(max(a, b))
        else:
            raise DimensionError(f"cannot broadcast shapes {sa} and {sb}")
    return tuple(reversed(out))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# binary elementwise ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out = a.values + b.values

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit("add", (a, b), out, bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out = a.values - b.values

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _emit("sub", (a, b), out, bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out = a.values * b.values

    def bw(g):
        return (_unbroadcast(g * b.values, a.shape),
                _unbroadcast(g * a.values, b.shape))

    return _emit("mul", (a, b), out, bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.values / b.values

        def bw(g):
            da = g / b.values
            db = -g * a.values / (b.values * b.values)
            return _unbroadcast(da, a.shape), _unbroadcast(db, b.shape)

    return _emit("div", (a, b), out, bw)


# ---------------------------------------------------------------------------
# unary ops


def neg(x) -> Tensor:
    x = as_tensor(x)
    return _emit("neg", (x,), -x.values, lambda g: (-g,))


def _relu_grad_mask(values: np.ndarray) -> np.ndarray:
    # Subgradient convention: exactly-zero inputs pass no gradient.
    return (values > 0.0).astype(np.float64)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.values, 0.0)

    def bw(g):
        return (g * _relu_grad_mask(x.values),)

    return _emit("relu", (x,), out, bw)


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    out = np.sqrt(x.values)

    def bw(g):
        return (g / (2.0 * out),)

    return _emit("sqrt", (x,), out, bw)


def exp(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.values)

    def bw(g):
        return (g * out,)

    return _emit("exp", (x,), out, bw)


def log(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.values)

    def bw(g):
        return (g / x.values,)

    return _emit("log", (x,), out, bw)


# ---------------------------------------------------------------------------
# matmul


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    out = a.values @ b.values

    def bw(g):
        return g @ b.values.T, a.values.T @ g

    return _emit("matmul", (a, b), out, bw)


# ---------------------------------------------------------------------------
# reductions


def _check_axis(x: Tensor, axis: Optional[int]) -> None:
    if x.values.size == 0:
        raise ValueError("empty reduction")
    if axis is not None:
        if not -x.values.ndim <= axis < x.values.ndim:
            raise DimensionError(f"axis {axis} invalid for shape {x.shape}")
        if x.values.shape[axis] == 0:
            raise ValueError("empty reduction")


def _expand(g: np.ndarray, x_shape: tuple, axis: Optional[int],
            keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(x_shape)), x_shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, x_shape)


def mean(x, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    _check_axis(x, axis)
    m = x.values.size if axis is None else x.values.shape[axis]
    out = x.values.mean(axis=axis, keepdims=keepdims)

    def bw(g):
        return (_expand(np.asarray(g), x.shape, axis, keepdims) / m,)

    return _emit("mean", (x,), np.asarray(out), bw)


def sum(x, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    x = as_tensor(x)
    _check_axis(x, axis)
    out = x.values.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        return (_expand(np.asarray(g), x.shape, axis, keepdims).copy(),)

    return _emit("sum", (x,), np.asarray(out), bw)


def var(x, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    """Biased variance: mean of squared deviations, divisor m (not m-1).

    Backward uses d var / d x_i = 2 (x_i - mu) / m; the indirect term through
    mu cancels because the deviations sum to zero.
    """
    x = as_tensor(x)
    _check_axis(x, axis)
    m = x.values.size if axis is None else x.values.shape[axis]
    mu = x.values.mean(axis=axis, keepdims=True)
    dev = x.values - mu
    out = np.mean(dev * dev, axis=axis, keepdims=keepdims)

    def bw(g):
        return (_expand(np.asarray(g), x.shape, axis, keepdims) * 2.0 * dev / m,)

    return _emit("var", (x,), np.asarray(out), bw)


# ---------------------------------------------------------------------------
# row-structured ops (permutations)


def gather_rows(x, index: np.ndarray) -> Tensor:
    """Select rows by integer index; backward scatter-adds."""
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 1:
        raise DimensionError("gather index must be 1-D")
    if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
        raise DimensionError(
            f"gather index out of range for {x.shape[0]} rows")
    out = x.values[index].copy()

    def bw(g):
        full = np.zeros_like(x.values)
        np.add.at(full, index, g)
        return (full,)

    return _emit("gather_rows", (x,), out, bw)


# ---------------------------------------------------------------------------
# batch normalization


def batch_norm(x, groups: int, gamma, beta, eps: float,
               stats: Optional[tuple] = None) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta over equal row groups.

    The (B, C) batch splits into ``groups`` contiguous blocks, each
    normalized with its own mean and biased variance (the numpy operations
    of :func:`mean` and :func:`var`, so results match the composed ops bit
    for bit) or with the given per-channel constants ``stats = (mean, var)``.
    One tape entry with the closed-form backward: with inv = 1/sqrt(var +
    eps) and g_hat = g * gamma, dx = inv * (g_hat - mean(g_hat) - xhat *
    mean(g_hat * xhat)) per group, or inv * g_hat for given stats.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.values.ndim != 2:
        raise DimensionError(
            f"batch_norm expects batch x channels, got shape {x.shape}")
    b, c = x.shape
    if groups < 1 or b == 0 or b % groups != 0:
        raise DimensionError(
            f"{b} rows do not split into {groups} equal groups")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"channel mismatch: x has {c}, gamma {gamma.shape}, "
            f"beta {beta.shape}")
    x3 = x.values.reshape(groups, b // groups, c)
    if stats is None:
        mu = x3.mean(axis=1, keepdims=True)
        dev = x3 - mu
        var = np.mean(dev * dev, axis=1, keepdims=True)
    else:
        mu, var = (np.asarray(s, dtype=np.float64) for s in stats)
        if mu.shape != (c,) or var.shape != (c,):
            raise DimensionError(
                f"channel mismatch: x has {c}, stats {mu.shape}/{var.shape}")
        dev = x3 - mu
    std = np.sqrt(var + eps)
    xhat = dev / std
    out = (gamma.values * xhat + beta.values).reshape(b, c)

    def bw(g):
        dx = None
        if x.requires_grad:
            g_hat = g.reshape(x3.shape) * gamma.values
            if stats is None:
                g_hat = (g_hat - g_hat.mean(axis=1, keepdims=True)
                         - xhat * (g_hat * xhat).mean(axis=1, keepdims=True))
            dx = ((1.0 / std) * g_hat).reshape(b, c)
        return dx, (g * xhat.reshape(b, c)).sum(axis=0), g.sum(axis=0)

    return _emit("batch_norm", (x, gamma, beta), out, bw)


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor) -> None:
    """Fill ``grad`` on every gradient-participating tensor reachable from
    ``loss``. The loss must be a scalar recorded on a tape."""
    if loss.values.size != 1:
        raise DimensionError(
            f"backward on non-scalar tensor of shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise ValueError("backward on a tensor that is not on any tape")
    loss.grad = np.ones_like(loss.values)
    for entry in reversed(tape.entries):
        g = entry.output.grad
        if g is None:
            continue
        contributions = entry.backward(g)
        for inp, contrib in zip(entry.inputs, contributions):
            if contrib is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                inp.grad = np.zeros_like(inp.values)
            inp.grad += contrib


# ---------------------------------------------------------------------------
# gradient oracle


@dataclass
class GradCheckReport:
    """Per-block maximum relative error of autodiff vs central differences."""

    per_block: dict = field(default_factory=dict)
    h: float = 1e-5
    tol: float = 1e-4

    @property
    def max_rel_error(self) -> float:
        vals = [v for v in self.per_block.values()]
        if not vals:
            return 0.0
        if any(not np.isfinite(v) for v in vals):
            return float("nan")
        return max(vals)

    @property
    def passed(self) -> bool:
        e = self.max_rel_error
        return np.isfinite(e) and e <= self.tol


def finite_diff_check(f: Callable[[], Tensor],
                      params: Sequence[tuple[str, Tensor]],
                      h: float = 1e-5,
                      tol: float = 1e-4) -> GradCheckReport:
    """Compare autodiff gradients of the scalar ``f()`` against central
    finite differences, elementwise, for every named parameter block.

    ``f`` must be deterministic and must rebuild its computation from the
    parameter tensors on each call. Relative error uses the denominator
    ``max(|analytic|, |numeric|, 1e-4)``: the floor makes exactly-zero
    gradients (e.g. biases canceled by a following normalization) compare
    absolutely at tol * 1e-4, comfortably above the central-difference
    roundoff of eps * |f| / h. Non-finite entries are reported per block,
    never raised.
    """
    report = GradCheckReport(h=h, tol=tol)
    for _, p in params:
        p.zero_grad()
    with record():
        loss = f()
    if loss._tape is not None:
        backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.values))
        for name, p in params
    }
    for name, p in params:
        flat = p.values.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f().item()
            flat[i] = orig - h
            down = f().item()
            flat[i] = orig
            num[i] = (up - down) / (2.0 * h)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-4)
        err = np.abs(a - num) / denom
        report.per_block[name] = float(np.max(err)) if err.size else 0.0
    return report
