"""Composed engine ops: the generic building blocks the fused ops stand for.

No training run records these. ``m2t.engine`` keeps only the ops a run
records (``add``, ``batch_norm``, ``dense`` and the fused losses); the
fused ops' forward and backward are the numpy expressions of the ops here,
in order, and the tests hold them to that bit for bit. Each op records one
tape entry through :func:`m2t.engine._emit`, like the program's ops, and
has a finite-difference suite in :data:`SUITES` that the tests run through
:func:`m2t.gradcheck.run_suite`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from m2t.engine import (
    DimensionError,
    Tensor,
    _broadcast_shape,
    _check_matmul,
    _emit,
    _relu_grad_mask,
    _unbroadcast,
    as_tensor,
    parameter,
)

# ---------------------------------------------------------------------------
# binary elementwise ops (``add`` is the engine's)


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
    _check_matmul(a, b)
    if a.values.ndim != 2:  # the backward's a.T is a 2-D transpose
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape}")
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
# gradient-oracle suites: each builder draws inputs from ``rng`` and returns
# ``(f, params)`` for :func:`m2t.engine.finite_diff_check`, which weighs the
# op's output with its own fixed upstream gradient.


def _case_binary(op):
    # y stays positive and away from zero, as div's denominator.
    def build(rng):
        x = parameter(rng.uniform(-2, 2, size=(3, 4)))
        y = parameter(rng.uniform(0.2, 2.0, size=(3, 4)))
        return lambda: op(x, y), [("x", x), ("y", y)]
    return build


def _case_unary(op, positive=False):
    def build(rng):
        lo, hi = (0.2, 2.0) if positive else (-2.0, 2.0)
        x = parameter(rng.uniform(lo, hi, size=(3, 4)))
        return lambda: op(x), [("x", x)]
    return build


def _case_matmul(rng):
    a = parameter(rng.uniform(-2, 2, size=(3, 4)))
    b = parameter(rng.uniform(-2, 2, size=(4, 2)))
    return lambda: matmul(a, b), [("a", a), ("b", b)]


def _case_reduce(op):
    # Over all entries or along either axis, drawn per trial.
    def build(rng):
        x = parameter(rng.uniform(-2, 2, size=(4, 3)))
        axis = (None, 0, 1)[rng.integers(0, 3)]
        return lambda: op(x, axis=axis), [("x", x)]
    return build


def _case_gather_rows(rng):
    # Repeated and skipped rows: the backward scatter-adds.
    x = parameter(rng.uniform(-2, 2, size=(4, 3)))
    index = rng.integers(0, 4, size=6)
    return lambda: gather_rows(x, index), [("x", x)]


SUITES = {
    "sub": _case_binary(sub),
    "mul": _case_binary(mul),
    "div": _case_binary(div),
    "relu": _case_unary(relu),
    "sqrt": _case_unary(sqrt, positive=True),
    "exp": _case_unary(exp),
    "log": _case_unary(log, positive=True),
    "matmul": _case_matmul,
    "mean": _case_reduce(mean),
    "sum": _case_reduce(sum),
    "var": _case_reduce(var),
    "gather_rows": _case_gather_rows,
}
