"""The reverse-mode tape and the composed ops: the oracle of the fused ops.

No training run uses any of this. ``m2t.engine`` keeps only the five fused
ops a run executes; each returns its output and its backward closure, and
a run chains the closures itself. Here is the general machinery that chain
stands for: a :class:`Tape` that records one entry per op on tensors that
require gradients, :func:`backward`, which replays it in reverse and adds
up every input's gradient, and the composed ops (``add``, ``sub``, ``mul``
through ``gather_rows``) whose numpy expressions the fused ops run in
order. The tests hold the fused ops to them bit for bit.

:func:`recorded` records a program op's ``(out, backward)`` as one tape
entry, and :func:`dense`, :func:`batch_norm`, :func:`normalized_mse`,
:func:`info_nce` and :func:`cross_entropy` are the program's fused ops so
recorded, so that a fused op and its composition run on one tape. Each
composed op has a finite-difference suite in :data:`SUITES` that the tests
run through :func:`m2t.gradcheck.run_suite`; :func:`closure` turns a
function recorded on a tape into the ``(out, backward)`` form that
:func:`m2t.engine.finite_diff_check` takes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from m2t import engine
from m2t.engine import DimensionError


def _relu_grad_mask(values: np.ndarray) -> np.ndarray:
    # Subgradient convention: exactly-zero inputs pass no gradient.
    return values > 0.0


def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim not in (2, 3) or b.ndim != 2:
        raise DimensionError(
            f"matmul expects a 2-D or stacked 3-D input and a 2-D weight, "
            f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# tensors and the tape


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
    """Ordered record of operations for one reverse-mode sweep, and the
    zero-norm rows that the ops recorded while it was active met."""

    def __init__(self):
        self.entries: list[_Entry] = []
        self.zero_norm_rows = 0

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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out = a.values + b.values

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit("add", (a, b), out, bw)


def backward(loss: Tensor, seed: Optional[np.ndarray] = None) -> None:
    """Fill ``grad`` on every gradient-participating tensor reachable from
    ``loss``, a tensor recorded on a tape. ``seed`` is the upstream
    gradient of ``loss``, in its shape; it defaults to ones for a scalar
    and is required for any other output."""
    if seed is None:
        if loss.values.size != 1:
            raise DimensionError(
                f"backward on non-scalar tensor of shape {loss.shape} "
                "needs a seed")
        seed = 1.0
    elif np.shape(seed) != loss.shape:
        raise DimensionError(
            f"seed of shape {np.shape(seed)} for an output of shape "
            f"{loss.shape}")
    tape = loss._tape
    if tape is None:
        raise ValueError("backward on a tensor that is not on any tape")
    if not tape.entries:
        raise ValueError("backward over a tape that an earlier backward "
                         "already swept")
    # The seed is the output's first gradient and is written like any other.
    loss.grad = np.add(seed, 0.0, out=np.empty_like(loss.values))
    for entry in reversed(tape.entries):
        g = entry.output.grad
        if g is None:
            continue
        contributions = entry.backward(g)
        for inp, contrib in zip(entry.inputs, contributions):
            if contrib is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                # 0.0 + c in one pass: what zeros + c gave, -0 included,
                # broadcast into the input's shape.
                inp.grad = np.add(contrib, 0.0,
                                  out=np.empty_like(inp.values))
            else:
                inp.grad += contrib
    # Each output holds its tape and the entries hold the outputs, so the
    # recorded iteration is a reference cycle until the entries go. Rebind
    # instead of clearing: a caller may still read the list it took before.
    tape.entries = []


# ---------------------------------------------------------------------------
# the program's fused ops, recorded


def recorded(op: str, inputs: Sequence[Tensor], out: np.ndarray,
             backward: Callable[[np.ndarray], tuple],
             zero_norm_rows: int = 0) -> Tensor:
    """A program op's output and backward as one tape entry over ``inputs``
    (``backward(g)`` gives each input's gradient, in order); the zero-norm
    rows it met are counted on the active tape."""
    tape = active_tape()
    if tape is not None:
        tape.zero_norm_rows += zero_norm_rows
    return _emit(op, inputs, out, backward)


def _input(x) -> Tensor:
    """A tape tensor for ``x``; a program parameter is a constant here."""
    return as_tensor(x.values if isinstance(x, engine.Tensor) else x)


def dense(x, weight, bias, relu: bool,
          norm: Optional[engine.BNSpec] = None) -> Tensor:
    x, weight, bias = _input(x), _input(weight), _input(bias)
    out, bw = engine.dense(x.values, weight.values, bias.values, relu, norm)
    inputs = (x, weight, bias)
    if norm is not None:
        inputs += (_input(norm.params.gamma), _input(norm.params.beta))
    return recorded("dense", inputs, out,
                    lambda g: bw(g, need_dx=x.requires_grad))


def batch_norm(x, groups: int, gamma, beta, eps: float,
               stats: Optional[tuple] = None) -> Tensor:
    x, gamma, beta = _input(x), _input(gamma), _input(beta)
    out, bw, _ = engine.batch_norm(x.values, groups, gamma.values,
                                   beta.values, eps, stats)
    return recorded("batch_norm", (x, gamma, beta), out,
                    lambda g: bw(g, need_dx=x.requires_grad))


def normalized_mse(p, z) -> tuple:
    """``(loss, terms)``, as :func:`m2t.engine.normalized_mse` gives them."""
    p = _input(p)
    loss, bw, terms, zero_rows = engine.normalized_mse(
        p.values, np.asarray(z, dtype=np.float64))
    return recorded("normalized_mse", (p,), loss, lambda g: (bw(g),),
                    zero_rows), terms


def info_nce(q, k_hat, negs, temperature: float) -> Tensor:
    q = _input(q)
    loss, bw, zero_rows = engine.info_nce(q.values, k_hat, negs, temperature)
    return recorded("info_nce", (q,), loss, lambda g: (bw(g),), zero_rows)


def cross_entropy(logits, labels) -> Tensor:
    logits = _input(logits)
    loss, bw = engine.cross_entropy(logits.values, labels)
    return recorded("cross_entropy", (logits,), loss, lambda g: (bw(g),))


def spy_backwards(monkeypatch, *names: str) -> tuple:
    """Wrap the program's ops ``names`` of :mod:`m2t.engine` so that each
    backward they return logs its op's name when it runs. Returns ``(ran,
    made)``: the names of the backwards run, in order, and a weak
    reference to every backward returned."""
    ran, made = [], []

    def spying(name, op):
        def spy(*args, **kwargs):
            out, backward, *rest = op(*args, **kwargs)

            def logged(*grad_args, **grad_kwargs):
                ran.append(name)
                return backward(*grad_args, **grad_kwargs)

            made.append(weakref.ref(logged))
            return (out, logged, *rest)

        return spy

    for name in names:
        monkeypatch.setattr(engine, name, spying(name, getattr(engine, name)))
    return ran, made


def closure(f: Callable[[], Tensor], tensors: Sequence[Tensor]) -> Callable:
    """``f``, which records its computation on the tape, as the ``(out,
    backward)`` function :func:`m2t.engine.finite_diff_check` takes:
    ``backward(w)`` runs the tape seeded with ``w`` and gives each of
    ``tensors``' gradients."""
    def run() -> tuple:
        for t in tensors:
            t.zero_grad()
        with record():
            out = f()

        def grads(w):
            if out._tape is not None:
                backward(out, seed=w)
            return [t.grad for t in tensors]

        return out.values, grads

    return run


def check_case(f: Callable[[], Tensor], named: Sequence[tuple]) -> tuple:
    """The ``(f, params)`` case of :func:`m2t.engine.finite_diff_check` for a
    function recorded on the tape and its named parameter tensors."""
    return closure(f, [t for _, t in named]), [(n, t.values) for n, t in named]


# ---------------------------------------------------------------------------
# binary elementwise ops (``add`` is above)


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
    _check_matmul(a.values, b.values)
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
# a list of ``(f, params)`` cases for :func:`m2t.engine.finite_diff_check`
# (:func:`check_case`), which weighs the op's output with its own fixed
# upstream gradient.


def _case_binary(op):
    # y stays positive and away from zero, as div's denominator.
    def build(rng):
        x = parameter(rng.uniform(-2, 2, size=(3, 4)))
        y = parameter(rng.uniform(0.2, 2.0, size=(3, 4)))
        return [check_case(lambda: op(x, y), [("x", x), ("y", y)])]
    return build


def _case_unary(op, positive=False):
    def build(rng):
        lo, hi = (0.2, 2.0) if positive else (-2.0, 2.0)
        x = parameter(rng.uniform(lo, hi, size=(3, 4)))
        return [check_case(lambda: op(x), [("x", x)])]
    return build


def _case_matmul(rng):
    a = parameter(rng.uniform(-2, 2, size=(3, 4)))
    b = parameter(rng.uniform(-2, 2, size=(4, 2)))
    return [check_case(lambda: matmul(a, b), [("a", a), ("b", b)])]


def _case_reduce(op):
    # Over all entries or along either axis, drawn per trial.
    def build(rng):
        x = parameter(rng.uniform(-2, 2, size=(4, 3)))
        axis = (None, 0, 1)[rng.integers(0, 3)]
        return [check_case(lambda: op(x, axis=axis), [("x", x)])]
    return build


def _case_gather_rows(rng):
    # Repeated and skipped rows: the backward scatter-adds.
    x = parameter(rng.uniform(-2, 2, size=(4, 3)))
    index = rng.integers(0, 4, size=6)
    return [check_case(lambda: gather_rows(x, index), [("x", x)])]


SUITES = {
    "add": _case_binary(add),
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
