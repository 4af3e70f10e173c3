"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: 2-D (and 1-D / scalar) arrays, a recording
tape, and six ops: the five fused ones a run records and :func:`add`, which
the gradient checks sum their variants with. An MLP layer is one fused op,
:func:`dense` (matmul, bias, optional BN, optional ReLU); :func:`batch_norm`
is BN alone (the linear probe's). Both run the same BN arithmetic. Each loss
is one fused op too: :func:`normalized_mse`, :func:`info_nce` and
:func:`cross_entropy`. :func:`dense` and :func:`normalized_mse` also run
over several stacked views at once, equal to one call per view bit for
bit. The generic ops the fused ones stand for (matmul, mean, var, sqrt,
exp, log and the rest) are not part of the program; they live in the
tests as the oracle that the fused ops equal bit for bit. Everything is
double precision so that gradient checks and statistics-equivalence
tests have numerical headroom.

Gradients are recorded on an explicit :class:`Tape`. Operations record
themselves only while a tape is active (see :func:`record`) and only when at
least one input participates in gradients; everything else evaluates to a
constant. Backward replays the tape in reverse recording order, accumulating
gradients additively, so reusing a tensor twice yields the sum of per-use
gradients. It then drops the tape's entries, so a finished iteration is
freed by reference counting alone; a tape is swept once.

The tape also counts the zero-norm rows :func:`unit_rows` meets, for the
run that owns it: the engine keeps no counter, so runs share none.

:func:`add` broadcasts by numpy's right-aligned rule restricted to
singleton expansion: shapes are aligned on their trailing axes and an axis
may differ between operands only when one side is 1 (or absent). The
matching backward pass sums gradients over the expanded axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np


class DimensionError(ValueError):
    """Shapes are incompatible for the requested operation."""


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
    zero-norm rows :func:`unit_rows` met while it was active."""

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
# add, and the checks and masks the fused ops share


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out = a.values + b.values

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit("add", (a, b), out, bw)


def _relu_grad_mask(values: np.ndarray) -> np.ndarray:
    # Subgradient convention: exactly-zero inputs pass no gradient. A bool
    # mask multiplies as 1.0/0.0 without a float copy of it.
    return values > 0.0


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# batch normalization


def _view_blocks(rows: int, views: int) -> list:
    """The row slices of ``views`` equal, contiguous views of ``rows`` rows;
    ``DimensionError`` unless they split evenly."""
    if views < 1 or rows % views != 0:
        raise DimensionError(
            f"{rows} rows do not split into {views} equal views")
    n = rows // views
    return [slice(i * n, (i + 1) * n) for i in range(views)]


# Over stacked views, every product runs per view block (BLAS picks its
# kernel by row count, so one product over the stacked rows can round
# differently), and every gradient that sums over rows is summed per view,
# then across views last view first: the order in which the tape added the
# gradients of one call per view (the last call's reached the zeroed input
# first).


def _matmul_views(a: np.ndarray, b: np.ndarray, views: int) -> np.ndarray:
    """``a @ b``, one product per view block of ``a``'s rows."""
    if views == 1:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    for rows in _view_blocks(a.shape[0], views):
        np.matmul(a[rows], b, out=out[rows])
    return out


def _gram_views(a: np.ndarray, g: np.ndarray, views: int) -> np.ndarray:
    """``a.T @ g`` summed over the view blocks of the rows."""
    if views == 1:
        return a.T @ g
    blocks = _view_blocks(a.shape[0], views)
    total = a[blocks[-1]].T @ g[blocks[-1]]
    for rows in blocks[-2::-1]:
        total += a[rows].T @ g[rows]
    return total


def _colsum_views(a: np.ndarray, views: int) -> np.ndarray:
    """``a.sum(axis=0)`` summed over the view blocks of the rows (as
    ``np.add.reduce``, the sum without its wrapper)."""
    if views == 1:
        return np.add.reduce(a, axis=0)
    blocks = _view_blocks(a.shape[0], views)
    total = np.add.reduce(a[blocks[-1]], axis=0)
    for rows in blocks[-2::-1]:
        total += np.add.reduce(a[rows], axis=0)
    return total


def _bn(x: np.ndarray, groups: int, gamma: np.ndarray, beta: np.ndarray,
        eps: float, stats: Optional[tuple], owned: bool = False,
        views: int = 1) -> tuple:
    """The BN arithmetic of :func:`batch_norm` and :func:`dense` on a (B, C)
    array: ``(out, backward)``, with ``backward(g, need_dx, owned=False)``
    giving ``(dx or None, dgamma, dbeta)``.

    Each elementwise pass keeps the composed ops' expression and operand
    order, so it rounds the same, but writes into a buffer the op owns. The
    centred rows are normalized in place into ``xhat``, which the backward
    keeps, and the output reuses the squared deviations. ``x`` is centred
    in place only when ``owned`` (:func:`dense`'s own pre-BN buffer);
    otherwise it is never written. Likewise the backward scales ``g`` in
    place and writes ``dx`` over it only when ``owned``; otherwise ``dx``
    goes into a scaled copy. The rows are ``views`` stacked views, each
    a whole number of groups, and dgamma and dbeta are summed per view and
    then across views (:func:`_colsum_views`)."""
    b, c = x.shape
    if groups < 1 or b == 0 or b % groups != 0:
        raise DimensionError(
            f"{b} rows do not split into {groups} equal groups")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"channel mismatch: x has {c}, gamma {gamma.shape}, "
            f"beta {beta.shape}")
    if groups % views != 0:
        raise DimensionError(
            f"{groups} groups do not split into {views} equal views")
    n = b // groups
    x3 = x.reshape(groups, n, c)
    dev = x3 if owned else None
    out = None
    # np.add.reduce(a, axis) / n is the arithmetic of a.mean(axis), without
    # the wrapper's Python overhead.
    if stats is None:
        mu = np.add.reduce(x3, axis=1, keepdims=True) / n
        dev = np.subtract(x3, mu, out=dev)
        out = np.multiply(dev, dev)
        var = np.add.reduce(out, axis=1, keepdims=True) / n
    else:
        mu, var = (np.asarray(s, dtype=np.float64) for s in stats)
        if mu.shape != var.shape or mu.shape not in ((c,), (groups, c)):
            raise DimensionError(
                f"stats of shapes {mu.shape}/{var.shape} for {groups} groups "
                f"of {c} channels")
        if mu.ndim == 2:  # one row per group
            mu, var = mu[:, None], var[:, None]
        dev = np.subtract(x3, mu, out=dev)
    std = np.sqrt(var + eps)
    xhat = np.divide(dev, std, out=dev)
    out = np.multiply(gamma, xhat, out=out)
    out += beta

    def backward(g: np.ndarray, need_dx: bool, owned: bool = False) -> tuple:
        g3 = g.reshape(groups, n, c)
        # One scratch array holds g * xhat, then g_hat * xhat, then
        # xhat * mean(g_hat * xhat).
        prod = np.multiply(g3, xhat)
        dgamma = _colsum_views(prod.reshape(b, c), views)
        dbeta = _colsum_views(g, views)
        if not need_dx:
            return None, dgamma, dbeta
        g_hat = np.multiply(g3, gamma, out=g3 if owned else None)
        if stats is None:
            mean_g = np.add.reduce(g_hat, axis=1, keepdims=True) / n
            mean_gx = np.add.reduce(np.multiply(g_hat, xhat, out=prod),
                                    axis=1, keepdims=True) / n
            g_hat -= mean_g
            g_hat -= np.multiply(xhat, mean_gx, out=prod)
        dx = np.multiply(1.0 / std, g_hat, out=g_hat)
        return dx.reshape(b, c), dgamma, dbeta

    return out.reshape(b, c), backward


def batch_norm(x, groups: int, gamma, beta, eps: float,
               stats: Optional[tuple] = None) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta over equal row groups.

    The (B, C) batch splits into ``groups`` contiguous blocks, each
    normalized with its own mean and biased variance (the numpy operations
    of the composed ``mean`` and ``var``, so results match the composed ops
    bit for bit) or with the given constants ``stats = (mean, var)``: one
    per channel, shape (C,), or one row per group, shape (groups, C).
    One tape entry with the closed-form backward: with inv = 1/sqrt(var +
    eps) and g_hat = g * gamma, dx = inv * (g_hat - mean(g_hat) - xhat *
    mean(g_hat * xhat)) per group, or inv * g_hat for given stats. Neither
    ``x`` nor the upstream gradient is written.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.values.ndim != 2:
        raise DimensionError(
            f"batch_norm expects batch x channels, got shape {x.shape}")
    out, bn_backward = _bn(x.values, groups, gamma.values, beta.values, eps,
                           stats)
    return _emit("batch_norm", (x, gamma, beta), out,
                 lambda g: bn_backward(g, x.requires_grad))


# ---------------------------------------------------------------------------
# fused MLP layer


@dataclass(frozen=True)
class BNSpec:
    """How :func:`dense` batch-normalizes its layer.

    ``params`` holds the affine ``gamma``/``beta`` tensors and ``eps`` (a
    :class:`m2t.normalization.NormParams`). The rows split into ``groups``
    equal blocks normalized with their own statistics, as in
    :func:`batch_norm`, unless ``stats`` gives ``(mean, var)`` constants,
    per channel or one row per group. Groups count across the stacked
    views of a multi-view :func:`dense`: each view is a whole number of
    them. ``stats`` may also be a function of the pre-BN activations (rows
    in their original order, every view) that returns such a pair, or None
    for batch statistics, and may record them on the way. It must not keep
    the array it is passed without copying it: :func:`dense` normalizes in
    that buffer next. ``perm`` reorders the rows before BN (``x[perm]``, a
    row gather) and the original order is restored after it.
    """

    params: Any
    groups: int = 1
    stats: Union[None, tuple, Callable[[np.ndarray], Optional[tuple]]] = None
    perm: Optional[np.ndarray] = None


def dense(x, weight: Tensor, bias: Tensor, relu: bool,
          norm: Optional[BNSpec] = None, views: int = 1) -> Tensor:
    """One MLP layer, ``relu(bn(x @ weight + bias))``, as one tape entry.

    BN runs when ``norm`` is given and ReLU when ``relu`` is set. Forward
    and backward are the numpy expressions of the composed ``matmul``,
    :func:`add`, :func:`batch_norm` (with row gathers around it under
    ``perm``) and ``relu``, in that order, so the output and every gradient
    equal those of the composed ops bit for bit. The backward returns no
    gradient for ``x`` when ``x`` does not require one (a first layer's
    input is data). BN normalizes in the layer's own pre-BN buffer, and
    the backward scales only gradients it copied itself, so no input, no
    upstream gradient and no given statistic is written.

    The rows of ``x`` are ``views`` stacked views of equal size, and the
    layer equals one call per view bit for bit: products run per view
    block and the parameter gradients are per-view sums, added as the tape
    adds those of separate calls. Bias, BN and ReLU run once over all
    rows; the BN groups of ``norm`` count across the views.
    """
    x = as_tensor(x)
    _check_matmul(x, weight)
    x_values, w_values = x.values, weight.values
    h = _matmul_views(x_values, w_values, views)
    h += bias.values
    inputs = (x, weight, bias)
    bn_backward = perm = None
    if norm is not None:
        p, perm = norm.params, norm.perm
        if perm is not None and perm.shape != (h.shape[0],):
            raise DimensionError(
                f"row permutation of shape {perm.shape} for {h.shape[0]} rows")
        inputs += (p.gamma, p.beta)
        stats = norm.stats(h) if callable(norm.stats) else norm.stats
        if perm is not None:
            h = h.take(perm, axis=0)
        # h is this op's own buffer (the matmul's or the gather's), so BN
        # may normalize in it.
        h, bn_backward = _bn(h, norm.groups, p.gamma.values, p.beta.values,
                             p.eps, stats, owned=True, views=views)
        if perm is not None:
            inv = np.argsort(perm)
            h = h.take(inv, axis=0)
    if relu:
        np.maximum(h, 0.0, out=h)

    def bw(g):
        # g is the tape's until the mask or the gather gives a fresh copy,
        # which the BN backward may then scale in place.
        owned = relu or perm is not None
        if relu:
            g = g * _relu_grad_mask(h)
        bn_grads = ()
        if bn_backward is not None:
            if perm is not None:
                g = g.take(perm, axis=0)
            g, dgamma, dbeta = bn_backward(g, True, owned)
            if perm is not None:
                g = g.take(inv, axis=0)
            bn_grads = (dgamma, dbeta)
        dx = _matmul_views(g, w_values.T, views) if x.requires_grad else None
        return (dx, _gram_views(x_values, g, views),
                _colsum_views(g, views)) + bn_grads

    return _emit("dense", inputs, h, bw)


# ---------------------------------------------------------------------------
# fused losses
#
# Each loss is one tape entry whose forward runs the numpy expressions of
# the composed ops it stands for, in their order, and whose backward replays
# their backward expressions in reverse tape order, so the value and the
# input's gradient equal the composed ops' bit for bit when the loss is its
# input's only consumer (as in every loss here). The composed backward adds
# each intermediate's first gradient to fresh zeros, which can only turn a
# -0 into +0. That step is left out: no expression divides by a gradient,
# so the sign of a zero cannot reach a nonzero value, and :func:`backward`
# adds the input's gradient to fresh zeros itself.

#: Row norms are sqrt(|x|^2 + NORM_GUARD^2): rows of ordinary magnitude
#: normalize exactly in double precision, zero rows map to zero vectors
#: with finite gradients.
NORM_GUARD = 1e-12
_GUARD_SQ = NORM_GUARD * NORM_GUARD


def unit_rows(x: np.ndarray) -> tuple:
    """``(x / r, r)`` for a 2-D array and its guarded row norms ``r`` (a
    column); zero rows are counted on the active tape, if there is one."""
    sq = (x * x).sum(axis=1, keepdims=True)
    tape = active_tape()
    if tape is not None:
        tape.zero_norm_rows += int(np.count_nonzero(sq == 0.0))
    r = np.sqrt(sq + _GUARD_SQ)
    with np.errstate(divide="ignore", invalid="ignore"):
        return x / r, r


def _unit_rows_grad(g_hat: np.ndarray, x: np.ndarray,
                    r: np.ndarray) -> np.ndarray:
    """Gradient for ``x`` of :func:`unit_rows`, given the unit rows'
    accumulated gradient: the backward of ``x / sqrt(sum(x * x) + guard)``
    (div, sqrt, add, sum, then mul)."""
    g_r = _unbroadcast(-g_hat * x / (r * r), r.shape)
    t = g_r / (2.0 * r) * x
    return (g_hat / r + t) + t


def normalized_mse(p, z: np.ndarray, views: int = 1):
    """BYOL's loss: the batch mean of ``|p_hat - z_hat|^2 = 2 - 2 cos(p, z)``
    over unit rows (:func:`unit_rows`) of the prediction ``p`` and the
    target ``z``, which is a gradient constant. One tape entry; equals
    ``mean(sum(d * d, axis=1))`` with ``d`` built from mul, sum, add, sqrt,
    div and sub.

    With ``views > 1`` the rows are that many stacked views of equal size,
    each row of ``p`` paired with the same row of ``z``. The loss is then
    the sum of the per-view means, still one tape entry, and the call
    returns ``(loss, terms)`` with ``terms`` the per-view means: the
    values and the gradient of one call per view summed with :func:`add`,
    bit for bit."""
    p = as_tensor(p)
    blocks = _view_blocks(p.shape[0], views)
    p_hat, r = unit_rows(p.values)
    d = p_hat - unit_rows(z)[0]
    rows = (d * d).sum(axis=1)
    terms = tuple(np.asarray(rows[b].mean()) for b in blocks)
    n = rows.size // views

    def bw(g):
        if views > 1:
            g = g + 0.0  # add's backward, then the tape's 0.0 + g per term
        t = g / n * d                                   # mean; sum
        return (_unit_rows_grad(t + t, p.values, r),)   # mul; sub

    if views == 1:
        return _emit("normalized_mse", (p,), terms[0], bw)
    total = terms[0]
    for term in terms[1:]:
        total = total + term                            # add
    return _emit("normalized_mse", (p,), np.asarray(total), bw), terms


def info_nce(q, k_hat: np.ndarray, negs: np.ndarray,
             temperature: float) -> Tensor:
    """InfoNCE: the batch mean of ``log(exp(l_pos / t) + sum(exp(l_neg / t)))
    - l_pos / t`` with cosine logits ``l_pos = <q_hat, k_hat>`` against the
    unit positive keys ``k_hat`` and ``l_neg = q_hat @ negs.T`` against the
    unit negative rows ``negs`` (none when it has no rows). Only ``q`` gets
    a gradient. The logits are bounded by 1/t, so the softmax needs no
    max-shift in double precision. One tape entry."""
    q = as_tensor(q)
    q_hat, r = unit_rows(q.values)
    l_pos = (q_hat * k_hat).sum(axis=1, keepdims=True)
    a_pos = l_pos / temperature
    exp_pos = np.exp(a_pos)
    denom = exp_pos
    if len(negs):
        e_neg = np.exp(q_hat @ negs.T / temperature)
        denom = exp_pos + e_neg.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_denom = np.log(denom)
    diff = log_denom - a_pos
    n = diff.size

    def bw(g):
        g_diff = g / n                                  # mean
        g_lpos = -g_diff / temperature                  # sub; div
        g_denom = g_diff / denom                        # log
        g_lpos = g_lpos + g_denom * exp_pos / temperature  # exp; div
        g_q_hat = g_lpos * k_hat                        # sum; mul
        if len(negs):                                   # sum; exp; div; matmul
            g_q_hat = g_denom * e_neg / temperature @ negs + g_q_hat
        return (_unit_rows_grad(g_q_hat, q.values, r),)

    return _emit("info_nce", (q,), np.asarray(diff.mean()), bw)


def cross_entropy(logits, onehot: np.ndarray) -> Tensor:
    """Softmax cross-entropy, the batch mean of ``logsumexp(logits) -
    <logits, onehot>``, shifted by the detached row max (the softmax is
    invariant to it). One tape entry; equals the composed sub, exp, sum,
    log, mul, sum, sub and mean."""
    logits = as_tensor(logits)
    onehot = np.asarray(onehot, dtype=np.float64)
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    sum_e = e.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sum_e = np.log(sum_e)
    diff = log_sum_e - (shifted * onehot).sum(axis=1, keepdims=True)
    n = diff.size

    def bw(g):
        g_diff = g / n                                  # mean
        g_true = -g_diff * onehot                       # sub; sum; mul
        return (g_true + g_diff / sum_e * e,)           # log; sum; exp

    return _emit("cross_entropy", (logits,), np.asarray(diff.mean()), bw)


# ---------------------------------------------------------------------------
# backward


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
    """Compare the autodiff vector-Jacobian product of ``f()`` against
    central finite differences, elementwise, for every named parameter
    block.

    ``f`` returns a tensor of any shape. The check weighs it with one fixed
    upstream gradient ``w`` of that shape, drawn from a fixed-seed
    generator (for a scalar too), so the autodiff side is ``backward(out,
    seed=w)`` and the numeric side differences ``sum(f() * w)`` in numpy.
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
        out = f()
    w = np.random.default_rng(0).uniform(-2.0, 2.0, size=out.shape)
    if out._tape is not None:
        backward(out, seed=w)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.values))
        for name, p in params
    }

    def weighted() -> float:
        return float(np.sum(f().values * w))

    for name, p in params:
        flat = p.values.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = weighted()
            flat[i] = orig - h
            down = weighted()
            flat[i] = orig
            num[i] = (up - down) / (2.0 * h)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-4)
        err = np.abs(a - num) / denom
        report.per_block[name] = float(np.max(err)) if err.size else 0.0
    return report
