"""Fused float64 ops, each returning its output and its backward.

The engine is deliberately small: 2-D arrays of rows, or a ``(V, B, C)``
stack of views, and the five fused ops a run executes. An MLP layer is one
op, :func:`dense` (matmul, bias, optional BN, optional ReLU);
:func:`batch_norm` is BN alone (the linear probe's), returning its
statistics too. Both run the same BN arithmetic. Each loss is one op too:
:func:`normalized_mse`, :func:`info_nce` and :func:`cross_entropy`.
:func:`dense` and :func:`normalized_mse` also take a stack of views, the
views on the leading axis, and equal one call per view bit for bit. The
generic ops the fused ones stand for (matmul, add, mean, var, sqrt, exp,
log and the rest), and the reverse-mode tape that composes them, are not
part of the program; they live in the tests as the oracle that the fused
ops equal bit for bit.
Everything is double precision so that gradient checks and
statistics-equivalence tests have numerical headroom.

Each op takes arrays and returns ``(out, backward)``: ``backward`` is a
closure over what the forward kept, mapping the output's gradient to the
gradients of the op's inputs. Only the student back-propagates, and its
pass is a fixed chain in which each activation is consumed once, so the
caller runs the closures in reverse (:func:`m2t.model.forward_mlp`) and
hands each input gradient straight to the op below. A forward-only caller
(the teacher, inference) drops them. Nothing is recorded anywhere: a
pass's activations live exactly as long as its closures.

The losses also return the zero-norm rows :func:`unit_rows` met, for the
run that owns them to count: the engine keeps no counter, so runs share
none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np


class DimensionError(ValueError):
    """Shapes are incompatible for the requested operation."""


class Tensor:
    """One parameter block: its float64 ``values`` and ``grad``, the array
    a backward adds the block's gradient into (None until a
    :class:`m2t.model.Arena` binds it to a view of its gradient vector)."""

    __slots__ = ("values", "grad")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size


def _relu_grad_mask(values: np.ndarray) -> np.ndarray:
    # Subgradient convention: exactly-zero inputs pass no gradient. A bool
    # mask multiplies as 1.0/0.0 without a float copy of it.
    return values > 0.0


def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim not in (2, 3) or b.ndim != 2:
        raise DimensionError(
            f"matmul expects a 2-D or stacked 3-D input and a 2-D weight, "
            f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")


def _sum_views(per_view: np.ndarray, stacked: bool) -> np.ndarray:
    """A parameter gradient of a pass over stacked views, given per view on
    the leading axis, summed across the views last view first: the order in
    which one call per view, run backward in reverse, adds its gradient
    into the parameter's (the last call's comes first). One unstacked
    view's is returned as is."""
    return np.add.reduce(per_view[::-1], axis=0) if stacked else per_view


# ---------------------------------------------------------------------------
# batch normalization


def _bn(x: np.ndarray, groups: int, gamma: np.ndarray, beta: np.ndarray,
        eps: float, stats: Optional[tuple], owned: bool = False) -> tuple:
    """The BN arithmetic of :func:`batch_norm` and :func:`dense` on a (B, C)
    array or a (V, B, C) stack of views: ``(out, backward, (mean, var))``,
    with ``backward(g, need_dx=True, owned=False)`` giving ``(dx or None,
    dgamma, dbeta)`` and ``(mean, var)`` the statistics it normalized with.

    Each view splits into ``groups`` equal row groups, so a stack has V x
    ``groups`` of them and no group straddles two views. Each elementwise
    pass keeps the composed ops' expression and operand order, so it rounds
    the same, but writes into a buffer the op owns. The centred rows are
    normalized in place into ``xhat``, which the backward keeps, and the
    output reuses the squared deviations. ``x`` is centred in place only
    when ``owned`` (:func:`dense`'s own pre-BN buffer); otherwise it is
    never written. Likewise the backward scales ``g`` in place and writes
    ``dx`` over it only when ``owned``; otherwise ``dx`` goes into a scaled
    copy. dgamma and dbeta are summed per view, then across views
    (:func:`_sum_views`)."""
    shape, stacked = x.shape, x.ndim == 3
    b, c = shape[-2:]
    if groups < 1 or b == 0 or b % groups != 0:
        raise DimensionError(
            f"{b} rows do not split into {groups} equal groups")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"channel mismatch: x has {c}, gamma {gamma.shape}, "
            f"beta {beta.shape}")
    n = b // groups
    x3 = x.reshape(-1, n, c)
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
        if mu.shape != var.shape or mu.shape not in ((c,), (len(x3), c)):
            raise DimensionError(
                f"stats of shapes {mu.shape}/{var.shape} for {len(x3)} groups "
                f"of {c} channels")
        if mu.ndim == 2:  # one row per group
            mu, var = mu[:, None], var[:, None]
        dev = np.subtract(x3, mu, out=dev)
    std = np.sqrt(var + eps)
    xhat = np.divide(dev, std, out=dev)
    out = np.multiply(gamma, xhat, out=out)
    out += beta

    def backward(g: np.ndarray, need_dx: bool = True,
                 owned: bool = False) -> tuple:
        g3 = g.reshape(xhat.shape)
        # One scratch array holds g * xhat, then g_hat * xhat, then
        # xhat * mean(g_hat * xhat).
        prod = np.multiply(g3, xhat)
        dgamma = _sum_views(np.add.reduce(prod.reshape(shape), axis=-2),
                            stacked)
        dbeta = _sum_views(np.add.reduce(g, axis=-2), stacked)
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
        return dx.reshape(shape), dgamma, dbeta

    return out.reshape(shape), backward, (
        (mu[:, 0], var[:, 0]) if stats is None else stats)


def batch_norm(x: np.ndarray, groups: int, gamma: np.ndarray,
               beta: np.ndarray, eps: float,
               stats: Optional[tuple] = None) -> tuple:
    """gamma * (x - mean) / sqrt(var + eps) + beta over equal row groups.

    The (B, C) batch splits into ``groups`` contiguous blocks, each
    normalized with its own mean and biased variance (the numpy operations
    of the composed ``mean`` and ``var``, so results match the composed ops
    bit for bit) or with the given constants ``stats = (mean, var)``: one
    per channel, shape (C,), or one row per group, shape (groups, C).
    Returns ``(out, backward, (mean, var))``, the statistics it normalized
    with: the given ones, or one row per group. ``backward(g,
    need_dx=True)`` gives ``(dx or None, dgamma, dbeta)`` in closed form:
    with inv = 1/sqrt(var + eps) and g_hat = g * gamma, dx = inv * (g_hat -
    mean(g_hat) - xhat * mean(g_hat * xhat)) per group, or inv * g_hat for
    given stats. Neither ``x`` nor the upstream gradient is written.
    """
    if x.ndim != 2:
        raise DimensionError(
            f"batch_norm expects batch x channels, got shape {x.shape}")
    return _bn(x, groups, gamma, beta, eps, stats)


# ---------------------------------------------------------------------------
# fused MLP layer


@dataclass(frozen=True)
class BNSpec:
    """How :func:`dense` batch-normalizes its layer.

    ``params`` holds the affine ``gamma``/``beta`` parameter tensors and
    ``eps`` (a :class:`m2t.normalization.NormParams`). The rows of each
    view split into ``groups`` equal blocks normalized with their own
    statistics, as in :func:`batch_norm`, unless ``stats`` gives ``(mean,
    var)`` constants, per channel or one row per group of every view (V x
    ``groups`` rows, view by view). ``stats`` may also be a function of the
    pre-BN activations (rows in their original order, every view) that
    returns such a pair, or None for batch statistics, and may record them
    on the way. It must not keep the array it is passed without copying
    it: :func:`dense` normalizes in that buffer next. ``perm``, of length
    the rows per view, reorders each view's rows before BN (``x[perm]``, a
    row gather) and the original order is restored after it.
    """

    params: Any
    groups: int = 1
    stats: Union[None, tuple, Callable[[np.ndarray], Optional[tuple]]] = None
    perm: Optional[np.ndarray] = None


def dense(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, relu: bool,
          norm: Optional[BNSpec] = None) -> tuple:
    """One MLP layer, ``relu(bn(x @ weight + bias))``: ``(out, backward)``.

    BN runs when ``norm`` is given and ReLU when ``relu`` is set. Forward
    and backward are the numpy expressions of the composed ``matmul``,
    ``add``, :func:`batch_norm` (with row gathers around it under ``perm``)
    and ``relu``, in that order, so the output and every gradient equal
    those of the composed ops bit for bit. ``backward(g, need_dx=True)``
    gives ``(dx or None, dweight, dbias)``, followed by ``(dgamma, dbeta)``
    under BN; a first layer's input is data, and its caller asks for no
    ``dx``. BN normalizes in the layer's own pre-BN buffer, and the
    backward scales only gradients it copied itself, so no input, no
    upstream gradient and no given statistic is written.

    ``x`` is (B, C) rows of one view or a (V, B, C) stack of views, and a
    stack equals one call per view bit for bit: ``np.matmul`` runs one
    product per view (one product over the stacked rows can round
    differently), and the parameter gradients are per-view sums, added as
    the backwards of separate calls would add them (:func:`_sum_views`).
    Bias, BN and ReLU run once over every view; BN normalizes each view
    apart.
    """
    _check_matmul(x, weight)
    stacked = x.ndim == 3
    h = np.matmul(x, weight)
    h += bias
    bn_backward = perm = None
    if norm is not None:
        p, perm = norm.params, norm.perm
        if perm is not None and perm.shape != (h.shape[-2],):
            raise DimensionError(
                f"row permutation of shape {perm.shape} for {h.shape[-2]} "
                f"rows per view")
        stats = norm.stats(h) if callable(norm.stats) else norm.stats
        if perm is not None:
            h = h.take(perm, axis=-2)
        # h is this op's own buffer (the matmul's or the gather's), so BN
        # may normalize in it.
        h, bn_backward, _ = _bn(h, norm.groups, p.gamma.values,
                                p.beta.values, p.eps, stats, owned=True)
        if perm is not None:
            inv = np.argsort(perm)
            h = h.take(inv, axis=-2)
    if relu:
        np.maximum(h, 0.0, out=h)

    def backward(g: np.ndarray, need_dx: bool = True) -> tuple:
        # g is the caller's until the mask or the gather gives a fresh copy,
        # which the BN backward may then scale in place.
        owned = relu or perm is not None
        if relu:
            g = g * _relu_grad_mask(h)
        bn_grads = ()
        if bn_backward is not None:
            if perm is not None:
                g = g.take(perm, axis=-2)
            g, dgamma, dbeta = bn_backward(g, True, owned)
            if perm is not None:
                g = g.take(inv, axis=-2)
            bn_grads = (dgamma, dbeta)
        dx = np.matmul(g, weight.T) if need_dx else None
        dw = np.matmul(x.swapaxes(-1, -2), g)
        return (dx, _sum_views(dw, stacked),
                _sum_views(np.add.reduce(g, axis=-2), stacked)) + bn_grads

    return h, backward


# ---------------------------------------------------------------------------
# fused losses
#
# Each loss returns its value and a backward that maps the loss's gradient
# to its one differentiable input's. The forward runs the numpy expressions
# of the composed ops it stands for, in their order, and the backward
# replays their backward expressions in reverse order, so the value and the
# input's gradient equal the composed ops' bit for bit when the loss is its
# input's only consumer (as in every loss here). The composed backward adds
# each intermediate's first gradient to fresh zeros, which can only turn a
# -0 into +0. That step is left out, here and along the chain the gradient
# then takes: no expression divides by a gradient, so the sign of a zero
# cannot reach a nonzero value, and each parameter gradient is added into
# a zeroed arena view at the end.

#: Row norms are sqrt(|x|^2 + NORM_GUARD^2): rows of ordinary magnitude
#: normalize exactly in double precision, zero rows map to zero vectors
#: with finite gradients.
NORM_GUARD = 1e-12
_GUARD_SQ = NORM_GUARD * NORM_GUARD


def unit_rows(x: np.ndarray) -> tuple:
    """``(x / r, r, zero_rows)`` for a 2-D array or a stack of them: its
    guarded row norms ``r`` (a column, the last axis kept) and the count of
    its zero rows."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    r = np.sqrt(sq + _GUARD_SQ)
    with np.errstate(divide="ignore", invalid="ignore"):
        return x / r, r, int(np.count_nonzero(sq == 0.0))


def _unit_rows_grad(g_hat: np.ndarray, x: np.ndarray,
                    r: np.ndarray) -> np.ndarray:
    """Gradient for ``x`` of :func:`unit_rows`, given the unit rows'
    accumulated gradient: the backward of ``x / sqrt(sum(x * x) + guard)``
    (div, sqrt, add, sum, then mul)."""
    g_r = (-g_hat * x / (r * r)).sum(axis=-1, keepdims=True)
    t = g_r / (2.0 * r) * x
    return (g_hat / r + t) + t


def normalized_mse(p: np.ndarray, z: np.ndarray) -> tuple:
    """BYOL's loss: the batch mean of ``|p_hat - z_hat|^2 = 2 - 2 cos(p, z)``
    over unit rows (:func:`unit_rows`) of the prediction ``p`` and the
    target ``z``, which is a gradient constant. Equals ``mean(sum(d * d,
    axis=1))`` with ``d`` built from mul, sum, add, sqrt, div and sub.

    ``p`` and ``z`` are (B, C) rows of one view or a (V, B, C) stack of
    views, each row of ``p`` paired with the same row of ``z``. Returns
    ``(loss, backward, terms, zero_rows)``: ``terms`` holds each view's
    mean and ``loss`` is their sum, equal in value and gradient to one call
    per view summed with the composed ``add``, bit for bit;
    ``backward(g)`` gives the gradient for ``p``; ``zero_rows`` counts the
    zero rows of ``p`` and ``z``."""
    p_hat, r, zero_p = unit_rows(p)
    z_hat, _, zero_z = unit_rows(z)
    d = p_hat - z_hat
    rows = (d * d).sum(axis=-1)
    n = rows.shape[-1]
    terms = tuple(np.asarray(m) for m in rows.reshape(-1, n).mean(axis=1))

    def backward(g):
        if len(terms) > 1:
            g = g + 0.0  # add's backward, then 0.0 + g into each term
        t = g / n * d                                   # mean; sum
        return _unit_rows_grad(t + t, p, r)             # mul; sub

    total = terms[0]
    for term in terms[1:]:
        total = total + term                            # add
    return np.asarray(total), backward, terms, zero_p + zero_z


def info_nce(q: np.ndarray, k_hat: np.ndarray, negs: np.ndarray,
             temperature: float) -> tuple:
    """InfoNCE: the batch mean of ``log(exp(l_pos / t) + sum(exp(l_neg / t)))
    - l_pos / t`` with cosine logits ``l_pos = <q_hat, k_hat>`` against the
    unit positive keys ``k_hat`` and ``l_neg = q_hat @ negs.T`` against the
    unit negative rows ``negs`` (none when it has no rows). The logits are
    bounded by 1/t, so the softmax needs no max-shift in double precision.
    Returns ``(loss, backward, zero_rows)``: ``backward(g)`` gives the
    gradient for ``q``, the only input that gets one, and ``zero_rows``
    counts the zero rows of ``q``."""
    q_hat, r, zero_rows = unit_rows(q)
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

    def backward(g):
        g_diff = g / n                                  # mean
        g_lpos = -g_diff / temperature                  # sub; div
        g_denom = g_diff / denom                        # log
        g_lpos = g_lpos + g_denom * exp_pos / temperature  # exp; div
        g_q_hat = g_lpos * k_hat                        # sum; mul
        if len(negs):                                   # sum; exp; div; matmul
            g_q_hat = g_denom * e_neg / temperature @ negs + g_q_hat
        return _unit_rows_grad(g_q_hat, q, r)

    return np.asarray(diff.mean()), backward, zero_rows


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple:
    """Softmax cross-entropy of (N, C) ``logits`` against class ``labels``
    in [0, C), which the caller checks: the batch mean of
    ``logsumexp(logits) - logits[label]``, shifted by the row max. Returns
    ``(loss, backward)``; ``backward(g)`` gives the gradient for ``logits``.
    Equals the composed sub, exp, sum, log, mul, sum, sub and mean against
    one-hot rows, but reads the true-class logit by index (the one-hot
    product only added +-0 terms), so a -inf logit of another class gives a
    finite loss where ``-inf * 0`` gave NaN, and the same gradient."""
    n, c = logits.shape
    at_label = np.arange(0, n * c, c) + labels  # flat index of each label
    # A max is exact in any order: reduce a class-major copy on its outer axis.
    shifted = logits - np.maximum.reduce(logits.T.copy(), axis=0)[:, None]
    e = np.exp(shifted)
    sum_e = e.sum(axis=1, keepdims=True)  # >= 1 (the max's term) or NaN
    diff = np.log(sum_e) - shifted.take(at_label)[:, None]

    def backward(g):
        g_diff = g / n                                  # mean
        grad = g_diff / sum_e * e                       # log; sum; exp
        grad.reshape(-1)[at_label] -= g_diff            # sub; sum; mul
        return grad

    # np.add.reduce(diff, axis=None) / n is the arithmetic of diff.mean().
    return np.asarray(np.add.reduce(diff, axis=None) / n), backward


# ---------------------------------------------------------------------------
# gradient oracle


@dataclass
class GradCheckReport:
    """Per-block maximum relative error of a backward vs central
    differences."""

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
        return self.passes(self.max_rel_error, self.tol)

    @staticmethod
    def passes(error: float, tol: float) -> bool:
        """The gradient gate's pass rule: a relative error that is finite
        and at most ``tol``."""
        return bool(np.isfinite(error) and error <= tol)


def finite_diff_check(f: Callable[[], tuple],
                      params: Sequence[tuple[str, np.ndarray]],
                      h: float = 1e-5,
                      tol: float = 1e-4) -> GradCheckReport:
    """Compare the vector-Jacobian product of a backward against central
    finite differences, elementwise, for every named parameter block.

    ``f()`` returns ``(out, backward)`` for an output of any shape, and
    ``backward(w)`` the gradient of ``sum(out * w)`` for each array of
    ``params``, in order (None for no gradient, which compares as zeros;
    ``ValueError`` if it gives another number of gradients).
    The check weighs the output with one fixed upstream gradient ``w`` of
    its shape, drawn from a fixed-seed generator (for a scalar too), and
    differences ``sum(f()[0] * w)`` in numpy. ``f`` must be deterministic
    and recompute from the arrays of ``params``, which the check perturbs
    in place. Relative error uses the denominator ``max(|analytic|,
    |numeric|, 1e-4)``: the floor makes exactly-zero gradients (e.g. biases
    canceled by a following normalization) compare absolutely at tol *
    1e-4, comfortably above the central-difference roundoff of eps * |f| /
    h. Non-finite entries are reported per block, never raised.
    """
    report = GradCheckReport(h=h, tol=tol)
    out, backward = f()
    w = np.random.default_rng(0).uniform(-2.0, 2.0, size=np.shape(out))
    grads = tuple(backward(w))
    if len(grads) != len(params):
        raise ValueError(f"backward gave {len(grads)} gradients for "
                         f"{len(params)} parameter blocks")
    analytic = [np.zeros_like(p) if g is None else np.array(g, dtype=np.float64)
                for (_, p), g in zip(params, grads)]

    def weighted() -> float:
        return float(np.sum(f()[0] * w))

    for (name, p), a in zip(params, analytic):
        flat = p.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = weighted()
            flat[i] = orig - h
            down = weighted()
            flat[i] = orig
            num[i] = (up - down) / (2.0 * h)
        a = a.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-4)
        err = np.abs(a - num) / denom
        report.per_block[name] = float(np.max(err)) if err.size else 0.0
    return report
