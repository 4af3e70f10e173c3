"""Gradient-oracle suites: backward closures vs central finite differences.

Each suite draws random inputs in [-2, 2] (shifted positive where the op's
domain demands it) and returns a list of cases, one per variant of its op,
each checked on its own: a function giving an op's output, of any shape,
and its backward, and the named arrays the backward gives gradients for.
:func:`m2t.engine.finite_diff_check` weighs the output with a fixed
upstream gradient and compares every gradient against central differences
at h=1e-5, relative tolerance 1e-4. Every public op of the engine has a
suite here (a test holds that), and so do the forms of
:func:`m2t.engine.dense` and :func:`m2t.engine.normalized_mse` over a
(V, B, C) stack of views and BN's per-group statistics. The composite
suites run a small BN MLP under the prediction loss and the full two-view
loss, which exercises the whole backward chain the trainer runs. The
composed ops that the tests use as an oracle have their own suites beside
them, in ``tests/engine_reference.py``.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import BNSpec, GradCheckReport, Tensor, finite_diff_check
from .model import MlpSpec, build_pair, forward_student, mlp_spec
from .normalization import NormParams
from .objectives import byol_loss, symmetrized_loss

DEFAULT_TRIALS = 100
DEFAULT_TOL = 1e-4
DEFAULT_H = 1e-5


def _loss_case(name: str, op, x: np.ndarray, *args) -> tuple:
    """The case of a loss ``op(x, *args)``, whose backward gives the
    gradient of its one differentiable input ``x``."""
    def f():
        loss, backward = op(x, *args)[:2]
        return loss, lambda w: (backward(w),)

    return f, [(name, x)]


def _batch_norm_inputs(rng) -> list:
    """Named ``x``, ``gamma`` and ``beta`` of an (8, 3) batch."""
    return [("x", rng.uniform(-2, 2, size=(8, 3))),
            ("gamma", rng.uniform(0.5, 2.0, size=3)),
            ("beta", rng.uniform(-2, 2, size=3))]


def _batch_norm_case(params: list, groups: int, stats) -> tuple:
    (_, x), (_, gamma), (_, beta) = params
    return (lambda: engine.batch_norm(x, groups, gamma, beta, 1e-5,
                                      stats)[:2], params)


def _case_batch_norm(rng):
    # Groups 1 and 2, each with batch and with given statistics.
    params = _batch_norm_inputs(rng)
    given = (rng.uniform(-1, 1, size=3), rng.uniform(0.5, 2.0, size=3))
    return [_batch_norm_case(params, groups, stats)
            for groups in (1, 2) for stats in (None, given)]


def _case_batch_norm_group_stats(rng):
    # Given statistics with one row per group, at 2 and 4 groups.
    params = _batch_norm_inputs(rng)
    return [_batch_norm_case(params, groups,
                             (rng.uniform(-1, 1, size=(groups, 3)),
                              rng.uniform(0.5, 2.0, size=(groups, 3))))
            for groups in (2, 4)]


def _dense_cases(rng, x_shape: tuple, given: tuple) -> list:
    """Each BN variant of the fused layer, each with and without ReLU, on
    an input of ``x_shape`` (8 rows per view) to a 4-wide layer: none,
    batch statistics over 1 and 2 groups per view, the ``given`` statistics,
    and a statistics function with a row permutation of each view."""
    x = rng.uniform(-2, 2, size=x_shape)
    weight = rng.uniform(-2, 2, size=(3, 4))
    bias = rng.uniform(-2, 2, size=4)
    p = NormParams(gamma=Tensor(rng.uniform(0.5, 2.0, size=4)),
                   beta=Tensor(rng.uniform(-2, 2, size=4)))
    norms = (None, BNSpec(p, 1), BNSpec(p, 2), BNSpec(p, 1, given),
             BNSpec(p, 2, lambda h: None, rng.permutation(8)))
    params = [("x", x), ("weight", weight), ("bias", bias),
              ("gamma", p.gamma.values), ("beta", p.beta.values)]

    def case(norm, relu) -> tuple:
        return (lambda: engine.dense(x, weight, bias, relu, norm),
                params if norm is not None else params[:3])

    return [case(norm, relu) for norm in norms for relu in (False, True)]


def _case_dense(rng):
    # Given statistics per channel.
    given = (rng.uniform(-1, 1, size=4), rng.uniform(0.5, 2.0, size=4))
    return _dense_cases(rng, (8, 3), given)


def _case_dense_views(rng):
    # A stack of two 8-row views; given statistics per view.
    given = (rng.uniform(-1, 1, size=(2, 4)),
             rng.uniform(0.5, 2.0, size=(2, 4)))
    return _dense_cases(rng, (2, 8, 3), given)


def _case_normalized_mse(rng):
    # One view, and a stack of two views in one loss.
    return [_loss_case("p", engine.normalized_mse,
                       rng.uniform(-2, 2, size=shape),
                       rng.uniform(-2, 2, size=shape))
            for shape in ((6, 3), (2, 3, 3))]


def _case_info_nce(rng):
    # With negatives and with none (an empty queue).
    q = rng.uniform(-2, 2, size=(5, 3))
    k_hat = engine.unit_rows(rng.uniform(-2, 2, size=(5, 3)))[0]
    negs = engine.unit_rows(rng.uniform(-2, 2, size=(7, 3)))[0]
    return [_loss_case("q", engine.info_nce, q, k_hat, rows, 0.5)
            for rows in (negs, negs[:0])]


def _case_cross_entropy(rng):
    logits = rng.uniform(-2, 2, size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    return [_loss_case("logits", engine.cross_entropy, logits, labels)]


def _randomize_student(pair, rng):
    # Perturb every block (biases and BN affines included) away from the
    # symmetric init: keeps the check off measure-zero kinks such as
    # all-zero prediction rows, and exercises every gradient path.
    for _, t, _ in pair.student_params():
        t.values += 0.3 * rng.standard_normal(t.values.shape)


def _student_case(pair, loss_fn) -> list:
    """The case of a loss of the student's parameters: ``loss_fn()`` gives
    ``(loss, backward)``, and ``backward(g)`` adds the student's gradients
    into the zeroed student arena."""
    def f():
        loss, backward = loss_fn()

        def grads(w):
            pair.student.zero_grads()
            backward(w)
            return [p.tensor.grad for p in pair.student.params]

        return loss, grads

    return [(f, [(p.name, p.tensor.values) for p in pair.student.params])]


def _case_byol_mlp(rng):
    spec = MlpSpec(widths=(3, 4, 2), bn=(True, False), relu=(True, False))
    pair = build_pair(spec, mlp_spec((2, 3, 2)), mlp_spec((2, 2, 2)), rng)
    _randomize_student(pair, rng)
    batch = rng.uniform(-2, 2, size=(6, 3))
    target = rng.uniform(-2, 2, size=(6, 2))

    def loss():
        _, p, student_backward = forward_student(pair, batch, 2)
        value, loss_backward = byol_loss(p, target)[:2]
        return value, lambda g: student_backward(loss_backward(g))

    return _student_case(pair, loss)


def _case_symmetrized(rng):
    spec = MlpSpec(widths=(3, 4, 4), bn=(True, True), relu=(True, True))
    pair = build_pair(spec, mlp_spec((4, 4, 3)), mlp_spec((3, 3, 3)), rng)
    _randomize_student(pair, rng)
    v1 = rng.uniform(-2, 2, size=(6, 3))
    v2 = rng.uniform(-2, 2, size=(6, 3))

    def loss():
        lv = symmetrized_loss(pair, v1, v2, 2, alpha=1.0)
        return lv.loss, lv.backward

    return _student_case(pair, loss)


SUITES = {
    "batch_norm": _case_batch_norm,
    "batch_norm_group_stats": _case_batch_norm_group_stats,
    "dense": _case_dense,
    "dense_views": _case_dense_views,
    "normalized_mse": _case_normalized_mse,
    "info_nce": _case_info_nce,
    "cross_entropy": _case_cross_entropy,
    "byol_mlp": _case_byol_mlp,
    "symmetrized_loss": _case_symmetrized,
}

# The composite suites cost more per trial; fewer draws keep the gate quick
# without losing coverage of the full backward path.
_COMPOSITE_TRIALS = {"byol_mlp": 10, "symmetrized_loss": 5}


def run_suite(build, trials: int = DEFAULT_TRIALS, h: float = DEFAULT_H,
              tol: float = DEFAULT_TOL, seed: int = 0) -> float:
    """Worst relative error over all trials and cases of one suite:
    ``build(rng)`` returns a list of ``(f, params)`` cases for
    :func:`m2t.engine.finite_diff_check`, each checked on its own."""
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        for f, params in build(rng):
            err = finite_diff_check(f, params, h=h, tol=tol).max_rel_error
            if not np.isfinite(err):
                return float("nan")
            worst = max(worst, err)
    return worst


def run_all(trials: int = DEFAULT_TRIALS, h: float = DEFAULT_H,
            tol: float = DEFAULT_TOL, seed: int = 0) -> dict:
    """All suites; returns {name: worst_error} plus a 'passed' flag entry."""
    results = {}
    for name, build in SUITES.items():
        n = min(trials, _COMPOSITE_TRIALS.get(name, trials))
        results[name] = run_suite(build, trials=n, h=h, tol=tol, seed=seed)
    results["passed"] = all(GradCheckReport.passes(worst, tol)
                            for worst in results.values())
    return results
