"""Gradient-oracle suites: autodiff vs central finite differences.

Each suite draws random inputs in [-2, 2] (shifted positive where the op's
domain demands it) and returns the op's output, of any shape;
:func:`m2t.engine.finite_diff_check` weighs it with a fixed upstream
gradient and compares every parameter gradient against central
differences at h=1e-5, relative tolerance 1e-4. Every op that a run
records has a suite here (a test holds that), and so do the stacked-views
forms of :func:`m2t.engine.dense` and :func:`m2t.engine.normalized_mse`
and BN's per-group statistics; variants of one op are summed with
:func:`m2t.engine.add`. The composite suites run a small BN
MLP under the prediction loss and the full two-view loss, which exercises
the whole backward path the trainer uses. The composed ops that the tests
use as an oracle have their own suites beside them, in
``tests/engine_reference.py``.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import engine
from .engine import BNSpec, constant, finite_diff_check, parameter
from .model import MlpSpec, build_pair, mlp_spec
from .normalization import NormParams
from .objectives import byol_loss, symmetrized_loss

DEFAULT_TRIALS = 100
DEFAULT_TOL = 1e-4
DEFAULT_H = 1e-5


def _case_add(rng):
    x = parameter(rng.uniform(-2, 2, size=(3, 4)))
    y = parameter(rng.uniform(-2, 2, size=(3, 4)))
    return lambda: engine.add(x, y), [("x", x), ("y", y)]


def _case_batch_norm(rng):
    # Groups 1 and 2, each with batch and with given statistics, summed.
    x = parameter(rng.uniform(-2, 2, size=(8, 3)))
    gamma = parameter(rng.uniform(0.5, 2.0, size=3))
    beta = parameter(rng.uniform(-2, 2, size=3))
    given = (rng.uniform(-1, 1, size=3), rng.uniform(0.5, 2.0, size=3))
    cases = [(groups, stats) for groups in (1, 2) for stats in (None, given)]

    def f():
        return reduce(engine.add, (
            engine.batch_norm(x, groups, gamma, beta, 1e-5, stats)
            for groups, stats in cases))

    return f, [("x", x), ("gamma", gamma), ("beta", beta)]


def _case_batch_norm_group_stats(rng):
    # Given statistics with one row per group, at 2 and 4 groups, summed.
    x = parameter(rng.uniform(-2, 2, size=(8, 3)))
    gamma = parameter(rng.uniform(0.5, 2.0, size=3))
    beta = parameter(rng.uniform(-2, 2, size=3))
    given = {groups: (rng.uniform(-1, 1, size=(groups, 3)),
                      rng.uniform(0.5, 2.0, size=(groups, 3)))
             for groups in (2, 4)}

    def f():
        return reduce(engine.add, (
            engine.batch_norm(x, groups, gamma, beta, 1e-5, stats)
            for groups, stats in given.items()))

    return f, [("x", x), ("gamma", gamma), ("beta", beta)]


def _case_dense(rng):
    # Every BN variant of the fused layer, each with and without ReLU,
    # summed: none, batch statistics over 1 and 2 groups, given statistics,
    # and a statistics function with a row permutation.
    x = parameter(rng.uniform(-2, 2, size=(8, 3)))
    weight = parameter(rng.uniform(-2, 2, size=(3, 4)))
    bias = parameter(rng.uniform(-2, 2, size=4))
    p = NormParams(gamma=parameter(rng.uniform(0.5, 2.0, size=4)),
                   beta=parameter(rng.uniform(-2, 2, size=4)))
    given = (rng.uniform(-1, 1, size=4), rng.uniform(0.5, 2.0, size=4))
    norms = (None, BNSpec(p, 1), BNSpec(p, 2), BNSpec(p, stats=given),
             BNSpec(p, 2, lambda h: None, rng.permutation(8)))
    cases = [(norm, relu) for norm in norms for relu in (False, True)]

    def f():
        return reduce(engine.add, (engine.dense(x, weight, bias, relu, norm)
                                   for norm, relu in cases))

    return f, [("x", x), ("weight", weight), ("bias", bias),
               ("gamma", p.gamma), ("beta", p.beta)]


def _case_dense_views(rng):
    # The fused layer over two stacked 8-row views, each BN variant with
    # and without ReLU, summed: none, batch statistics per view and per
    # 4-row group, given statistics per group, and a statistics function
    # with the same row permutation in each view.
    x = parameter(rng.uniform(-2, 2, size=(16, 3)))
    weight = parameter(rng.uniform(-2, 2, size=(3, 4)))
    bias = parameter(rng.uniform(-2, 2, size=4))
    p = NormParams(gamma=parameter(rng.uniform(0.5, 2.0, size=4)),
                   beta=parameter(rng.uniform(-2, 2, size=4)))
    given = (rng.uniform(-1, 1, size=(2, 4)), rng.uniform(0.5, 2.0, size=(2, 4)))
    perm = rng.permutation(8)
    norms = (None, BNSpec(p, 2), BNSpec(p, 4), BNSpec(p, 2, given),
             BNSpec(p, 4, lambda h: None, np.concatenate((perm, perm + 8))))
    cases = [(norm, relu) for norm in norms for relu in (False, True)]

    def f():
        return reduce(engine.add, (
            engine.dense(x, weight, bias, relu, norm, views=2)
            for norm, relu in cases))

    return f, [("x", x), ("weight", weight), ("bias", bias),
               ("gamma", p.gamma), ("beta", p.beta)]


def _case_normalized_mse(rng):
    # One view, and two stacked views in one loss, summed.
    p = parameter(rng.uniform(-2, 2, size=(6, 3)))
    z = rng.uniform(-2, 2, size=(6, 3))

    def f():
        return engine.add(engine.normalized_mse(p, z),
                          engine.normalized_mse(p, z, views=2)[0])

    return f, [("p", p)]


def _case_info_nce(rng):
    # With negatives and with none (an empty queue), in one loss.
    q = parameter(rng.uniform(-2, 2, size=(5, 3)))
    k_hat = engine.unit_rows(rng.uniform(-2, 2, size=(5, 3)))[0]
    negs = engine.unit_rows(rng.uniform(-2, 2, size=(7, 3)))[0]

    def f():
        return engine.add(engine.info_nce(q, k_hat, negs, 0.5),
                          engine.info_nce(q, k_hat, negs[:0], 0.5))

    return f, [("q", q)]


def _case_cross_entropy(rng):
    logits = parameter(rng.uniform(-2, 2, size=(6, 4)))
    onehot = np.eye(4)[rng.integers(0, 4, size=6)]
    return lambda: engine.cross_entropy(logits, onehot), [("logits", logits)]


def _randomize_student(pair, rng):
    # Perturb every block (biases and BN affines included) away from the
    # symmetric init: keeps the check off measure-zero kinks such as
    # all-zero prediction rows, and exercises every gradient path.
    for _, t, _ in pair.student_params():
        t.values += 0.3 * rng.standard_normal(t.values.shape)


def _case_byol_mlp(rng):
    spec = MlpSpec(widths=(3, 4, 2), bn=(True, False), relu=(True, False))
    pair = build_pair(spec, mlp_spec((2, 3, 2)), mlp_spec((2, 2, 2)), rng)
    _randomize_student(pair, rng)
    batch = rng.uniform(-2, 2, size=(6, 3))
    target = rng.uniform(-2, 2, size=(6, 2))

    def f():
        from .model import forward_student
        _, p = forward_student(pair, batch, 2)
        return byol_loss(p, constant(target))

    return f, [(name, t) for name, t, _ in pair.student_params()]


def _case_symmetrized(rng):
    spec = MlpSpec(widths=(3, 4, 4), bn=(True, True), relu=(True, True))
    pair = build_pair(spec, mlp_spec((4, 4, 3)), mlp_spec((3, 3, 3)), rng)
    _randomize_student(pair, rng)
    v1 = rng.uniform(-2, 2, size=(6, 3))
    v2 = rng.uniform(-2, 2, size=(6, 3))

    def f():
        pair.history.pending_count = 0  # each call redoes one iteration
        return symmetrized_loss(pair, v1, v2, 2, alpha=1.0).loss

    return f, [(name, t) for name, t, _ in pair.student_params()]


SUITES = {
    "add": _case_add,
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
    """Worst relative error over all trials of one suite: ``build(rng)``
    returns ``(f, params)`` for :func:`m2t.engine.finite_diff_check`."""
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        f, params = build(rng)
        report = finite_diff_check(f, params, h=h, tol=tol)
        err = report.max_rel_error
        if not np.isfinite(err):
            return float("nan")
        worst = max(worst, err)
    return worst


def run_all(trials: int = DEFAULT_TRIALS, h: float = DEFAULT_H,
            tol: float = DEFAULT_TOL, seed: int = 0) -> dict:
    """All suites; returns {name: worst_error} plus a 'passed' flag entry."""
    results = {}
    ok = True
    for name, build in SUITES.items():
        n = min(trials, _COMPOSITE_TRIALS.get(name, trials))
        worst = run_suite(build, trials=n, h=h, tol=tol, seed=seed)
        results[name] = worst
        if not (np.isfinite(worst) and worst <= tol):
            ok = False
    results["passed"] = ok
    return results
