"""One fully scripted training iteration against the committed reference.

The reference (tests/data/golden_trace.json, regenerated by
scripts/make_golden_trace.py) is computed with independent hand-derived
numpy math. Here the same iteration runs through the package: every batch
statistic, blend, loss term, gradient, parameter delta, history commit and
EMA result must agree to 1e-10.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from m2t import normalization as norm
from m2t.model import (
    MlpSpec,
    StudentTeacherPair,
    build_pair,
    commit_teacher_bn,
    ema_update,
)
from m2t.objectives import symmetrized_loss
from m2t.trainer import OptimizerState, sgd_step

from bn_reference import batch_stats, worker_slices
from engine_reference import constant

TRACE_PATH = Path(__file__).parent / "data" / "golden_trace.json"
TOL = 1e-10


@pytest.fixture(scope="module")
def trace():
    return json.loads(TRACE_PATH.read_text())


@pytest.fixture()
def setup(trace):
    cfg = trace["setup"]
    spec_enc = MlpSpec(widths=(2, 2), bn=(True,), relu=(True,))
    spec_lin = MlpSpec(widths=(2, 2), bn=(False,), relu=(False,))
    pair = build_pair(spec_enc, spec_lin, spec_lin,
                      np.random.default_rng(0), student_bn="plain",
                      teacher_bn="momentum", eps=cfg["eps"])

    # Each block is a view of its arena, so the trace's values are written
    # in place; the trace names every block of both arenas.
    for arena, values, prefix in ((pair.student, cfg["student"], ""),
                                  (pair.teacher, cfg["teacher"], "t_")):
        assert {p.name for p in arena.params} == {prefix + n for n in values}
        for p in arena.params:
            p.tensor.values[...] = np.array(values[p.name[len(prefix):]])

    # enc0 is the teacher's only BN layer, so its range is the whole history.
    state = pair.history
    assert pair.t_encoder.layers[0].channels == slice(0, state.hist_mean.size)
    state.hist_mean[:] = cfg["hist_mean"]
    state.hist_var[:] = cfg["hist_var"]
    state.initialized = True

    v1 = np.array(cfg["v1"])
    v2 = np.array(cfg["v2"])
    return pair, state, v1, v2, cfg


def test_committed_trace_matches_generator_script():
    """The committed JSON is exactly what the oracle script produces."""
    script = Path(__file__).parent.parent / "scripts" / "make_golden_trace.py"
    committed = TRACE_PATH.read_bytes()
    subprocess.run([sys.executable, str(script)], check=True,
                   capture_output=True)
    assert TRACE_PATH.read_bytes() == committed


def test_full_iteration_matches_reference(trace, setup):
    pair, state, v1, v2, cfg = setup
    alpha = cfg["alpha"]

    # Per-worker student statistics of the affine pre-activations.
    for view, key in ((v1, "student_worker_stats_v1"),
                      (v2, "student_worker_stats_v2")):
        layer = pair.encoder.layers[0]
        a = view @ layer.weight.values + layer.bias.values
        for rows, expected in zip(worker_slices(4, 2), trace[key]):
            s = batch_stats(constant(a[rows]))
            np.testing.assert_allclose(s.mean.values, expected["mean"], atol=TOL)
            np.testing.assert_allclose(s.var.values, expected["var"], atol=TOL)

    # The symmetrized pass: losses and the teacher pass's statistics.
    out = symmetrized_loss(pair, v1, v2, 2, alpha)
    assert out.term_student_v.item() == pytest.approx(trace["loss_term_1"],
                                                      abs=TOL)
    assert out.term_student_v2.item() == pytest.approx(trace["loss_term_2"],
                                                       abs=TOL)
    assert out.loss.item() == pytest.approx(trace["loss_total"], abs=TOL)

    assert all(rows.shape[0] == 2 for rows in out.teacher_stats)
    # The teacher saw view 2 first: (mean, var) rows of views 2 and 1.
    pend_v2, pend_v1 = zip(*out.teacher_stats)
    np.testing.assert_allclose(pend_v2[0],
                               trace["teacher_batch_stats_v2"]["mean"], atol=TOL)
    np.testing.assert_allclose(pend_v2[1],
                               trace["teacher_batch_stats_v2"]["var"], atol=TOL)
    np.testing.assert_allclose(pend_v1[0],
                               trace["teacher_batch_stats_v1"]["mean"], atol=TOL)
    np.testing.assert_allclose(pend_v1[1],
                               trace["teacher_batch_stats_v1"]["var"], atol=TOL)

    # Blended statistics actually used by the teacher normalization.
    for pend, key in ((pend_v2, "teacher_blended_v2"),
                      (pend_v1, "teacher_blended_v1")):
        mean, var = norm.momentum_stats(state, slice(None), *pend, alpha)
        np.testing.assert_allclose(mean, trace[key]["mean"], atol=TOL)
        np.testing.assert_allclose(var, trace[key]["var"], atol=TOL)

    # Gradients, accumulated into the student arena, and the optimizer step.
    pair.student.zero_grads()
    out.backward(1.0)
    params = pair.student.params
    name_map = {
        "enc0.weight": "enc0.weight", "enc0.bias": "enc0.bias",
        "enc0.gamma": "enc0.gamma", "enc0.beta": "enc0.beta",
        "proj0.weight": "proj0.weight", "proj0.bias": "proj0.bias",
        "pred0.weight": "pred0.weight", "pred0.bias": "pred0.bias",
    }
    for p in params:
        np.testing.assert_allclose(p.tensor.grad,
                                   trace["gradients"][name_map[p.name]],
                                   atol=TOL, err_msg=p.name)

    before = {p.name: p.tensor.values.copy() for p in params}
    opt = OptimizerState(pair.student, momentum=0.9,
                         weight_decay=cfg["weight_decay"], wd_exclude=False)
    sgd_step(opt, lr=cfg["lr"])
    for p in params:
        delta = p.tensor.values - before[p.name]
        np.testing.assert_allclose(
            delta, trace["parameter_deltas"][name_map[p.name]], atol=TOL,
            err_msg=p.name)

    # History commit and teacher EMA.
    commit_teacher_bn(pair, out.teacher_stats, alpha)
    np.testing.assert_allclose(state.hist_mean,
                               trace["history_commit"]["mean"], atol=TOL)
    np.testing.assert_allclose(state.hist_var,
                               trace["history_commit"]["var"], atol=TOL)

    ema_update(pair, cfg["m_ema"])
    after = trace["teacher_after_ema"]
    np.testing.assert_allclose(pair.t_encoder.layers[0].weight.values,
                               after["enc0.weight"], atol=TOL)
    np.testing.assert_allclose(pair.t_encoder.layers[0].bias.values,
                               after["enc0.bias"], atol=TOL)
    np.testing.assert_allclose(pair.t_encoder.layers[0].norm.gamma.values,
                               after["enc0.gamma"], atol=TOL)
    np.testing.assert_allclose(pair.t_encoder.layers[0].norm.beta.values,
                               after["enc0.beta"], atol=TOL)
    np.testing.assert_allclose(pair.t_projector.layers[0].weight.values,
                               after["proj0.weight"], atol=TOL)
    np.testing.assert_allclose(pair.t_projector.layers[0].bias.values,
                               after["proj0.bias"], atol=TOL)


def test_teacher_projections_match_reference(trace, setup):
    pair, state, v1, v2, cfg = setup
    from m2t.model import forward_teacher

    z2, _ = forward_teacher(pair, v2, cfg["alpha"])
    np.testing.assert_allclose(z2, trace["teacher_projection_v2"],
                               atol=TOL)
    z1, _ = forward_teacher(pair, v1, cfg["alpha"])
    np.testing.assert_allclose(z1, trace["teacher_projection_v1"],
                               atol=TOL)


def test_student_predictions_match_reference(trace, setup):
    pair, state, v1, v2, cfg = setup
    from m2t.model import forward_student

    _, p1, _ = forward_student(pair, v1, 2)
    np.testing.assert_allclose(p1, trace["student_prediction_v1"],
                               atol=TOL)
    _, p2, _ = forward_student(pair, v2, 2)
    np.testing.assert_allclose(p2, trace["student_prediction_v2"],
                               atol=TOL)
