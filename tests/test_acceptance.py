"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v

The two desk-scale experiments (criteria 8 and 9) dominate the runtime;
the whole suite stays within the stated budgets on an ordinary laptop
core. Their runs are defined once, by the scripts that print them
(scripts/run_bn_experiment.py, scripts/run_moco_smoke.py).
"""

import math
import runpy
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from m2t.config import from_dict, preset
from m2t.gradcheck import run_all
from m2t.model import (MlpSpec, build_pair, ema_update, forward_teacher,
                       mlp_spec)
from m2t.normalization import MomentumBNState
from m2t.schedules import apply_linear_scaling, cosine_value

from bn_reference import (batch_stats, bn_apply, identity_norm_params,
                          layer_bn, student_bn)
from engine_reference import constant
from update_reference import ema_pairs, stack_stats

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_function(script: str, name: str):
    """A function defined by an experiment script (main() not run)."""
    return runpy.run_path(str(SCRIPTS / script), run_name="not_main")[name]


def announce(num: int, ok: bool, description: str) -> None:
    # Bypass pytest capture so one line per criterion always reaches the
    # terminal.
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {description}",
          file=sys.__stdout__, flush=True)


def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    results = run_all(trials=100, tol=1e-4)
    elapsed = time.perf_counter() - t0
    passed = results.pop("passed")
    worst = max(results.values())
    ok = passed and elapsed < 60.0
    announce(1, ok, f"gradient oracle, worst rel err {worst:.2e} over "
                    f"{len(results)} suites in {elapsed:.1f}s")
    assert passed, results
    assert elapsed < 60.0


def test_criterion_2_synced_bn_equivalence():
    rng = np.random.default_rng(2025)
    failures = 0
    for case in range(50):
        w = int(rng.choice([2, 4, 8]))
        per = int(rng.integers(1, 9))
        n = w * per
        c = int(rng.integers(1, 17))
        x = constant(rng.normal(rng.normal(), np.abs(rng.normal()) + 0.1,
                                       size=(n, c)))
        p = identity_norm_params(c)
        # The specs a run builds: the student's groups in forward_student,
        # the teacher's in teacher_norm.
        student_multi = student_bn(x, "synced", w, p)
        student_single = student_bn(x, "plain", 1, p)
        teacher_multi, _ = layer_bn(x, "synced", 1.0, p, w)
        teacher_single, _ = layer_bn(x, "plain", 1.0, p, 1)
        if (student_multi.values.tobytes() != student_single.values.tobytes()
                or teacher_multi.values.tobytes()
                != teacher_single.values.tobytes()):
            failures += 1
    announce(2, failures == 0,
             f"synced BN bit-identical to single-worker BN (student and "
             f"teacher specs), {50 - failures}/50")
    assert failures == 0


def test_criterion_3_momentum_bn_degeneracy():
    rng = np.random.default_rng(333)
    alpha1_failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 33))
        c = int(rng.integers(1, 9))
        x = constant(rng.normal(size=(n, c)))
        p = identity_norm_params(c)
        state = MomentumBNState(hist_mean=rng.normal(size=c),
                                hist_var=np.abs(rng.normal(size=c)) + 0.1,
                                initialized=True)
        y, _ = layer_bn(x, "momentum", 1.0, p, history=state)
        ref = bn_apply(x, batch_stats(x), p)
        if y.values.tobytes() != ref.values.tobytes():
            alpha1_failures += 1

    alpha0_failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 33))
        c = int(rng.integers(1, 9))
        x = rng.normal(size=(n, c))
        p = identity_norm_params(c)
        state = MomentumBNState(hist_mean=rng.normal(size=c),
                                hist_var=np.abs(rng.normal(size=c)) + 0.1,
                                initialized=True)
        base, _ = layer_bn(constant(x), "momentum", 0.0, p, history=state)
        row = int(rng.integers(0, n))
        perturbed = x.copy()
        mask = np.ones(n, dtype=bool)
        mask[row] = False
        perturbed[mask] += rng.normal(13.0, 40.0, size=(n - 1, c))
        out, _ = layer_bn(constant(perturbed), "momentum", 0.0, p,
                          history=state)
        if base.values[row].tobytes() != out.values[row].tobytes():
            alpha0_failures += 1

    ok = alpha1_failures == 0 and alpha0_failures == 0
    announce(3, ok, f"momentum BN degeneracies: alpha=1 plain "
                    f"{50 - alpha1_failures}/50, alpha=0 per-sample "
                    f"{50 - alpha0_failures}/50")
    assert ok


def test_criterion_4_leakage_freedom():
    failures = 0
    for seed in range(20):
        rng = np.random.default_rng([4, seed])
        v = rng.normal(size=(8, 4))

        def teacher_of_v(v_other, seed=seed):
            rng_pair = np.random.default_rng([40, seed])
            pair = build_pair(
                MlpSpec((4, 6, 6), (True, True), (True, True)),
                mlp_spec((6, 6, 4)), mlp_spec((4, 4, 4)), rng_pair,
                teacher_bn="momentum")
            pair.history.hist_mean[:] = 0.0
            pair.history.hist_var[:] = 1.0
            pair.history.initialized = True
            alpha = 0.5
            _, other_stats = forward_teacher(pair, v_other, alpha)
            t_v, v_stats = forward_teacher(pair, v, alpha)
            from m2t.model import commit_teacher_bn
            commit_teacher_bn(pair, stack_stats(other_stats, v_stats), alpha)
            return t_v.tobytes()

        base = teacher_of_v(rng.normal(size=(8, 4)))
        wild = rng.normal(100.0, 500.0, size=(8, 4))
        if teacher_of_v(wild) != base:
            failures += 1
    announce(4, failures == 0,
             f"lazy-update leakage freedom, {20 - failures}/20 iterations")
    assert failures == 0


def test_criterion_5_ema_contract():
    failures = 0
    for case in range(50):
        rng = np.random.default_rng([5, case])
        pair = build_pair(MlpSpec((3, 4, 4), (True, True), (True, True)),
                          mlp_spec((4, 4, 3)), mlp_spec((3, 3, 3)), rng)
        for _, s in ema_pairs(pair):
            s.values[...] = rng.normal(size=s.values.shape)

        snap_teacher = [t.values.copy() for t, _ in ema_pairs(pair)]
        ema_update(pair, 0.0)
        ok = all(np.array_equal(t.values, b)
                 for (t, _), b in zip(ema_pairs(pair), snap_teacher))

        m = float(rng.uniform(0.05, 0.95))
        snap = [(t.values.copy(), s.values.copy()) for t, s in ema_pairs(pair)]
        ema_update(pair, m)
        for (t, _), (t0, s0) in zip(ema_pairs(pair), snap):
            lo, hi = np.minimum(t0, s0), np.maximum(t0, s0)
            ok = ok and np.all(t.values >= lo - 1e-15) \
                and np.all(t.values <= hi + 1e-15)

        ema_update(pair, 1.0)
        ok = ok and all(np.array_equal(t.values, s.values)
                        for t, s in ema_pairs(pair))
        if not ok:
            failures += 1
    announce(5, failures == 0, f"EMA contract, {50 - failures}/50 cases")
    assert failures == 0


def test_criterion_6_schedule_endpoints():
    checks = []
    for base, total in ((1.0, 100), (0.032, 1000), (0.7, 7)):
        checks.append(cosine_value(base, 0, total) == base)
        checks.append(abs(cosine_value(base, total, total)) < 1e-12)
    for base in (1.0, 0.032, 0.5):
        mid = cosine_value(base, 50, 100)
        checks.append(abs(mid - base / 2.0) < 1e-12)
    lr1, m1 = apply_linear_scaling(0.05, 0.002, 3.0)
    lr1, m1 = apply_linear_scaling(lr1, m1, 5.0)
    lr2, m2 = apply_linear_scaling(0.05, 0.002, 15.0)
    checks.append(abs(lr1 - lr2) < 1e-15 and abs(m1 - m2) < 1e-15)
    ok = all(checks)
    announce(6, ok, "schedule endpoints and linear-scaling multiplicativity")
    assert ok


def test_criterion_7_golden_trace():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         str(Path(__file__).parent / "test_golden_trace.py")],
        capture_output=True, text=True,
        cwd=str(Path(__file__).parent.parent))
    ok = proc.returncode == 0
    announce(7, ok, "golden trace: scripted iteration matches committed "
                    "reference to 1e-10")
    assert ok, proc.stdout + proc.stderr


@pytest.mark.slow
def test_criterion_8_directional_experiment():
    run_one = script_function("run_bn_experiment.py", "run_one")
    t0 = time.perf_counter()
    diffs = []
    for seed in range(5):
        acc_momentum = run_one(seed, "momentum", epochs=30)
        acc_plain = run_one(seed, "plain", epochs=30)
        diffs.append(acc_momentum - acc_plain)
    elapsed = time.perf_counter() - t0
    positives = sum(d > 0 for d in diffs)
    mean_diff = float(np.mean(diffs))
    ok = mean_diff >= 0 and positives >= 4 and elapsed < 600.0
    announce(8, ok, f"momentum teacher vs plain: mean diff {mean_diff:+.4f}, "
                    f"positive in {positives}/5 seeds, {elapsed:.0f}s")
    assert positives >= 4, diffs
    assert mean_diff >= 0, diffs
    assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_9_moco_smoke():
    smoke_run = script_function("run_moco_smoke.py", "smoke_run")
    t0 = time.perf_counter()
    target = math.log(1 + from_dict(preset("moco-smoke")).queue_capacity)
    results = {teacher_bn: smoke_run(teacher_bn)
               for teacher_bn in ("shuffling", "momentum")}
    elapsed = time.perf_counter() - t0
    init_ok = all(abs(i - target) / target < 0.05
                  for i, _ in results.values())
    drop_ok = all(l < 0.9 * i for i, l in results.values())
    ok = init_ok and drop_ok and elapsed < 300.0
    detail = ", ".join(f"{k}: {i:.3f}->{l:.3f}" for k, (i, l) in results.items())
    announce(9, ok, f"contrastive smoke vs ln(1+K)={target:.3f} ({detail}), "
                    f"{elapsed:.0f}s")
    assert init_ok, (results, target)
    assert drop_ok, results
    assert elapsed < 300.0


def test_criterion_10_determinism(tmp_path):
    from m2t.cli import main

    args = ["pretrain", "--preset", "default-synth",
            "--set", "epochs=2",
            "--set", "data.per_class=40",
            "--set", "batch_size=32",
            "--set", "log_interval=1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    same_metrics = (out1 / "metrics.csv").read_bytes() \
        == (out2 / "metrics.csv").read_bytes()
    same_ckpt = (out1 / "checkpoint.m2t").read_bytes() \
        == (out2 / "checkpoint.m2t").read_bytes()
    ok = code1 == 0 and code2 == 0 and same_metrics and same_ckpt
    announce(10, ok, "identical config+seed give byte-identical metrics CSV "
                     "and checkpoint")
    assert ok
