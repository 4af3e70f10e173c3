"""The m2t benchmark: three training workloads, measured end to end and,
in a separate traced run, layer by layer.

    python3 perfbench/run.py --workload byol-m2t-w4 --seed 0 --seconds 40 --trace 0

Run it from anywhere; it builds nothing and uses the ``src/`` tree of the
checkout it sits in. Each workload process is a fresh interpreter with the
BLAS thread variables at 1, and processes run one after another, never two
at once. Every process goes through the program's own entry point,
``m2t.cli.main``: full processes run ``pretrain --config``; set-up and
eval processes start the same ``pretrain``, stop at its first training
step, and run ``eval --mode probe`` and ``eval --mode knn`` on the
checkpoint the first full process wrote. The program only sees the
generated config and dataset spec; ``--seed`` becomes the config's
``seed`` and the dataset spec's ``seed``.

Timings are scaled to one host speed with a reference kernel (see
REFERENCE_S below); the raw wall-clock figures are printed beside them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs untraced
and traced processes in pairs and prints the per-layer metrics; it also
prints the untraced process's end-to-end figures as plain lines, so one
command shows every metric with its unit. The last stdout line is always
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Seed 1729 is held out: it was not used while the benchmark was tuned, and
a later performance claim must also hold on it.

The program is a single thread with no queues, so there is no time-waited
metric: every measured second is busy time of one layer or another.
``sec_per_iter`` from metrics.csv and ``normalization.comm_bytes`` are a
deterministic cost model and computed traffic, labelled as such, never
timings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

HELD_OUT_SEED = 1729

# Config documents are frozen copies of the program's ``default-synth`` and
# ``moco-smoke`` presets, so a later change to a preset cannot silently
# change a workload.
_BYOL = {
    "mode": "byol_m2t", "batch_size": 128, "workers": 4, "lr_base": 0.4,
    "data": {"kind": "synthetic", "num_classes": 10, "dim": 32,
             "per_class": 500, "spread": 0.3},
    "augment": {"noise_std": 0.3, "mask_prob": 0.2,
                "scale_range": [0.8, 1.25]},
}
_MOCO = {
    "mode": "moco", "batch_size": 128, "workers": 4, "lr_base": 1.2,
    "m_base": 0.001, "m_schedule": "constant", "alpha_base": 0.064,
    "alpha_schedule": "constant", "temperature": 0.3, "queue_capacity": 256,
    "projector": {"widths": [64, 64, 64, 64, 64, 64, 64], "bn": [True] * 6,
                  "relu": [True] * 5 + [False]},
    "data": {"kind": "synthetic", "num_classes": 10, "dim": 32,
             "per_class": 3000, "spread": 0.3},
    "augment": {"noise_std": 0.3, "mask_prob": 0.2, "scale_range": [0.5, 1.5]},
    "teacher_bn": "shuffling",
}
# Evaluation set: 5000 samples from the same class means as training.
_EVAL_DATA = {"kind": "synthetic", "num_classes": 10, "dim": 32,
              "per_class": 500, "spread": 0.3}

WORKLOADS = {
    "byol-m2t-w4": {
        "why": "the paper's recipe at 4 simulated workers: per-worker "
               "slice/concat BN plumbing and two momentum-BN teacher passes "
               "load engine dispatch and normalization",
        "config": dict(_BYOL, epochs=10),
    },
    "byol-m2t-w1": {
        "why": "the same recipe at 1 worker: plain BN takes its single-slice "
               "path and modeled traffic is 0, the single-worker baseline",
        "config": dict(_BYOL, epochs=10, workers=1),
    },
    "moco-shuffle-w4": {
        "why": "one view, a 6-BN projector, shuffling teacher BN with "
               "modeled traffic, an immediate commit, a 256-key queue and a "
               "30000-sample dataset; bypasses momentum_bn_forward",
        "config": dict(_MOCO, epochs=3),
    },
}

END_TO_END = (
    ("train_samples_per_s", "samples/s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p99", "ms"),
    ("setup_s", "s"),
    ("eval_s", "s"),
    ("peak_rss_mb", "MB"),
    ("probe_acc", "fraction"),
)

_ENGINE_OPS = ("add", "sub", "mul", "div", "neg", "relu", "sqrt", "exp",
               "log", "matmul", "mean", "sum", "var", "slice_rows",
               "concat_rows", "gather_rows")
_BN_FNS = ("plain_bn_forward", "synced_bn_forward", "shuffling_bn_forward",
           "momentum_bn_forward", "momentum_bn_lazy_commit")

PER_LAYER = (
    (("engine.tape_entries", "count/iter"),
     ("engine.tape_useful_ratio", "ratio"))
    + tuple((f"engine.calls.{op}", "count/iter") for op in _ENGINE_OPS)
    + (("engine.self_ms", "ms/iter"),
       ("engine.us_per_call", "us"),
       ("engine.backward_ms", "ms/iter"))
    + tuple((f"normalization.calls.{fn}", "count/iter") for fn in _BN_FNS)
    + (("normalization.ms.plain_bn_forward", "ms/iter"),
       ("normalization.ms.momentum_bn_lazy_commit", "ms/iter"),
       ("normalization.ms.student_bn", "ms/iter"),
       ("normalization.ms.teacher_bn", "ms/iter"),
       ("normalization.comm_bytes", "B/iter-computed"),
       ("normalization.collectives", "count/iter-comp"),
       ("model.forward_student_ms", "ms/iter"),
       ("model.forward_teacher_ms", "ms/iter"),
       ("model.commit_teacher_bn_ms", "ms/iter"),
       ("model.ema_update_ms", "ms/iter"),
       ("model.dump_teacher_ms", "ms"),
       ("objectives.loss_ms", "ms/iter"),
       ("objectives.self_ms", "ms/iter"),
       ("objectives.calls.queue_update", "count/iter"),
       ("trainer.step_ms", "ms/iter"),
       ("trainer.optimizer_ms", "ms/iter"),
       ("trainer.self_ms", "ms/iter"),
       ("trainer.init_ms", "ms"),
       ("data.make_views_ms", "ms/iter"),
       ("data.dataset_s", "s"),
       ("evaluate.extract_features_ms", "ms"),
       ("evaluate.linear_probe_s", "s"),
       ("evaluate.knn_ms", "ms"),
       ("evaluate.probe_tape_entries_per_step", "count"),
       ("checkpoint.save_ms", "ms"),
       ("checkpoint.load_ms", "ms"),
       ("checkpoint.bytes", "bytes"),
       ("config.from_dict_ms", "ms"),
       ("health.div_by_zero", "count"),
       ("health.zero_norm_rows", "count"),
       ("health.nonfinite_losses", "count"),
       ("trace.overhead_ratio", "ratio"))
)

MIN_FULL_PROCESSES = 2     # so every run compares two outputs of one seed
MIN_ITERATIONS = 1000      # p99 keeps ten samples beyond it
RUN_DEADLINE_S = 170       # the whole run ends within 180 s even if a process hangs

# The shared host this benchmark was built on runs the same code at
# speeds up to 2x apart, in states that last from seconds to minutes, and
# the program slows with it (process CPU time grows as much as wall time,
# so this is a slower CPU, not time taken away). No run length averages
# that out, so every timing is scaled to one host speed: an untraced
# process times a fixed reference kernel (child.py) after every training
# step and during set-up and eval, and a time t measured while the kernel
# took r seconds is reported as t * REFERENCE_S / r; an iteration uses the
# kernel run right after it, set-up and eval the median of the kernels run
# during them. Over windows of about 0.5 s the kernel's median and the
# program's median iteration time moved together (correlation 0.98 across
# 72 windows of byol-m2t-w4 whose raw medians spanned 15-24 ms).
# REFERENCE_S is a fixed scale: about the kernel's time after a training
# step when that host (2 vCPUs, x86-64) was fast, so scaled iteration
# times read roughly as fast-host milliseconds. The raw wall-clock figures
# and the host speed are printed too.
REFERENCE_S = 0.6e-3
WARMUP_ITERATIONS = 50     # per process: the first epoch runs slower


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "M2T_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _spawn(run_dir: str, name: str, mode: str, seed: int, cfg_path: str,
           data_path: str, deadline: float, extra_spec: dict) -> dict:
    """Run one workload process to completion and return its result."""
    out_dir = os.path.join(run_dir, name)
    os.makedirs(out_dir)
    spec_path = os.path.join(out_dir, "spec.json")
    spec = {"src": SRC, "out_dir": out_dir, "mode": mode,
            "config_path": cfg_path, "dataset_path": data_path, "seed": seed,
            "result_path": os.path.join(out_dir, "result.json"),
            **extra_spec, "spawn_time": time.monotonic()}
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                           spec_path], env=_child_env(), cwd=out_dir,
                          stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.perf_counter()))
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not os.path.exists(spec["result_path"]):
        raise BenchError(f"workload process {name} exited {proc.returncode} "
                         f"without a result")
    with open(spec["result_path"], "r", encoding="utf-8") as f:
        result = json.load(f)
    result["wall_s"] = wall
    result["out_dir"] = out_dir
    return result


def _percentile(sorted_vals: list, q: float) -> float:
    """Linear-interpolated percentile of an ascending list, q in [0, 100]."""
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), "r",
                  encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Checks:
    """Correctness findings of one run; empty means correct."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def commands(self, result: dict) -> None:
        for c in result["commands"]:
            self.attempted += 1
            if c["exit"] != 0:
                self.failed += 1
                self.failures.append(f"{c['argv']} exited {c['exit']}")
        if result["mode"] == "setup":
            return
        if result["commands"][0]["exit"] == 0 and not result["losses_finite"]:
            self.failures.append("a logged loss is not finite")

    def same(self, what: str, a, b) -> None:
        if a != b:
            self.failures.append(f"{what} differs between processes of one seed")


def _trained(result: dict) -> bool:
    """The process ran ``pretrain`` to completion with exit code 0."""
    cmds = result["commands"]
    return bool(cmds) and cmds[0]["argv"] == "pretrain" and cmds[0]["exit"] == 0


def _first(results: list, key: str):
    """The first value of ``key`` any process reported, or None."""
    return next((r[key] for r in results if key in r), None)


def _end_to_end(full: list, extra: list) -> dict:
    """End-to-end figures from trained full processes plus the set-up and
    eval samples of the extra processes, scaled to REFERENCE_S; the raw
    wall-clock figures are returned under ``raw``."""
    timed = [step for r in full for step in list(zip(
        r["step_s"], r["step_rows"], r["ref_s"]))[WARMUP_ITERATIONS:]]
    steps = sorted(s * REFERENCE_S / k for s, _, k in timed)
    raw_steps = sorted(s for s, _, _ in timed)
    rows = sum(n for _, n, _ in timed)
    speeds = [REFERENCE_S / statistics.median(r["ref_s"]) for r in full]
    setups = [(r["setup_s"], r["setup_ref_s"]) for r in full + extra]
    evals = [(r["eval_s"], r["eval_ref_s"]) for r in extra]
    return {
        "train_samples_per_s": rows / sum(steps),
        "iter_ms_p50": 1e3 * _percentile(steps, 50.0),
        "iter_ms_p99": 1e3 * _percentile(steps, 99.0),
        "setup_s": statistics.median(t * REFERENCE_S / r for t, r in setups),
        "eval_s": statistics.median(t * REFERENCE_S / r for t, r in evals),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        "probe_acc": _first(full + extra, "probe_acc"),
        "knn_acc": _first(full + extra, "knn_acc"),
        "loss_final": full[0]["loss_final"],
        "iterations": len(steps),
        "raw": {
            "train_samples_per_s": rows / sum(raw_steps),
            "iter_ms_p50": 1e3 * _percentile(raw_steps, 50.0),
            "iter_ms_p99": 1e3 * _percentile(raw_steps, 99.0),
            "setup_s": statistics.median(t for t, _ in setups),
            "eval_s": statistics.median(t for t, _ in evals),
        },
        "host_speed": {"median": statistics.median(speeds),
                       "min": min(speeds), "max": max(speeds)},
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "m2t", "__init__.py")):
        raise BenchError(f"no m2t package under {SRC}")
    wl = WORKLOADS[workload]
    run_dir = os.path.join(OUT, workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg_path = os.path.join(run_dir, "config.json")
    data_path = os.path.join(run_dir, "dataset.json")
    with open(cfg_path, "w", encoding="utf-8") as f:
        json.dump(dict(wl["config"], seed=seed), f, indent=2)
    with open(data_path, "w", encoding="utf-8") as f:
        json.dump(dict(_EVAL_DATA, seed=seed), f, indent=2)

    checks = Checks()
    full, traced, extra = [], [], []
    t_start = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S

    def spawn(name, mode, **spec):
        return _spawn(run_dir, name, mode, seed, cfg_path, data_path,
                      deadline, spec)

    def setup_eval():
        ckpt = os.path.join(full[0]["out_dir"], "checkpoint.m2t")
        e = spawn(f"setup-{len(extra)}", "setup", eval_checkpoint=ckpt)
        checks.commands(e)
        extra.append(e)

    # Rounds of one full process (plus its traced twin), and one set-up and
    # eval process on the first checkpoint, until the next round would
    # overrun --seconds; then set-up and eval processes fill what is left.
    while True:
        r = spawn(f"full-{len(full)}", "full")
        checks.commands(r)
        full.append(r)
        if trace:
            t = spawn(f"traced-{len(traced)}", "traced")
            checks.commands(t)
            traced.append(t)
        if not _trained(full[0]):
            break
        setup_eval()
        if not _trained(r):
            break
        elapsed = time.perf_counter() - t_start
        per_round = elapsed / len(full)
        enough = trace or (len(full) >= MIN_FULL_PROCESSES and sum(
            max(0, len(f["step_s"]) - WARMUP_ITERATIONS)
            for f in full) >= MIN_ITERATIONS)
        if enough and elapsed + per_round > seconds:
            break
    while (extra and _trained(full[-1]) and time.perf_counter() - t_start
           + extra[-1]["wall_s"] <= seconds):
        setup_eval()
    full_ok = [r for r in full if _trained(r)]

    ok = [r for r in full + traced if _trained(r)]
    for r in ok[1:]:
        checks.same("metrics.csv SHA-256", ok[0]["metrics_sha256"],
                    r["metrics_sha256"])
        checks.same("checkpoint.m2t SHA-256", ok[0]["checkpoint_sha256"],
                    r["checkpoint_sha256"])
    for key in ("probe_acc", "knn_acc"):
        for r in ok + extra:
            if key in r:
                checks.same(key, _first(ok + extra, key), r[key])
    for u, t in zip(full, traced):
        if _trained(u) and _trained(t):
            with open(os.path.join(u["out_dir"], "metrics.csv"), "rb") as a, \
                    open(os.path.join(t["out_dir"], "metrics.csv"), "rb") as b:
                if a.read() != b.read():
                    checks.failures.append(
                        "traced metrics.csv is not byte-identical to untraced")

    e2e = _end_to_end(full_ok, extra) if full_ok else {}
    missing = [n for n, _ in END_TO_END if e2e.get(n) is None]
    if missing:
        raise BenchError(f"cannot report {', '.join(missing)}; "
                         + "; ".join(checks.failures))
    info = {
        "workload": workload, "why": wl["why"], "seed": seed,
        "held_out_seed": HELD_OUT_SEED, "trace": int(trace),
        "env": dict(full_ok[0]["env"], nproc=os.cpu_count(),
                    cpus_usable=len(os.sched_getaffinity(0)),
                    git_revision=_git_revision()),
        "processes": {"full": len(full), "traced": len(traced),
                      "setup_and_eval": len(extra)},
        "iteration_samples": e2e["iterations"],
        "warmup_iterations_per_process": WARMUP_ITERATIONS,
        "raw_wall_clock": e2e["raw"],
        "host_speed": e2e["host_speed"],
        "metrics_sha256": full_ok[0]["metrics_sha256"],
        "checkpoint_sha256": full_ok[0]["checkpoint_sha256"],
        "modeled_sec_per_iter": full_ok[0].get("modeled_sec_per_iter"),
        "health": full_ok[0]["health"],
        "no_wait_metric": "single thread, no queues: nothing waits",
        "wall_s": time.perf_counter() - t_start,
    }

    print(f"# m2t benchmark  workload={workload}  seed={seed}  "
          f"trace={int(trace)}  (held-out seed for claims: {HELD_OUT_SEED})")
    print(f"# why: {wl['why']}")
    print("# env: " + json.dumps(info["env"], sort_keys=True))
    print(f"# metrics_sha256 {info['metrics_sha256']}")
    print(f"# checkpoint_sha256 {info['checkpoint_sha256']}")
    print(f"# modeled (cost model, not a timing): sec_per_iter "
          f"{info['modeled_sec_per_iter']}")
    print(f"# iterations timed {info['iteration_samples']} (after "
          f"{WARMUP_ITERATIONS} warm-up iterations per process), processes "
          f"{info['processes']}")
    hs = info["host_speed"]
    print(f"# host speed (REFERENCE_S / median reference kernel time) over "
          f"full processes: median {hs['median']:.3f}, range "
          f"{hs['min']:.3f}..{hs['max']:.3f}")
    print("# raw wall clock, not scaled: " + ", ".join(
        f"{k} {v:.6g}" for k, v in info["raw_wall_clock"].items()))
    print("# " + info["no_wait_metric"])
    for name, unit in END_TO_END:
        print(f"{'' if not trace else '(untraced) '}{name} "
              f"{e2e[name]:.6g} {unit}")
    # Printed, not gated: across seeds the byol loss_final spreads about
    # 20% and knn_acc up to 20% (interquartile range over the median), too
    # close to the largest bound BENCHMARK.json may set.
    print(f"# not gated: loss_final {e2e['loss_final']:.6g} loss, "
          f"knn_acc {e2e['knn_acc']} fraction")

    if trace:
        reports = [t["trace"] for t in traced if _trained(t)]
        if not reports:
            raise BenchError("no traced process completed")
        layer = {}
        for name, _ in PER_LAYER:
            if name == "trace.overhead_ratio":
                ratios = [(u["rows"] / sum(u["step_s"]))
                          / (t["rows"] / sum(t["step_s"]))
                          for u, t in zip(full, traced)
                          if _trained(u) and _trained(t)]
                layer[name] = statistics.median(ratios)
            elif name.startswith("health."):
                layer[name] = traced[0]["health"].get(name[len("health."):], 0)
            else:
                layer[name] = statistics.median(
                    rep["metrics"][name] for rep in reports)
        if reports[0]["missing"]:
            print("# not traced (absent in this version): "
                  + ", ".join(reports[0]["missing"]))
        print(f"# traced iterations {reports[0]['iterations']}, spans "
              f"{reports[0]['spans']} (spans.csv in {traced[0]['out_dir']})")
        print("# function breakdown (inclusive ms/iter, self ms/iter, "
              "calls/iter):")
        for fname, d in sorted(reports[0]["functions"].items(),
                               key=lambda kv: -kv[1]["ms_per_iter"]):
            print(f"#   {fname:45s} {d['ms_per_iter']:9.4f} "
                  f"{d['self_ms_per_iter']:9.4f} {d['calls_per_iter']:8.2f}")
        for name, unit in PER_LAYER:
            print(f"{name} {layer[name]:.6g} {unit}")
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}

    if checks.failures:
        print("# INCORRECT: " + "; ".join(checks.failures))
    per_process = [
        {"name": os.path.basename(r["out_dir"]), "mode": r["mode"],
         "setup_s": r["setup_s"], "eval_s": r.get("eval_s"),
         "iter_ms_p50": (1e3 * statistics.median(r["step_s"])
                         if r.get("step_s") else None),
         "train_samples_per_s": (r["rows"] / sum(r["step_s"])
                                 if r.get("step_s") else None),
         "peak_rss_mb": r.get("peak_rss_mb"), "wall_s": r["wall_s"]}
        for r in full + traced + extra]
    with open(os.path.join(run_dir, "summary.json"), "w",
              encoding="utf-8") as f:
        json.dump({"info": info, "metrics": metrics, "processes": per_process,
                   "failures": checks.failures}, f, indent=2)
    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
