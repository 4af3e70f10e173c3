"""One workload process: pretrain, then eval, through ``m2t.cli.main``.

Started by ``run.py`` as a fresh, single-threaded interpreter, one at a
time. It times ``Trainer.train_step`` from outside by rebinding it at class
level, so the program's own loop and its CSV, manifest and checkpoint
writing all run unchanged. Untraced processes also time a fixed reference
kernel after every training step, and every SAMPLE_INTERVAL_S during
set-up and eval, with the kernel's own time left out of every reported
interval, so ``run.py`` can tell how fast the host ran each stretch of
the process. With ``--mode traced`` it also installs the
tracer (``tracer.py``) and evaluates its own checkpoint. With
``--mode setup`` it stops at the first training step, which is all a
set-up sample needs, and then evaluates the checkpoint an earlier full
process wrote; that is where untraced eval samples come from.

Usage (normally only run.py calls this):
    python3 perfbench/child.py SPEC.json

SPEC holds: src, out_dir, config_path, dataset_path, seed, mode,
spawn_time (``time.monotonic()`` in the parent just before the spawn),
result_path and, for ``setup``, eval_checkpoint. The result is written as
JSON to result_path.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import signal
import sys
import time
import traceback


SAMPLE_INTERVAL_S = 0.02  # reference kernel period during set-up and eval


class _StopAtFirstStep(Exception):
    """Raised by the set-up probe once the first training step is reached."""


def _reference_kernel(np):
    """A fixed piece of work shaped like the program's own: small numpy
    operations on a 128x64 batch plus Python-level object churn, 0.5 to
    1 ms. It depends on nothing in ``m2t``, so a change to the program
    cannot change it. Returns a function giving one run's seconds. The
    garbage collector is held off while it runs, so a collection the
    program's allocations are due is neither timed as the kernel's nor
    taken out of the program's time."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((128, 64))
    w = rng.standard_normal((64, 64)) * 0.1

    def timed() -> float:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        h = x
        for _ in range(6):
            h = np.maximum(h @ w, 0.0)
            h = (h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + 1e-5)
            h = np.concatenate([h[:64], h[:64]])
            [float(i) for i in range(50)]
        t = time.perf_counter() - t0
        if collecting:
            gc.enable()
        return t

    return timed


class _Sampler:
    """While started, runs the reference kernel from a SIGALRM handler every
    SAMPLE_INTERVAL_S of wall time. Python runs the handler between
    bytecodes of the main thread, so it never splits a numpy call and
    touches no program state. ``stop`` returns the median kernel time and
    the seconds the handler took, to be left out of the interval."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self.cost = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.kernel())
        self.cost += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.cost = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if not self.samples:  # a stretch shorter than one interval
            self._tick(None, None)
        times = sorted(self.samples)
        return times[len(times) // 2], self.cost


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _run_cli(cli, argv: list) -> tuple[int, str, float]:
    """(exit code, captured stdout, wall seconds) of one m2t command."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    except _StopAtFirstStep:
        raise
    except Exception:  # an uncaught program error exits 1 from the shell
        traceback.print_exc()
        code = 1
    return int(code or 0), buf.getvalue(), time.perf_counter() - t0


def _last_json(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return {}


def _blas_info(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # layout differs across numpy versions
        return "unknown"


def _read_csv(path) -> dict:
    """metrics.csv as column name -> list of cell strings."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f if line.strip()]
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _run_evals(cli, spec: dict, ckpt_path: str, result: dict,
               sampler) -> None:
    """``eval --mode probe`` and ``eval --mode knn`` on one checkpoint,
    sampling host speed throughout unless ``sampler`` is None."""
    if sampler:
        sampler.start()
    result["eval_s"] = 0.0
    for name, extra in (("probe", ["--mode", "probe"]),
                        ("knn", ["--mode", "knn", "--k", "5"])):
        code, out, wall = _run_cli(cli, ["eval", "--checkpoint", ckpt_path,
                                         "--dataset", spec["dataset_path"],
                                         "--seed", str(spec["seed"])] + extra)
        result["eval_s"] += wall
        result["commands"].append({"argv": f"eval {name}", "exit": code,
                                   "wall_s": wall})
        if code == 0:
            result[f"{name}_acc"] = _last_json(out)["accuracy"]
    if sampler:
        result["eval_ref_s"], cost = sampler.stop()
        result["eval_s"] -= cost


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as f:
        spec = json.load(f)
    mode = spec["mode"]
    sys.path.insert(0, spec["src"])
    import numpy as np
    kernel = _reference_kernel(np)
    sampler = _Sampler(kernel) if mode != "traced" else None
    if sampler:
        sampler.start()
    import m2t
    from m2t import cli, trainer

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(m2t.__file__).startswith(src + os.sep):
        raise RuntimeError(f"m2t imported from {m2t.__file__}, not {src}")

    tracer = None
    if mode == "traced":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(m2t)

    step_s: list[float] = []
    step_rows: list[int] = []
    ref_s: list[float] = []
    first = [None]
    setup_ref = [None, 0.0]  # median kernel seconds, sampler cost
    inner = trainer.Trainer.train_step

    def timed_train_step(self, batch, k):
        if first[0] is None:
            first[0] = time.monotonic()
            if sampler:
                setup_ref[:] = sampler.stop()
            if mode == "setup":
                raise _StopAtFirstStep()
        t0 = time.perf_counter()
        rec = inner(self, batch, k)
        step_s.append(time.perf_counter() - t0)
        step_rows.append(batch.shape[0])
        if sampler:
            ref_s.append(kernel())
        return rec

    trainer.Trainer.train_step = timed_train_step

    out_dir = spec["out_dir"]
    result = {"mode": mode, "commands": []}
    try:
        code, out, wall = _run_cli(cli, ["pretrain", "--config",
                                         spec["config_path"], "--out", out_dir])
    except _StopAtFirstStep:
        # A set-up sample; the pretrain was cut short on purpose and is not
        # counted as a command. It then evaluates a finished checkpoint.
        result["setup_s"] = first[0] - spec["spawn_time"] - setup_ref[1]
        result["setup_ref_s"] = setup_ref[0]
        _run_evals(cli, spec, spec["eval_checkpoint"], result, sampler)
        _write(spec, result)
        return 0
    if sampler and first[0] is None:  # pretrain failed before training
        sampler.stop()
    result["setup_s"] = (first[0] - spec["spawn_time"] - setup_ref[1]
                         if first[0] is not None else None)
    result["commands"].append({"argv": "pretrain", "exit": code,
                               "wall_s": wall})
    result["step_s"] = step_s
    result["step_rows"] = step_rows
    result["ref_s"] = ref_s
    result["setup_ref_s"] = setup_ref[0]
    result["rows"] = sum(step_rows)
    pretrain_out = _last_json(out) if code == 0 else {}
    result["health"] = pretrain_out.get("health", {})

    csv_path = os.path.join(out_dir, "metrics.csv")
    ckpt_path = os.path.join(out_dir, "checkpoint.m2t")
    if code == 0:
        cols = _read_csv(csv_path)
        epochs = [int(e) for e in cols["epoch"]]
        losses = [float(v) for v in cols["loss"]]
        tail = [l for e, l in zip(epochs, losses) if e == max(epochs)]
        result["losses_finite"] = all(math.isfinite(l) for l in losses)
        result["loss_final"] = sum(tail) / len(tail)
        result["modeled_sec_per_iter"] = float(cols["sec_per_iter"][0])
        result["metrics_sha256"] = _sha256(csv_path)
        result["checkpoint_sha256"] = _sha256(ckpt_path)
        if tracer is not None:
            _run_evals(cli, spec, ckpt_path, result, None)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_info(np),
        **{v: os.environ.get(v, "unset") for v in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "M2T_THREADS")},
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.write_spans(os.path.join(out_dir, "spans.csv"))
    _write(spec, result)
    return 0


def _write(spec: dict, result: dict) -> None:
    tmp = spec["result_path"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(result, f)
    os.replace(tmp, spec["result_path"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
