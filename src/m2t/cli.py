"""Command-line front end: pretrain, eval, gradcheck, ablate.

Exit codes: 0 success, 2 invalid or unreadable configuration, input or
usage, 3 training or the linear probe aborted on a non-finite value, 4
checkpoint version mismatch.

Every command first sets the process's heap policy
(:func:`keep_freed_memory`), then runs with numpy's floating-point warnings
off: every value a command reports is checked for finiteness, so a
diverging run reports it in its one ``error:`` line, without numpy's
warnings before it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, config as config_mod
from .checkpoint import (
    CheckpointError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from .config import ConfigError, TrainConfig
from .evaluate import (ProbeDivergedError, extract_features, holdout_split,
                       knn_eval, linear_probe)
from .gradcheck import DEFAULT_TOL, run_all
from .trainer import (MetricsRecord, NanLossError, Trainer, ablation_grid,
                      build_dataset, grid_trainers)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NAN = 3
EXIT_VERSION = 4

# glibc's mallopt parameter numbers (malloc.h) and the values set for them.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_POLICY = {"trim_threshold": 256 << 20, "mmap_threshold": 32 << 20}

_heap_record = None  # what the process's first keep_freed_memory() did


def keep_freed_memory() -> dict:
    """Make glibc's malloc keep freed memory for reuse: trim the top of the
    heap only past 256 MiB of free space, and take blocks under 32 MiB from
    the heap instead of fresh mappings.

    Every training step frees and reallocates the same activations. Under
    glibc's dynamic thresholds those pages go back to the kernel and fault
    in again on the next step, unless some data-sized block happened to
    raise the thresholds first. Fixed thresholds make that independent of
    what the process allocated before. Set once per process, on glibc only;
    elsewhere this does nothing and never raises. Returns the record for
    ``manifest.json``: whether the policy is in effect, and its values.
    """
    global _heap_record
    if _heap_record is None:
        _heap_record = {"applied": _set_heap_policy(), **HEAP_POLICY}
    return _heap_record


def _set_heap_policy() -> bool:
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):  # not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    results = [mallopt(M_TRIM_THRESHOLD, HEAP_POLICY["trim_threshold"]),
               mallopt(M_MMAP_THRESHOLD, HEAP_POLICY["mmap_threshold"])]
    return results == [1, 1]


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def environment() -> dict:
    """The interpreter, numpy and BLAS versions and the BLAS thread
    variables (None when unset), for ``manifest.json``: a timing is read
    against them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):  # older numpy layouts
        blas = {"name": None, "version": None}
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES}}


def write_metrics_csv(records: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(MetricsRecord.CSV_FIELDS) + "\n")
        for rec in records:
            f.write(rec.csv_row() + "\n")


def _load_config(args) -> TrainConfig:
    if args.preset:
        doc = config_mod.preset(args.preset)
    elif args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except ValueError as e:  # includes integers beyond 4300 digits
                raise ConfigError(f"config: {e}") from None
    else:
        raise ConfigError("config: either --config or --preset is required")
    if args.set:
        doc = config_mod.apply_overrides(doc, args.set)
    return config_mod.from_dict(doc)


def _write_manifest(out_dir: Path, cfg: TrainConfig, outputs: dict) -> Path:
    manifest = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "code_version": __version__,
        "start_timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "end_timestamp": None,
        "outputs": outputs,
        "heap_policy": keep_freed_memory(),
        "environment": environment(),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True),
                    encoding="utf-8")
    return path


def _finish_manifest(path: Path) -> None:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["end_timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True),
                    encoding="utf-8")


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    # Built first: a config-time error must leave no manifest behind.
    trainer = Trainer(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics_path = out_dir / "metrics.csv"
    ckpt_path = out_dir / "checkpoint.m2t"
    manifest_path = _write_manifest(out_dir, cfg, {
        "metrics": str(metrics_path), "checkpoint": str(ckpt_path)})
    try:
        result = trainer.run()
    except NanLossError as e:
        write_metrics_csv(e.metrics + [e.diagnostic], metrics_path)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NAN
    write_metrics_csv(result.metrics, metrics_path)
    save_checkpoint(result.payload, ckpt_path)
    _finish_manifest(manifest_path)
    print(json.dumps({"logged_records": len(result.metrics),
                      "metrics": str(metrics_path),
                      "checkpoint": str(ckpt_path),
                      "health": result.health}))
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    # Built first: a config-time error must leave no manifest behind.
    trainers = grid_trainers(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = _write_manifest(out_dir, cfg, {"grid": str(out_dir / "grid.json")})
    try:
        rows = ablation_grid(trainers)
    except (NanLossError, ProbeDivergedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NAN
    summary = []
    for row in rows:
        name = f"metrics_{row['student']}_{row['teacher']}.csv"
        write_metrics_csv(row["metrics"], out_dir / name)
        summary.append({k: row[k] for k in
                        ("student", "teacher", "accuracy",
                         "sec_per_iter_model", "wall_seconds")})
    (out_dir / "grid.json").write_text(json.dumps(summary, indent=2),
                                       encoding="utf-8")
    _finish_manifest(manifest_path)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    # A config integer's bound: more epochs overflow the probe's schedule.
    config_mod.check_type(args.probe_epochs, int, "--probe-epochs")
    config_mod.check_type(args.seed, int, "--seed")
    if args.seed < 0:
        raise ConfigError(f"--seed: expected a non-negative integer, got "
                          f"{args.seed}")
    payload = load_checkpoint(args.checkpoint)
    try:
        with open(args.dataset, "r", encoding="utf-8") as f:
            spec = json.load(f)
        config_mod.check_type(spec, dict, "dataset")
        seed = spec.pop("seed", 0)
        config_mod.check_type(seed, int, "dataset.seed")
        config_mod.check_seed(seed, "dataset.seed")
        dataset = build_dataset(config_mod.data_from_dict(spec, "dataset"),
                                seed)
        features = extract_features(payload, dataset.samples)
        if args.mode == "probe":
            acc = linear_probe(features, dataset.labels,
                               epochs=args.probe_epochs,
                               lr=args.probe_lr, seed=args.seed)
        else:
            train, test = holdout_split(len(dataset),
                                        np.random.default_rng(args.seed))
            acc = knn_eval(features[train], dataset.labels[train],
                           features[test], dataset.labels[test], k=args.k)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ProbeDivergedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NAN
    print(json.dumps({"mode": args.mode, "accuracy": acc,
                      "checkpoint": str(args.checkpoint)}))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials: must be >= 1, got {args.trials}")
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol: must be finite and > 0, got {args.tol}")
    results = run_all(trials=args.trials, tol=args.tol)
    passed = results.pop("passed")
    for name in sorted(results):
        status = "ok" if np.isfinite(results[name]) and results[name] <= args.tol \
            else "FAIL"
        print(f"{name:20s} worst rel. error {results[name]:.3e}  {status}")
    print("gradcheck:", "PASS" if passed else "FAIL")
    return EXIT_OK if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m2t",
        description="Student-teacher self-supervised training with momentum "
                    "BN statistics, at desk scale.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run self-supervised pretraining")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", choices=config_mod.PRESET_NAMES,
                   help="built-in config")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config override (repeatable, dotted paths)")
    p.add_argument("--out", default="runs/run", help="output directory")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("eval", help="evaluate a checkpoint's frozen features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True,
                   help="JSON dataset spec: a config's data object plus seed")
    p.add_argument("--mode", choices=("probe", "knn"), default="probe")
    p.add_argument("--k", type=int, default=5, help="neighbours for knn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probe-epochs", type=int, default=80)
    p.add_argument("--probe-lr", type=float, default=0.5)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient gate")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run the BN-combination grid")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", choices=config_mod.PRESET_NAMES,
                   default="table1-grid")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", default="runs/grid")
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        # A diverging run reports its non-finite value as one error line, so
        # numpy's floating-point warnings on the way there are noise.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except CheckpointVersionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERSION
    except (ConfigError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
