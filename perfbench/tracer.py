"""Outside-in tracer for one m2t process.

The tracer never edits the program. It replaces the public functions of
each m2t module with timing wrappers, at every module that imported them
(``m2t.trainer.forward_student`` and ``m2t.objectives.forward_student``
are the same function bound in two namespaces, so both names are
rebound). Intra-module calls go through the module dict as well, so an
engine op reached from ``Tensor.__add__`` is traced too.

Spans are kept in memory as ``[name_id, start, end, parent, iteration]``
and written out once, when the process is done. ``iteration`` is the
global step of the enclosing ``Trainer.train_step``, or -1 outside one.
Counts (tape size, useful tape entries, modeled BN traffic, checkpoint
bytes) are recorded at the same wrapper boundaries.

The tracer draws no random numbers and does no arithmetic on program
data, so a traced run must reproduce the untraced run's outputs byte for
byte; the benchmark checks that.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# Public functions traced per layer (module name -> function names). A
# name a later version no longer defines is skipped and reported.
LAYER_FUNCTIONS = {
    "engine": (
        "add", "sub", "mul", "div", "neg", "relu", "sqrt", "exp", "log",
        "matmul", "mean", "sum", "var", "slice_rows", "concat_rows",
        "gather_rows", "backward"),
    "normalization": (
        "plain_bn_forward", "synced_bn_forward", "shuffling_bn_forward",
        "momentum_bn_forward", "momentum_bn_lazy_commit"),
    "model": (
        "forward_student", "forward_teacher", "commit_teacher_bn",
        "ema_update", "dump_teacher"),
    "objectives": (
        "symmetrized_loss", "byol_loss", "infonce_loss", "queue_update"),
    "trainer": ("sgd_step", "lars_step"),
    "data": ("make_views", "synth_clusters", "load_idx"),
    "evaluate": ("extract_features", "linear_probe", "knn_eval"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "config": ("from_dict",),
    "cli": ("cmd_pretrain", "cmd_eval"),
}

# Methods traced at class level: (module, class, method).
LAYER_METHODS = (
    ("trainer", "Trainer", "train_step"),
    ("trainer", "Trainer", "__init__"),
)

ENGINE_OPS = LAYER_FUNCTIONS["engine"][:-1]
BN_FORWARDS = LAYER_FUNCTIONS["normalization"][:4]

# Modeled collectives per BN forward: synced all-reduces (mean, var) once,
# shuffling scatters and gathers whole rows.
_COLLECTIVES = {"synced_bn_forward": 1, "shuffling_bn_forward": 2}
_BN_KIND = {"plain_bn_forward": "plain", "synced_bn_forward": "synced",
            "shuffling_bn_forward": "shuffling"}


class Tracer:
    """Span recorder plus the counters measured at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.iteration = -1
        self.in_probe = False
        # (counter name, context) -> values; context is "train", "probe"
        # or "other"
        self.counts: dict[tuple, list] = defaultdict(list)
        self.comm_bytes = 0      # computed, summed over training iterations
        self.collectives = 0     # computed, likewise
        self.missing: list[str] = []
        self._comm_bytes = None

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """Timing wrapper: one span per call. ``before(args, kwargs)`` runs
        outside the span and may return a token for
        ``after(token, args, kwargs, result)``."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.iteration]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self, package) -> None:
        """Rebind every traced function at each m2t import site."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        self._comm_bytes = sys.modules[
            f"{package.__name__}.normalization"].comm_bytes
        replacements = {}
        for layer, names in LAYER_FUNCTIONS.items():
            mod = sys.modules.get(f"{package.__name__}.{layer}")
            for fname in names:
                fn = getattr(mod, fname, None) if mod is not None else None
                if fn is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                replacements[id(fn)] = self._wrapper_for(layer, fname, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
        for layer, cls_name, meth in LAYER_METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{layer}"], cls_name)
            setattr(cls, meth, self._method_wrapper(
                layer, cls_name, meth, getattr(cls, meth)))

    def _wrapper_for(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        if name == "engine.backward":
            return self.wrap(fn, name, before=self._tape_before,
                             after=self._tape_after)
        if name in ("normalization." + f for f in _BN_KIND):
            return self.wrap(fn, name, before=self._comm_before(fname))
        if name == "checkpoint.save_checkpoint":
            return self.wrap(fn, name, after=self._ckpt_after)
        if name == "evaluate.linear_probe":
            return self.wrap(fn, name, before=self._probe_enter,
                             after=self._probe_exit)
        return self.wrap(fn, name)

    def _method_wrapper(self, layer, cls_name, meth, fn):
        name = f"{layer}.{cls_name}.{meth}"
        if meth != "train_step":
            return self.wrap(fn, name)

        def enter(args, kwargs):
            k = kwargs["k"] if "k" in kwargs else args[2]
            self.iteration = int(k)

        def leave(token, args, kwargs, result):
            self.iteration = -1

        return self.wrap(fn, name, before=enter, after=leave)

    # -- counters at boundaries ------------------------------------------

    def _context(self) -> str:
        if self.iteration >= 0:
            return "train"
        return "probe" if self.in_probe else "other"

    def _tape_before(self, args, kwargs):
        loss = args[0] if args else kwargs["loss"]
        tape = getattr(loss, "_tape", None)
        return tape.entries if tape is not None else None

    def _tape_after(self, entries, args, kwargs, result):
        if entries is None:
            return
        useful = sum(1 for e in entries if e.output.grad is not None)
        ctx = self._context()
        self.counts[("tape_entries", ctx)].append(len(entries))
        self.counts[("tape_useful", ctx)].append(useful)

    def _comm_before(self, fname):
        kind = _BN_KIND[fname]
        collectives = _COLLECTIVES.get(fname, 0)

        def before(args, kwargs):
            if self.iteration >= 0 and len(args) >= 2:
                x, layout = args[0], args[1]
                nbytes = self._comm_bytes(kind, layout, x.shape[1])
                if nbytes:
                    self.comm_bytes += nbytes
                    self.collectives += collectives

        return before

    def _ckpt_after(self, token, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts[("checkpoint_bytes", "other")].append(os.path.getsize(path))

    def _probe_enter(self, args, kwargs):
        self.in_probe = True

    def _probe_exit(self, token, args, kwargs, result):
        self.in_probe = False

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """CSV of every span: name, start_s, end_s, parent row, iteration."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_s,end_s,parent,iteration\n")
            names = self.names
            for nid, t0, t1, parent, it in self.spans:
                f.write(f"{names[nid]},{t0:.9f},{t1:.9f},{parent},{it}\n")

    def report(self) -> dict:
        """Per-layer metrics (see ``PER_LAYER`` in run.py for units)."""
        names, spans = self.names, self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_t = [dur[i] - child[i] for i in range(n)]

        # inclusive and exclusive seconds, and calls, per (name, in-train)
        incl = defaultdict(float)
        excl = defaultdict(float)
        calls = defaultdict(int)
        for i, s in enumerate(spans):
            key = (names[s[0]], s[4] >= 0)
            incl[key] += dur[i]
            excl[key] += self_t[i]
            calls[key] += 1

        iters = calls[("trainer.Trainer.train_step", True)]
        if iters == 0:
            raise RuntimeError("traced run recorded no training iteration")

        def per_iter_ms(*fnames, exclusive=False):
            table = excl if exclusive else incl
            return 1e3 * sum(table[(f, True)] for f in fnames) / iters

        def run_total(*fnames):
            return sum(incl[(f, t)] for f in fnames for t in (True, False))

        def run_calls(*fnames):
            return sum(calls[(f, t)] for f in fnames for t in (True, False))

        out = {}
        # engine
        ops = [f"engine.{op}" for op in ENGINE_OPS]
        tape = self.counts[("tape_entries", "train")]
        useful = self.counts[("tape_useful", "train")]
        op_calls = sum(calls[(o, True)] for o in ops)
        op_self_s = sum(excl[(o, True)] for o in ops)
        out["engine.tape_entries"] = sum(tape) / len(tape) if tape else 0.0
        out["engine.tape_useful_ratio"] = (sum(useful) / sum(tape)
                                           if tape and sum(tape) else 0.0)
        for op in ENGINE_OPS:
            out[f"engine.calls.{op}"] = calls[(f"engine.{op}", True)] / iters
        out["engine.self_ms"] = per_iter_ms(*ops, "engine.backward",
                                            exclusive=True)
        out["engine.us_per_call"] = 1e6 * op_self_s / op_calls if op_calls else 0.0
        out["engine.backward_ms"] = per_iter_ms("engine.backward")

        # normalization: student/teacher split by the nearest model ancestor,
        # counting only outermost BN spans (shuffling calls plain inside).
        bn_names = {self._ids.get(f"normalization.{f}") for f in BN_FORWARDS}
        side_ids = {self._ids.get("model.forward_student"): "student",
                    self._ids.get("model.forward_teacher"): "teacher"}
        side_s = {"student": 0.0, "teacher": 0.0}
        for i, s in enumerate(spans):
            if s[4] < 0 or s[0] not in bn_names:
                continue
            p = s[3]
            if p >= 0 and spans[p][0] in bn_names:
                continue
            while p >= 0 and spans[p][0] not in side_ids:
                p = spans[p][3]
            if p >= 0:
                side_s[side_ids[spans[p][0]]] += dur[i]
        for f in LAYER_FUNCTIONS["normalization"]:
            out[f"normalization.calls.{f}"] = (
                calls[(f"normalization.{f}", True)] / iters)
        out["normalization.ms.plain_bn_forward"] = per_iter_ms(
            "normalization.plain_bn_forward")
        out["normalization.ms.momentum_bn_lazy_commit"] = per_iter_ms(
            "normalization.momentum_bn_lazy_commit")
        out["normalization.ms.student_bn"] = 1e3 * side_s["student"] / iters
        out["normalization.ms.teacher_bn"] = 1e3 * side_s["teacher"] / iters
        out["normalization.comm_bytes"] = self.comm_bytes / iters
        out["normalization.collectives"] = self.collectives / iters

        # model
        for f in ("forward_student", "forward_teacher", "commit_teacher_bn",
                  "ema_update"):
            out[f"model.{f}_ms"] = per_iter_ms(f"model.{f}")
        out["model.dump_teacher_ms"] = 1e3 * run_total("model.dump_teacher")

        # objectives
        obj = [f"objectives.{f}" for f in LAYER_FUNCTIONS["objectives"]]
        out["objectives.loss_ms"] = per_iter_ms("objectives.byol_loss",
                                                "objectives.infonce_loss")
        out["objectives.self_ms"] = per_iter_ms(*obj, exclusive=True)
        out["objectives.calls.queue_update"] = (
            calls[("objectives.queue_update", True)] / iters)

        # trainer
        out["trainer.step_ms"] = per_iter_ms("trainer.Trainer.train_step")
        out["trainer.optimizer_ms"] = per_iter_ms("trainer.sgd_step",
                                                  "trainer.lars_step")
        out["trainer.self_ms"] = per_iter_ms("trainer.Trainer.train_step",
                                             exclusive=True)
        out["trainer.init_ms"] = 1e3 * run_total("trainer.Trainer.__init__")

        # data: the training set is built inside Trainer.__init__
        init_id = self._ids.get("trainer.Trainer.__init__")
        data_ids = {self._ids.get("data.synth_clusters"),
                    self._ids.get("data.load_idx")}
        dataset_s = 0.0
        for i, s in enumerate(spans):
            if s[0] in data_ids:
                p = s[3]
                while p >= 0 and spans[p][0] != init_id:
                    p = spans[p][3]
                if p >= 0:
                    dataset_s += dur[i]
        out["data.make_views_ms"] = per_iter_ms("data.make_views")
        out["data.dataset_s"] = dataset_s

        # evaluate and checkpoint: per call, outside training
        def per_call_ms(fname):
            c = run_calls(fname)
            return 1e3 * run_total(fname) / c if c else 0.0

        probe_tape = self.counts[("tape_entries", "probe")]
        out["evaluate.extract_features_ms"] = per_call_ms(
            "evaluate.extract_features")
        out["evaluate.linear_probe_s"] = run_total("evaluate.linear_probe")
        out["evaluate.knn_ms"] = per_call_ms("evaluate.knn_eval")
        out["evaluate.probe_tape_entries_per_step"] = (
            sum(probe_tape) / len(probe_tape) if probe_tape else 0.0)
        out["checkpoint.save_ms"] = per_call_ms("checkpoint.save_checkpoint")
        out["checkpoint.load_ms"] = per_call_ms("checkpoint.load_checkpoint")
        ck = self.counts[("checkpoint_bytes", "other")]
        out["checkpoint.bytes"] = float(ck[-1]) if ck else 0.0

        out["config.from_dict_ms"] = per_call_ms("config.from_dict")

        # function-level detail for the printed breakdown (not metrics)
        detail = {}
        for (fname, in_train), c in calls.items():
            if in_train and c:
                detail[fname] = {
                    "ms_per_iter": 1e3 * incl[(fname, True)] / iters,
                    "self_ms_per_iter": 1e3 * excl[(fname, True)] / iters,
                    "calls_per_iter": c / iters}
        return {"metrics": out, "iterations": iters, "spans": n,
                "functions": detail, "missing": self.missing}
