"""Optimizers and the training loop.

One iteration of the symmetrized recipe runs, in order: view augmentation,
worker partitioning, the two-view loss with lazily updated teacher BN, one
backward pass over the summed loss (the loss's closure, then the student
pass's layer closures in reverse), the optimizer step at the scheduled
learning rate, the single per-iteration history commit at the scheduled
blend coefficient, and finally the teacher weight EMA. The contrastive
mode swaps in a single-view InfoNCE loss, a fixed blend coefficient, a
constant weight-EMA coefficient, and a negatives-queue update.

The step, the commit and the EMA are whole-vector operations on the
pair's arenas (:class:`m2t.model.Arena`). One finiteness check covers
every gradient before the step and one every parameter after it.

``sec_per_iter`` in the metrics is a deterministic cost model (local
compute plus what the cross-worker BN traffic would cost at nominal
latency/bandwidth), not a measurement, so that identical runs produce
byte-identical metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .config import ConfigError, DataConfig, TrainConfig
from .data import (Dataset, IdxFormatError, NonFiniteDataError, load_idx,
                   make_views, synth_clusters)
from .model import (
    Arena,
    StudentTeacherPair,
    build_pair,
    commit_teacher_bn,
    default_encoder_spec,
    default_predictor_spec,
    default_projector_spec,
    dump_teacher,
    ema_update,
    forward_student,
    forward_teacher,
)
from .normalization import comm_bytes
from .objectives import (LossValue, NegQueue, infonce_loss,
                         l2_normalize_rows, queue_update, symmetrized_loss)
from .schedules import ScheduleSpec, apply_linear_scaling, schedule_at
from .seeding import substream, substream_int

# Nominal hardware model for the deterministic cost column.
NOMINAL_FLOPS_PER_SEC = 2e9
NOMINAL_BANDWIDTH_BYTES = 1e9
NOMINAL_COLLECTIVE_LATENCY = 1e-3


@dataclass
class OptimizerState:
    """Momentum-SGD (or LARS) settings for one arena, with the state they
    allocate for it at construction: the momentum buffer in the arena's
    layout and the weight decay of each element (a vector in that layout,
    or one number when all are equal). :func:`sgd_step` updates the
    arena's value vector and the buffer in place."""

    arena: Arena = field(repr=False)
    kind: str = "sgd"
    momentum: float = 0.9
    weight_decay: float = 1e-4
    trust_coeff: float = 0.001
    wd_exclude: bool = False
    buffer: np.ndarray = field(init=False, repr=False)
    wd: Union[float, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.buffer = np.zeros_like(self.arena.values)
        lars = self.kind == "lars"
        wd = [0.0 if p.exclude and (lars or self.wd_exclude)
              else self.weight_decay for p in self.arena.params]
        # One number when every block decays alike; its product with w is
        # the per-element vector's.
        self.wd = wd[0] if len(set(wd)) == 1 else np.repeat(
            wd, [b - a for a, b in self.arena.bounds])


def sgd_step(state: OptimizerState, lr: float) -> None:
    """Momentum SGD over the state's whole arena: buf <- momentum * buf + d;
    w <- w - lr * buf, with d = g + wd * w.

    Weight decay skips excluded parameters (biases, BN affines) when the
    state says so, and always under LARS. LARS (``kind == "lars"``) is the
    same step with the ``d`` of each non-excluded block scaled by
    trust * ||w|| / (||d|| + 1e-9). Each element sees the arithmetic of a
    per-block step, so the result is the same to the bit.
    """
    arena = state.arena
    w = arena.values
    d = state.wd * w
    np.add(arena.grads, d, out=d)
    if state.kind == "lars":
        for p, (a, b) in zip(arena.params, arena.bounds):
            if not p.exclude:
                block = d[a:b]
                block *= (state.trust_coeff * float(np.linalg.norm(w[a:b]))
                          / (float(np.linalg.norm(block)) + 1e-9))
    buf = state.buffer
    buf *= state.momentum
    buf += d
    np.multiply(lr, buf, out=d)
    w -= d


@dataclass
class MetricsRecord:
    iteration: int
    epoch: int
    loss: float
    l1: float
    l2: float
    lr: float
    m: float
    alpha: float
    hist_drift: float
    sec_per_iter: float

    CSV_FIELDS = ("iter", "epoch", "loss", "L1", "L2", "lr", "m", "alpha",
                  "hist_drift", "sec_per_iter")

    def csv_row(self) -> str:
        cells = [str(self.iteration), str(self.epoch)]
        for v in (self.loss, self.l1, self.l2, self.lr, self.m, self.alpha,
                  self.hist_drift, self.sec_per_iter):
            cells.append(f"{v:.17g}")
        return ",".join(cells)


class NanLossError(RuntimeError):
    """Training hit a non-finite loss, gradient, parameter, history drift or
    teacher array; carries the record of the iteration that did and the
    metrics before."""

    def __init__(self, message: str, diagnostic: MetricsRecord,
                 metrics: Optional[list] = None):
        super().__init__(message)
        self.diagnostic = diagnostic
        self.metrics = metrics or []


@dataclass
class TrainResult:
    payload: dict
    metrics: list
    config: TrainConfig
    health: dict
    dataset: Dataset


def build_dataset(data: DataConfig, seed: int) -> Dataset:
    """The dataset of a validated ``data`` spec; ``seed`` keys synthesis."""
    if data.kind == "synthetic":
        try:
            return synth_clusters(data.num_classes, data.dim, data.per_class,
                                  data.spread, seed=substream_int(seed, "data"))
        except NonFiniteDataError as e:
            raise ConfigError(f"data: spread {data.spread!r} overflows the "
                              f"samples ({e})") from None
        except (ValueError, MemoryError) as e:
            raise ConfigError(
                f"data: cannot allocate num_classes x per_class = "
                f"{data.num_classes} x {data.per_class} samples of dim "
                f"{data.dim} ({e})") from None
    try:
        return load_idx(data.images_path, data.labels_path)
    except (OSError, IdxFormatError) as e:
        raise ConfigError(f"data: {e}") from e


def build_model(cfg: TrainConfig, in_dim: int) -> StudentTeacherPair:
    """The pair for ``cfg`` on ``in_dim``-wide data (moco builds no
    predictor); ``ConfigError`` naming the model spec whose input width does
    not chain or whose arrays numpy cannot allocate."""
    enc = cfg.encoder or default_encoder_spec(in_dim)
    if enc.in_dim != in_dim:
        raise ConfigError(
            f"encoder: input width {enc.in_dim} != data dim {in_dim}")
    proj = cfg.projector or default_projector_spec(enc.out_dim)
    pred = None if cfg.mode == "moco" \
        else cfg.predictor or default_predictor_spec(proj.out_dim)
    rng = substream(cfg.seed, "init")
    try:
        return build_pair(enc, proj, pred, rng, student_bn=cfg.student_bn,
                          teacher_bn=cfg.teacher_bn, eps=cfg.eps)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def modeled_sec_per_iter(cfg: TrainConfig, pair: StudentTeacherPair) -> float:
    """Deterministic per-iteration cost model (the Table-1 analogue) at
    ``cfg.batch_size`` over ``cfg.workers``."""
    student_bn, teacher_bn = pair.student_bn, pair.teacher_bn
    batch_size = cfg.batch_size
    passes = 1 if cfg.mode == "moco" else 2  # views per iteration

    def mlp_flops(mlp):
        return sum(2 * l.weight.shape[0] * l.weight.shape[1] * batch_size
                   for l in mlp.layers)

    def bn_cost(mlp, kind, passes):
        cost = 0.0
        for layer in mlp.layers:
            if layer.norm is None:
                continue
            bytes_moved = comm_bytes(kind, cfg.workers, batch_size,
                                     layer.weight.shape[1])
            if bytes_moved:
                cost += passes * (NOMINAL_COLLECTIVE_LATENCY
                                  + bytes_moved / NOMINAL_BANDWIDTH_BYTES)
        return cost

    student_mlps = pair.student_mlps()
    teacher_mlps = [pair.t_encoder, pair.t_projector]
    fwd = sum(mlp_flops(m) for m in student_mlps)
    # forward + backward for the student (backward ~ 2x forward), forward
    # only for the teacher
    flops = passes * fwd * 3
    flops += passes * sum(mlp_flops(m) for m in teacher_mlps)
    seconds = flops / NOMINAL_FLOPS_PER_SEC
    for m in student_mlps:
        seconds += bn_cost(m, student_bn, passes)
    for m in teacher_mlps:
        seconds += bn_cost(m, teacher_bn, passes)
    return seconds


class Trainer:
    """Owns the pair, optimizer, schedules, (in contrastive mode) the
    negatives queue and the health count ``zero_norm_rows`` of one run."""

    def __init__(self, cfg: TrainConfig, dataset: Optional[Dataset] = None):
        cfg.validate()
        self.cfg = cfg
        self.dataset = dataset if dataset is not None \
            else build_dataset(cfg.data, cfg.seed)
        self.pair = build_model(cfg, self.dataset.dim)

        n = len(self.dataset)
        if n < cfg.batch_size:
            raise ConfigError(
                f"data: dataset of {n} samples smaller than batch_size "
                f"{cfg.batch_size}")
        full, rem = divmod(n, cfg.batch_size)
        # The trailing partial batch is kept when the worker split allows it.
        self.batch_starts = [i * cfg.batch_size for i in range(full)]
        self.batch_sizes = [cfg.batch_size] * full
        if rem and rem % cfg.workers == 0:
            self.batch_starts.append(full * cfg.batch_size)
            self.batch_sizes.append(rem)
        self.iters_per_epoch = len(self.batch_starts)
        self.total_iters = cfg.epochs * self.iters_per_epoch

        lr = cfg.lr_base
        m_base = cfg.m_base
        if cfg.auto_scale:
            lr, m_base = apply_linear_scaling(
                lr, m_base, cfg.batch_size / cfg.reference_batch)
        if self.total_iters > 0:
            warmup = min(cfg.warmup_epochs * self.iters_per_epoch,
                         self.total_iters - 1)
            self.lr_spec = ScheduleSpec(base=lr, total_steps=self.total_iters,
                                        warmup_steps=warmup,
                                        warmup_factor=cfg.warmup_factor)
            self.m_spec = ScheduleSpec(base=m_base,
                                       total_steps=self.total_iters,
                                       kind=cfg.m_schedule)
            self.alpha_spec = ScheduleSpec(base=cfg.alpha_base,
                                           total_steps=self.total_iters,
                                           kind=cfg.alpha_schedule)
        else:
            self.lr_spec = self.m_spec = self.alpha_spec = None

        self.is_moco = cfg.mode == "moco"
        self.opt = OptimizerState(
            self.pair.student, kind=cfg.optimizer, momentum=cfg.sgd_momentum,
            weight_decay=cfg.weight_decay, trust_coeff=cfg.trust_coeff,
            wd_exclude=cfg.wd_exclude_bias_bn)
        self.queue = None
        if self.is_moco:
            try:
                self.queue = NegQueue(cfg.queue_capacity,
                                      self.pair.t_projector.spec.out_dim,
                                      rng=substream(cfg.seed, "queue"))
            except (ValueError, MemoryError) as e:
                raise ConfigError(f"queue_capacity: cannot allocate "
                                  f"{cfg.queue_capacity} keys ({e})") from None
        self._sec_model = modeled_sec_per_iter(cfg, self.pair)
        self.zero_norm_rows = 0

    def train_step(self, batch: np.ndarray, k: int) -> MetricsRecord:
        """One full iteration at global step k; returns its metrics."""
        cfg = self.cfg
        alpha_k = schedule_at(self.alpha_spec, k)
        m_k = schedule_at(self.m_spec, k)
        lr_k = schedule_at(self.lr_spec, k)
        epoch = k // self.iters_per_epoch

        v, v2 = make_views(batch, cfg.augment,
                           seed=substream_int(cfg.seed, "augment", k),
                           image_hw=self.dataset.image_hw)
        # Only shuffling BN reads the permutation; its substream is
        # independent of every other, so skipping the draw moves no output.
        perm_seed = substream_int(cfg.seed, "bnperm", k) \
            if self.pair.teacher_bn == "shuffling" else None

        student = self.pair.student
        student.zero_grads()

        if self.is_moco:
            z, _, student_backward = forward_student(self.pair, v, cfg.workers)
            k_pos, stats = forward_teacher(self.pair, v2, alpha_k,
                                           cfg.workers, perm_seed)
            # Unit keys, normalized once: the positive logit and the queue
            # use the same rows.
            k_hat, zero_keys = l2_normalize_rows(k_pos)
            loss, loss_backward, zero_rows = infonce_loss(
                z, k_hat, self.queue, cfg.temperature)
            lv = LossValue(loss, loss, 0.0, zero_keys + zero_rows, stats,
                           lambda g: student_backward(loss_backward(g)))
        else:
            lv = symmetrized_loss(self.pair, v, v2, cfg.workers, alpha_k,
                                  perm_seed=perm_seed)
        self.zero_norm_rows += lv.zero_norm_rows
        loss_val = float(lv.loss)
        l1, l2 = float(lv.term_student_v), float(lv.term_student_v2)

        def metrics(drift: float) -> MetricsRecord:
            return MetricsRecord(iteration=k, epoch=epoch, loss=loss_val,
                                 l1=l1, l2=l2, lr=lr_k, m=m_k, alpha=alpha_k,
                                 hist_drift=drift, sec_per_iter=self._sec_model)

        def failed(what: str) -> NanLossError:
            return NanLossError(f"non-finite {what} at iteration {k}",
                                metrics(float("nan")))

        if not np.isfinite(loss_val):
            raise failed("loss")
        lv.backward(1.0)
        # One check over every gradient before the step and one over every
        # parameter after it.
        if not np.isfinite(student.grads).all():
            raise failed("gradient")
        sgd_step(self.opt, lr_k)
        if not np.isfinite(student.values).all():
            raise failed("parameter after the step")
        drift = commit_teacher_bn(self.pair, lv.teacher_stats, alpha_k)
        # The drift sums every history's change, so one check covers them all.
        if not np.isfinite(drift):
            raise NanLossError(
                f"non-finite teacher BN history drift at iteration {k}",
                metrics(drift))
        ema_update(self.pair, m_k)
        if self.is_moco:
            queue_update(self.queue, k_hat)
        return metrics(drift)

    def epoch_order(self, epoch: int) -> np.ndarray:
        return substream(self.cfg.seed, "shuffle", epoch).permutation(
            len(self.dataset))

    def run(self) -> TrainResult:
        """Loop train_step over all epochs and dump the teacher."""
        self.zero_norm_rows = 0
        cfg = self.cfg
        metrics: list[MetricsRecord] = []
        samples = self.dataset.samples
        k = 0
        for epoch in range(cfg.epochs):
            order = self.epoch_order(epoch)
            for start, size in zip(self.batch_starts, self.batch_sizes):
                # Gathered per batch: a shuffled copy of the whole dataset
                # would double the run's largest array.
                batch = samples[order[start:start + size]]
                try:
                    rec = self.train_step(batch, k)
                except NanLossError as e:
                    e.metrics = metrics
                    raise
                if k % cfg.log_interval == 0:
                    metrics.append(rec)
                k += 1
        payload = dump_teacher(self.pair.t_encoder)
        bad = [n for n, a in payload["arrays"].items() if not np.isfinite(a).all()]
        if bad:  # the last iteration made them; its record is the diagnostic
            raise NanLossError(f"non-finite teacher array {bad[0]} after "
                               f"iteration {k - 1}", rec,
                               [m for m in metrics if m is not rec])
        return TrainResult(payload=payload, metrics=metrics, config=cfg,
                           health={"zero_norm_rows": self.zero_norm_rows},
                           dataset=self.dataset)


def run_training(cfg: TrainConfig,
                 dataset: Optional[Dataset] = None) -> TrainResult:
    return Trainer(cfg, dataset=dataset).run()


# ---------------------------------------------------------------------------
# ablation grid


GRID_ROWS = (
    ("synced", "synced"),
    ("plain", "synced"),
    ("synced", "plain"),
    ("plain", "plain"),
    ("plain", "momentum"),
    ("synced", "momentum"),
)


def grid_trainers(cfg: TrainConfig) -> list[Trainer]:
    """One Trainer per ``GRID_ROWS`` combination of ``cfg`` (mode byol_m2t),
    sharing one dataset; building them all first raises any config-time
    error before a row runs."""
    dataset = build_dataset(cfg.data, cfg.seed)
    return [Trainer(replace(cfg, mode="byol_m2t", student_bn=student_bn,
                            teacher_bn=teacher_bn), dataset=dataset)
            for student_bn, teacher_bn in GRID_ROWS]


def ablation_grid(trainers: list[Trainer]) -> list[dict]:
    """Run every trainer of :func:`grid_trainers` (identical seeds and data
    order); report probe accuracy and the modeled cost per iteration."""
    from .evaluate import extract_features, linear_probe

    rows = []
    for trainer in trainers:
        cfg = trainer.cfg
        t0 = time.perf_counter()
        result = trainer.run()
        wall = time.perf_counter() - t0
        feats = extract_features(result.payload, result.dataset.samples)
        acc = linear_probe(feats, result.dataset.labels,
                           epochs=cfg.probe_epochs, lr=cfg.probe_lr,
                           seed=substream_int(cfg.seed, "probe"))
        rows.append({
            "student": cfg.student_bn,
            "teacher": cfg.teacher_bn,
            "accuracy": acc,
            "sec_per_iter_model": trainer._sec_model,
            "wall_seconds": wall,
            "metrics": result.metrics,
            "payload": result.payload,
        })
    return rows
