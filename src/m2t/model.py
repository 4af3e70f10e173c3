"""Encoder/projector/predictor MLPs and the student-teacher pair.

The student is the back-propagated network: encoder -> projector ->
predictor (byol_m2t only; moco has no predictor), with per-worker (or
simulated synced) BN between layers. The teacher mirrors the encoder and
projector only; its weights are an exponential moving average of the
student's and its BN layers normalize with momentum statistics (or one of
the baseline BN variants, for the ablation grid). Teacher parameters never
participate in gradients.

Whatever BN variant the teacher runs, it keeps one momentum history of
its BN layers' whole-batch statistics over every channel (the pair's
``history``), which each layer reaches through its channel range. A pass
returns its per-view statistics and :func:`commit_teacher_bn` commits
them once per iteration. In momentum mode the history also drives the
forward blend; in the baseline modes it exists purely so that
frozen-feature evaluation has per-sample inference statistics.

Student, teacher and frozen inference run the same layer loop,
:func:`forward_mlp` (one fused :func:`m2t.engine.dense` op per layer), and
differ only in the per-layer BN specs they pass. The loop returns its
backward, the layers' closures chained in reverse; only the student runs
it, and the teacher and inference drop it. The
teacher-dump layout lives here alone: :func:`dump_teacher` writes it and
:func:`load_teacher` checks it and reads it back.

The student's parameters and the teacher's mirrored weights each live in
one flat :class:`Arena`, so with the one history the per-iteration updates
(:func:`ema_update`, :func:`commit_teacher_bn` and the trainer's SGD step)
are a few whole-vector operations instead of one set per block or layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import engine
from .engine import BNSpec, DimensionError, Tensor
from .normalization import (
    MomentumBNState,
    NormParams,
    constant_batch_stats,
    momentum_bn_lazy_commit,
    momentum_stats,
    shuffle_permutation,
)

STUDENT_BN_KINDS = ("plain", "synced")
TEACHER_BN_KINDS = ("momentum", "plain", "synced", "shuffling")

@dataclass(frozen=True)
class MlpSpec:
    """Layer widths plus per-layer BN/ReLU flags (one flag per layer)."""

    widths: tuple[int, ...]
    bn: tuple[bool, ...]
    relu: tuple[bool, ...]

    def __post_init__(self):
        if not (all(type(w) is int for w in self.widths)
                and all(type(f) is bool for f in self.bn + self.relu)):
            raise ValueError(f"widths must be ints and flags bools: {self}")
        if len(self.widths) < 2:
            raise ValueError("an MLP needs at least one layer (two widths)")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be >= 1, got {self.widths}")
        n = self.n_layers
        if len(self.bn) != n or len(self.relu) != n:
            raise ValueError(
                f"need {n} bn/relu flags for widths {self.widths}, "
                f"got {len(self.bn)}/{len(self.relu)}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]


def mlp_spec(widths: Sequence[int], final_plain: bool = True) -> MlpSpec:
    """BN+ReLU after every layer except, by default, the last."""
    n = len(widths) - 1
    flags = tuple(True if i < n - 1 or not final_plain else False
                  for i in range(n))
    return MlpSpec(widths=tuple(widths), bn=flags, relu=flags)


def default_encoder_spec(in_dim: int) -> MlpSpec:
    return MlpSpec(widths=(in_dim, 64, 64), bn=(True, True), relu=(True, True))


def default_projector_spec(in_dim: int = 64) -> MlpSpec:
    return mlp_spec((in_dim, 64, 32))


def default_predictor_spec(dim: int = 32) -> MlpSpec:
    return mlp_spec((dim, 32, dim))


class Param(NamedTuple):
    """A named parameter tensor. ``exclude`` marks biases and BN affines,
    which LARS scaling and weight-decay filtering leave out."""

    name: str
    tensor: Tensor
    exclude: bool = False


class Arena:
    """Parameter tensors whose values are consecutive views of one float64
    vector, in the given order, with their gradients views of a second
    vector of the same layout; an update over all of them is then a few
    whole-vector numpy operations.

    The two vectors are the only home of the blocks' values and gradients,
    and each tensor's ``values`` and ``grad`` are bound to their views at
    construction: write blocks in place (``t.values[...] = x``), never
    rebind them. :meth:`check_views` rejects a rebound block;
    :meth:`zero_grads` and :func:`ema_update` run it.
    """

    def __init__(self, params: Sequence[Param]):
        self.params = tuple(params)
        ends = list(accumulate((p.tensor.size for p in self.params),
                               initial=0))
        #: (start, stop) of each parameter's block in the vectors.
        self.bounds = list(zip(ends, ends[1:]))
        self.values = np.empty(ends[-1])
        self.grads = np.zeros(ends[-1])
        for p, (a, b) in zip(self.params, self.bounds):
            t = p.tensor
            view = self.values[a:b].reshape(t.shape)
            view[...] = t.values
            t.values, t.grad = view, self.grads[a:b].reshape(t.shape)
        self._views = [(p.tensor.values, p.tensor.grad) for p in self.params]

    def check_views(self) -> None:
        """``ValueError`` naming a block whose ``values`` or ``grad`` is no
        longer its view of the arena's vectors."""
        for p, (values, grad) in zip(self.params, self._views):
            t = p.tensor
            if t.values is not values or t.grad is not grad:
                name = "values" if t.values is not values else "grad"
                raise ValueError(f"{p.name}: {name} rebound away from the "
                                 f"arena; write parameter blocks in place")

    def zero_grads(self) -> None:
        """Zero the gradient vector, which a backward adds each block's
        gradient into, after :meth:`check_views`."""
        self.check_views()
        self.grads.fill(0.0)


@dataclass
class Layer:
    weight: Tensor
    bias: Tensor
    norm: Optional[NormParams]
    relu: bool
    channels: Optional[slice] = None  # a teacher BN layer's history range


class Mlp:
    def __init__(self, name: str, spec: MlpSpec, layers: list[Layer]):
        self.name = name
        self.spec = spec
        self.layers = layers
        # The BN history a teacher's or frozen encoder's layers index.
        self.history: Optional[MomentumBNState] = None

    def params(self) -> list[Param]:
        """Every weight, bias and BN affine in layer order; biases and BN
        affines carry ``exclude``."""
        out = []
        for i, layer in enumerate(self.layers):
            out.append(Param(f"{self.name}{i}.weight", layer.weight, False))
            out.append(Param(f"{self.name}{i}.bias", layer.bias, True))
            if layer.norm is not None:
                out.append(Param(f"{self.name}{i}.gamma", layer.norm.gamma,
                                 True))
                out.append(Param(f"{self.name}{i}.beta", layer.norm.beta,
                                 True))
        return out


def _init_mlp(name: str, spec: MlpSpec, rng: np.random.Generator,
              eps: float) -> Mlp:
    layers = []
    for i in range(spec.n_layers):
        fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        w = Tensor(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        b = Tensor(np.zeros(fan_out))
        norm = None
        if spec.bn[i]:
            norm = NormParams(gamma=Tensor(np.ones(fan_out)),
                              beta=Tensor(np.zeros(fan_out)), eps=eps)
        layers.append(Layer(weight=w, bias=b, norm=norm, relu=spec.relu[i]))
    return Mlp(name, spec, layers)


def _copy_as_teacher(mlp: Mlp) -> Mlp:
    layers = []
    for layer in mlp.layers:
        norm = None
        if layer.norm is not None:
            norm = NormParams(gamma=Tensor(layer.norm.gamma.values.copy()),
                              beta=Tensor(layer.norm.beta.values.copy()),
                              eps=layer.norm.eps)
        layers.append(Layer(weight=Tensor(layer.weight.values.copy()),
                            bias=Tensor(layer.bias.values.copy()),
                            norm=norm, relu=layer.relu))
    return Mlp("t_" + mlp.name, mlp.spec, layers)


def _share_history(mlps: Sequence[Mlp]) -> MomentumBNState:
    """Give the BN layers of ``mlps`` consecutive ranges, in layer order, of
    one new history (identity statistics), which every MLP refers to."""
    end = 0
    for layer in (l for m in mlps for l in m.layers if l.norm is not None):
        layer.channels = slice(end, end := end + layer.norm.gamma.size)
    history = MomentumBNState(np.zeros(end), np.ones(end))
    for m in mlps:
        m.history = history
    return history


class StudentTeacherPair:
    """Student (encoder, projector and, unless None, predictor) and its EMA
    teacher (encoder, projector).

    ``student`` is the arena of :meth:`student_params`. ``teacher`` is the
    arena of the teacher's mirrored weights, laid out as the student
    arena's encoder-plus-projector prefix. ``history`` is the teacher's one
    BN history: every teacher BN channel, encoder first, then projector, in
    layer order.
    """

    def __init__(self, encoder: Mlp, projector: Mlp, predictor: Optional[Mlp],
                 student_bn: str = "plain", teacher_bn: str = "momentum"):
        if student_bn not in STUDENT_BN_KINDS:
            raise ValueError(f"student_bn must be one of {STUDENT_BN_KINDS}")
        if teacher_bn not in TEACHER_BN_KINDS:
            raise ValueError(f"teacher_bn must be one of {TEACHER_BN_KINDS}")
        self.encoder = encoder
        self.projector = projector
        self.predictor = predictor
        self.student_bn = student_bn
        self.teacher_bn = teacher_bn
        self.t_encoder = _copy_as_teacher(encoder)
        self.t_projector = _copy_as_teacher(projector)
        self.history = _share_history((self.t_encoder, self.t_projector))
        self.student = Arena(self.student_params())
        self.teacher = Arena(self.t_encoder.params()
                             + self.t_projector.params())

    def student_mlps(self) -> list[Mlp]:
        return [m for m in (self.encoder, self.projector, self.predictor)
                if m is not None]

    def student_params(self):
        return [p for m in self.student_mlps() for p in m.params()]

    def teacher_bn_layers(self) -> list[Layer]:
        """The teacher's BN layers, in the order of their history ranges."""
        return [l for m in (self.t_encoder, self.t_projector)
                for l in m.layers if l.norm is not None]


def build_pair(encoder_spec: MlpSpec, projector_spec: MlpSpec,
               predictor_spec: Optional[MlpSpec], rng: np.random.Generator,
               student_bn: str = "plain", teacher_bn: str = "momentum",
               eps: float = 1e-5) -> StudentTeacherPair:
    """The pair for the given specs; ``predictor_spec=None`` builds none.
    ``ValueError`` naming the role whose widths do not chain or match (a
    ``DimensionError``) or whose arrays numpy cannot allocate."""
    if encoder_spec.out_dim != projector_spec.in_dim:
        raise DimensionError(
            f"projector: input width {projector_spec.in_dim} != encoder "
            f"output width {encoder_spec.out_dim}")
    if predictor_spec is not None \
            and projector_spec.out_dim != predictor_spec.in_dim:
        raise DimensionError(
            f"predictor: input width {predictor_spec.in_dim} != projector "
            f"output width {projector_spec.out_dim}")
    if predictor_spec is not None \
            and predictor_spec.out_dim != projector_spec.out_dim:
        raise DimensionError(
            f"predictor: output width {predictor_spec.out_dim} != projector "
            f"output width {projector_spec.out_dim}")
    mlps = []
    for role, name, spec in (("encoder", "enc", encoder_spec),
                             ("projector", "proj", projector_spec),
                             ("predictor", "pred", predictor_spec)):
        try:
            mlps.append(None if spec is None
                        else _init_mlp(name, spec, rng, eps=eps))
        except (ValueError, MemoryError) as e:
            raise ValueError(f"{role}: cannot allocate the arrays of widths "
                             f"{list(spec.widths)} ({e})") from None
    return StudentTeacherPair(*mlps, student_bn=student_bn,
                              teacher_bn=teacher_bn)


# ---------------------------------------------------------------------------
# forwards


def _layer_params(layer: Layer) -> tuple:
    """The layer's parameters in the order :func:`engine.dense` gives
    their gradients."""
    if layer.norm is None:
        return layer.weight, layer.bias
    return layer.weight, layer.bias, layer.norm.gamma, layer.norm.beta


def forward_mlp(mlp: Mlp, x: np.ndarray,
                norm: Callable[[Layer], BNSpec]) -> tuple:
    """The one MLP layer loop: one fused :func:`engine.dense` per layer over
    ``x``, (B, C) rows of one view or a (V, B, C) stack of views, with
    ``norm(layer)`` the BN spec of each BN layer. Each role (student,
    teacher, frozen inference) differs only in the specs it passes.

    Returns ``(out, backward)``. ``backward(g, need_dx=True)`` runs the
    layers' backwards in reverse, handing each input gradient straight to
    the layer below, adds each parameter gradient into its tensor's
    ``grad`` (the zeroed arena view) and returns the gradient of ``x``, or
    None unless ``need_dx``. A forward-only caller drops it."""
    backwards = []
    for layer in mlp.layers:
        x, layer_backward = engine.dense(
            x, layer.weight.values, layer.bias.values, layer.relu,
            None if layer.norm is None else norm(layer))
        backwards.append(layer_backward)

    def backward(g: np.ndarray, need_dx: bool = True) -> Optional[np.ndarray]:
        for i in reversed(range(len(backwards))):
            g, *grads = backwards[i](g, need_dx or i > 0)
            for t, grad in zip(_layer_params(mlp.layers[i]), grads):
                t.grad += grad
        return g

    return x, backward


def forward_student(pair: StudentTeacherPair, v: np.ndarray,
                    workers: int) -> tuple:
    """Full student pass over ``v``, (B, C) rows of one view or a (V, B, C)
    stack of views: returns (projection z, prediction p, backward), z and p
    shaped as ``v`` but for the width; p is None for a pair without
    predictor. ``backward(g)`` takes the gradient of the pass's last output
    (p, or z without a predictor) and adds every student parameter's
    gradient into its zeroed arena view; ``v`` is data and gets none.
    Plain BN normalizes each of the ``workers`` slices of each view, synced
    BN each whole view."""
    groups = workers if pair.student_bn == "plain" else 1

    def norm(layer: Layer) -> BNSpec:
        return BNSpec(layer.norm, groups)

    h, encoder_backward = forward_mlp(pair.encoder, v, norm)
    z, projector_backward = forward_mlp(pair.projector, h, norm)
    p = predictor_backward = None
    if pair.predictor is not None:
        p, predictor_backward = forward_mlp(pair.predictor, z, norm)

    def backward(g: np.ndarray) -> None:
        if predictor_backward is not None:
            g = predictor_backward(g)
        encoder_backward(projector_backward(g), need_dx=False)

    return z, p, backward


def teacher_norm(history: MomentumBNState, kind: str, alpha: float,
                 out: tuple, workers: Optional[int] = None,
                 perm: Optional[np.ndarray] = None
                 ) -> Callable[[Layer], BNSpec]:
    """BN specs of one teacher pass with BN ``kind`` over one view or a
    stack of views, each view split into ``workers`` slices, for layers
    whose ``channels`` index ``history``.

    Every layer, whatever the kind, writes each view's statistics into its
    channel range of ``out``, the pass's ``(mean, var)`` arrays of one row
    per view in stack order. Momentum BN normalizes each view with the
    blend of its statistics with the history; the baseline kinds normalize
    with batch statistics per worker (plain), over the whole view (synced)
    or per worker after the permutation ``perm`` of each view's rows
    (shuffling).
    """
    momentum = kind == "momentum"
    if not momentum and workers is None:
        raise ValueError(f"teacher BN kind {kind!r} needs a worker count")
    groups = 1 if kind in ("momentum", "synced") else workers
    out_mean, out_var = out

    def norm(layer: Layer) -> BNSpec:
        channels = layer.channels

        def stats(h: np.ndarray) -> Optional[tuple]:
            # Per-view statistics go to the commit however the samples are
            # grouped; None normalizes with batch statistics.
            mean, var = constant_batch_stats(h)
            out_mean[:, channels] = mean
            out_var[:, channels] = var
            return momentum_stats(history, channels, mean, var, alpha) \
                if momentum else None

        return BNSpec(layer.norm, groups, stats, perm)

    return norm


def forward_teacher(pair: StudentTeacherPair, v: np.ndarray, alpha: float,
                    workers: Optional[int] = None,
                    perm_seed: Optional[int] = None) -> tuple:
    """Teacher pass over ``v``, (B, C) rows of one view or a (V, B, C)
    stack of views: ``(z, (mean, var))``, the projection z', a gradient
    constant (the pass's backward is dropped), and the statistics of every
    teacher BN channel, one row per view in stack order.

    The pass reads ``pair.history`` and leaves it untouched; commit its
    statistics once per iteration via :func:`commit_teacher_bn`. Shuffling
    BN permutes the rows of every view by the same seeded permutation.
    """
    history, kind = pair.history, pair.teacher_bn
    perm = shuffle_permutation(v.shape[-2], perm_seed) \
        if kind == "shuffling" else None
    shape = (v.shape[0] if v.ndim == 3 else 1, history.hist_mean.size)
    stats = np.empty(shape), np.empty(shape)
    norm = teacher_norm(history, kind, alpha, stats, workers, perm)
    h, _ = forward_mlp(pair.t_encoder, v, norm)
    z, _ = forward_mlp(pair.t_projector, h, norm)
    return z, stats


def history_norm(history: MomentumBNState) -> Callable[[Layer], BNSpec]:
    """Inference BN: each layer normalizes with its range of ``history``
    alone, so a sample's output does not depend on the rest of its batch."""
    return lambda layer: BNSpec(layer.norm,
                                stats=(history.hist_mean[layer.channels],
                                       history.hist_var[layer.channels]))


# ---------------------------------------------------------------------------
# EMA and commits


def ema_update(pair: StudentTeacherPair, m: float) -> None:
    """teacher <- (1 - m) * teacher + m * student for every mirrored weight,
    including BN gamma/beta, as whole-vector operations on the teacher
    arena and the student arena's prefix. Momentum BN histories are never
    touched here. ``ValueError`` naming a teacher block whose ``values`` was
    rebound away from the arena (:meth:`Arena.check_views`), before any
    write."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"EMA coefficient must lie in [0, 1], got {m}")
    pair.teacher.check_views()
    t = pair.teacher.values
    t *= 1.0 - m
    t += m * pair.student.values[:t.size]


def commit_teacher_bn(pair: StudentTeacherPair, stats: tuple,
                      alpha: float) -> float:
    """Lazily commit the per-view ``stats`` of a teacher pass
    (:func:`forward_teacher`) into the teacher's history (one
    :func:`momentum_bn_lazy_commit`). Returns the history's total L2 drift,
    the per-iteration history-movement metric, summed layer by layer."""
    history = pair.history
    # The commit writes the history in place, so keep a copy as the
    # "before"; the first commit measures drift from zero (x - 0.0 == x).
    before_mean = before_var = 0.0
    if history.initialized:
        before_mean = history.hist_mean.copy()
        before_var = history.hist_var.copy()
    momentum_bn_lazy_commit(history, *stats, alpha)
    d_mean = np.square(history.hist_mean - before_mean)
    d_var = np.square(history.hist_var - before_var)
    drift_sq = 0.0
    for layer in pair.teacher_bn_layers():
        # np.add.reduce is np.sum's arithmetic without its wrapper.
        drift_sq += float(np.add.reduce(d_mean[layer.channels]))
        drift_sq += float(np.add.reduce(d_var[layer.channels]))
    return float(np.sqrt(drift_sq))


# ---------------------------------------------------------------------------
# teacher dump


def dump_teacher(encoder: Mlp) -> dict:
    """Serializable payload of a teacher encoder (``pair.t_encoder``):
    weights, BN affines and each BN layer's range of the momentum history
    (identity statistics before the first commit). This is the frozen
    feature extractor; the projector and the student's predictor are
    deliberately excluded."""
    from .config import encode  # config imports this module

    arrays: dict[str, np.ndarray] = {}
    history = encoder.history
    bn_eps = []
    for i, layer in enumerate(encoder.layers):
        arrays[f"enc{i}.weight"] = layer.weight.values.copy()
        arrays[f"enc{i}.bias"] = layer.bias.values.copy()
        if layer.norm is not None:
            arrays[f"enc{i}.gamma"] = layer.norm.gamma.values.copy()
            arrays[f"enc{i}.beta"] = layer.norm.beta.values.copy()
            ch = layer.channels
            arrays[f"enc{i}.hist_mean"] = history.hist_mean[ch].copy()
            arrays[f"enc{i}.hist_var"] = history.hist_var[ch].copy()
            bn_eps.append(layer.norm.eps)
    return {
        "encoder_spec": encode(encoder.spec),
        "bn_initialized": [history.initialized] * len(bn_eps),
        "bn_eps": bn_eps,
        "arrays": arrays,
    }


def load_teacher(payload: dict) -> Mlp:
    """The frozen teacher encoder of a :func:`dump_teacher` payload (its
    inverse; tensors share the payload's arrays, and the BN histories are
    copied into one history). ``ValueError`` unless the payload has an
    ``encoder_spec`` that decodes by the config rule (a
    :class:`m2t.config.ConfigError` naming its path otherwise), exactly its
    arrays and BN lists, and BN layers that agree on whether their history
    is initialized."""
    from .config import decode  # config imports this module

    spec = decode(MlpSpec, payload.get("encoder_spec"), "encoder_spec")
    arrays = payload["arrays"]
    found = {name: arr.shape for name, arr in arrays.items()}
    want = expected_array_shapes(spec)
    if found != want:
        raise ValueError(
            f"teacher dump arrays do not match its encoder_spec: missing or "
            f"misshapen {sorted(want.items() - found.items())}, unexpected "
            f"{sorted(found.items() - want.items())}")
    init_flags, bn_eps = payload.get("bn_initialized"), payload.get("bn_eps")
    if not (isinstance(init_flags, list) and isinstance(bn_eps, list)
            and len(init_flags) == len(bn_eps) == sum(spec.bn)
            and all(type(f) is bool for f in init_flags)
            and all(type(e) in (int, float) for e in bn_eps)):
        raise ValueError(f"teacher dump: need one bool bn_initialized and one "
                         f"number bn_eps per BN layer, got {init_flags!r} and "
                         f"{bn_eps!r}")
    if len(set(init_flags)) > 1:
        raise ValueError(f"teacher dump: BN layers share one history, so "
                         f"their bn_initialized must agree, got {init_flags!r}")
    bn_eps = iter(bn_eps)
    layers = []
    for i in range(spec.n_layers):
        norm = None
        if spec.bn[i]:
            norm = NormParams(gamma=Tensor(arrays[f"enc{i}.gamma"]),
                              beta=Tensor(arrays[f"enc{i}.beta"]),
                              eps=next(bn_eps))
        layers.append(Layer(weight=Tensor(arrays[f"enc{i}.weight"]),
                            bias=Tensor(arrays[f"enc{i}.bias"]),
                            norm=norm, relu=spec.relu[i]))
    encoder = Mlp("t_enc", spec, layers)
    history = _share_history([encoder])
    history.initialized = all(init_flags)
    for i, layer in enumerate(layers):
        if layer.norm is not None:
            history.hist_mean[layer.channels] = arrays[f"enc{i}.hist_mean"]
            history.hist_var[layer.channels] = arrays[f"enc{i}.hist_var"]
    return encoder


def expected_array_shapes(spec: MlpSpec) -> dict:
    """Name -> shape of every array a valid teacher dump holds, no more."""
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(spec.widths, spec.widths[1:])):
        shapes[f"enc{i}.weight"] = (fan_in, fan_out)
        names = ("bias", "gamma", "beta", "hist_mean", "hist_var")
        for name in names if spec.bn[i] else names[:1]:
            shapes[f"enc{i}.{name}"] = (fan_out,)
    return shapes
