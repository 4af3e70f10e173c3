"""Encoder/projector/predictor MLPs and the student-teacher pair.

The student is the back-propagated network: encoder -> projector ->
predictor (byol_m2t only; moco has no predictor), with per-worker (or
simulated synced) BN between layers. The teacher mirrors the encoder and
projector only; its weights are an exponential moving average of the
student's and its BN layers normalize with momentum statistics (or one of
the baseline BN variants, for the ablation grid). Teacher parameters never
participate in gradients.

Whatever BN variant the teacher runs, each teacher BN layer keeps a
momentum history of its whole-batch statistics, committed once per
iteration. In momentum mode that history also drives the forward blend; in
the baseline modes it exists purely so that frozen-feature evaluation has
per-sample inference statistics.

Student, teacher and frozen inference run the same layer loop,
:func:`forward_mlp` (one fused :func:`m2t.engine.dense` op per layer), and
differ only in the per-layer BN specs they pass. The
teacher-dump layout lives here alone: :func:`dump_teacher` writes it and
:func:`load_teacher` checks it and reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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

    widths: tuple
    bn: tuple
    relu: tuple

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

    def to_dict(self) -> dict:
        return {"widths": list(self.widths), "bn": list(self.bn),
                "relu": list(self.relu)}

    @staticmethod
    def from_dict(d: dict) -> "MlpSpec":
        return MlpSpec(widths=tuple(d["widths"]), bn=tuple(d["bn"]),
                       relu=tuple(d["relu"]))


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
    return mlp_spec((dim, 32, 32))


@dataclass
class Layer:
    weight: Tensor
    bias: Tensor
    norm: Optional[NormParams]
    relu: bool
    state: Optional[MomentumBNState] = None


class Mlp:
    def __init__(self, name: str, spec: MlpSpec, layers: list[Layer]):
        self.name = name
        self.spec = spec
        self.layers = layers

    def params(self) -> list[tuple[str, Tensor, bool]]:
        """(name, tensor, excluded) triples; biases and BN affines carry the
        exclusion flag used by LARS and weight-decay filtering."""
        out = []
        for i, layer in enumerate(self.layers):
            out.append((f"{self.name}{i}.weight", layer.weight, False))
            out.append((f"{self.name}{i}.bias", layer.bias, True))
            if layer.norm is not None:
                out.append((f"{self.name}{i}.gamma", layer.norm.gamma, True))
                out.append((f"{self.name}{i}.beta", layer.norm.beta, True))
        return out

    def bn_states(self) -> list[MomentumBNState]:
        return [l.state for l in self.layers if l.state is not None]


def _init_mlp(name: str, spec: MlpSpec, rng: np.random.Generator,
              eps: float) -> Mlp:
    layers = []
    for i in range(spec.n_layers):
        fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        w = engine.parameter(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        b = engine.parameter(np.zeros(fan_out))
        norm = None
        if spec.bn[i]:
            norm = NormParams(gamma=engine.parameter(np.ones(fan_out)),
                              beta=engine.parameter(np.zeros(fan_out)), eps=eps)
        layers.append(Layer(weight=w, bias=b, norm=norm, relu=spec.relu[i]))
    return Mlp(name, spec, layers)


def _copy_as_teacher(mlp: Mlp) -> Mlp:
    layers = []
    for layer in mlp.layers:
        norm = None
        state = None
        if layer.norm is not None:
            norm = NormParams(
                gamma=Tensor(layer.norm.gamma.values.copy(), requires_grad=False),
                beta=Tensor(layer.norm.beta.values.copy(), requires_grad=False),
                eps=layer.norm.eps,
            )
            state = MomentumBNState()
        layers.append(Layer(
            weight=Tensor(layer.weight.values.copy(), requires_grad=False),
            bias=Tensor(layer.bias.values.copy(), requires_grad=False),
            norm=norm, relu=layer.relu, state=state,
        ))
    return Mlp("t_" + mlp.name, mlp.spec, layers)


class StudentTeacherPair:
    """Student (encoder, projector and, unless None, predictor) and its EMA
    teacher (encoder, projector)."""

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

    def student_mlps(self) -> list[Mlp]:
        return [m for m in (self.encoder, self.projector, self.predictor)
                if m is not None]

    def student_params(self):
        return [p for m in self.student_mlps() for p in m.params()]

    def ema_pairs(self) -> list[tuple[Tensor, Tensor]]:
        """(teacher tensor, student tensor) for every mirrored weight."""
        pairs = []
        for t_mlp, s_mlp in ((self.t_encoder, self.encoder),
                             (self.t_projector, self.projector)):
            for (_, t, _), (_, s, _) in zip(t_mlp.params(), s_mlp.params()):
                pairs.append((t, s))
        return pairs

    def teacher_bn_states(self) -> list[MomentumBNState]:
        return self.t_encoder.bn_states() + self.t_projector.bn_states()


def build_pair(encoder_spec: MlpSpec, projector_spec: MlpSpec,
               predictor_spec: Optional[MlpSpec], rng: np.random.Generator,
               student_bn: str = "plain", teacher_bn: str = "momentum",
               eps: float = 1e-5) -> StudentTeacherPair:
    """The pair for the given specs; ``predictor_spec=None`` builds none.
    ``ValueError`` naming the role whose specs do not chain (a
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


def forward_mlp(mlp: Mlp, x: Tensor,
                norm: Callable[[Layer], BNSpec]) -> Tensor:
    """The one MLP layer loop: one fused :func:`engine.dense` per layer,
    with ``norm(layer)`` the BN spec of each BN layer. Each role (student,
    teacher, frozen inference) differs only in the specs it passes."""
    for layer in mlp.layers:
        x = engine.dense(x, layer.weight, layer.bias, layer.relu,
                         None if layer.norm is None else norm(layer))
    return x


def forward_student(pair: StudentTeacherPair, v,
                    workers: int) -> tuple[Tensor, Optional[Tensor]]:
    """Full student pass: returns (projection z, prediction p); p is None
    for a pair without predictor. Plain BN normalizes each of the
    ``workers`` slices of the batch (one group per worker), synced BN the
    whole batch (one group)."""
    groups = workers if pair.student_bn == "plain" else 1

    def norm(layer: Layer) -> BNSpec:
        return BNSpec(layer.norm, groups)

    z = forward_mlp(pair.encoder, v, norm)
    z = forward_mlp(pair.projector, z, norm)
    if pair.predictor is None:
        return z, None
    return z, forward_mlp(pair.predictor, z, norm)


def teacher_norm(kind: str, alpha: float, workers: Optional[int] = None,
                 perm_seed: Optional[int] = None,
                 batch_size: Optional[int] = None) -> Callable[[Layer], BNSpec]:
    """BN specs of a teacher pass with BN ``kind`` over ``workers`` slices
    of a ``batch_size``-row batch (the size only matters for shuffling).

    Every kind appends each layer's whole-batch statistics to its state's
    pending list for the history commit. Momentum BN normalizes with their
    blend with the history; the baseline kinds normalize with batch
    statistics per worker (plain), over the whole batch (synced) or per
    worker after a seeded permutation across workers (shuffling).
    """
    if kind == "momentum":
        return lambda layer: BNSpec(layer.norm,
                                    stats=momentum_stats(layer.state, alpha))
    if workers is None:
        raise ValueError(f"teacher BN kind {kind!r} needs a worker count")
    groups = 1 if kind == "synced" else workers
    perm = shuffle_permutation(batch_size, perm_seed) \
        if kind == "shuffling" else None

    def norm(layer: Layer) -> BNSpec:
        pending = layer.state.pending

        def record_stats(h: np.ndarray) -> None:
            # Whole-batch statistics go to the history commit however the
            # samples are grouped; returning None normalizes with batch
            # statistics.
            pending.append(constant_batch_stats(h))

        return BNSpec(layer.norm, groups, record_stats, perm)

    return norm


def forward_teacher(pair: StudentTeacherPair, v, alpha: float,
                    workers: Optional[int] = None,
                    perm_seed: Optional[int] = None) -> Tensor:
    """Teacher pass: projection z' with no gradient participation.

    Each BN layer's per-view statistics land on its state's pending list;
    commit them once per iteration via :func:`commit_teacher_bn`.
    """
    x = engine.constant(np.asarray(v.values if isinstance(v, Tensor) else v))
    norm = teacher_norm(pair.teacher_bn, alpha, workers, perm_seed,
                        x.shape[0])
    x = forward_mlp(pair.t_encoder, x, norm)
    return forward_mlp(pair.t_projector, x, norm)


def history_norm(layer: Layer) -> BNSpec:
    """Inference BN: normalize with the layer's stored history alone, so a
    sample's output does not depend on the rest of its batch."""
    return BNSpec(layer.norm,
                  stats=(layer.state.hist_mean, layer.state.hist_var))


# ---------------------------------------------------------------------------
# EMA and commits


def ema_update(pair: StudentTeacherPair, m: float) -> None:
    """teacher <- (1 - m) * teacher + m * student for every mirrored weight,
    including BN gamma/beta. Momentum BN histories are never touched here."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"EMA coefficient must lie in [0, 1], got {m}")
    for t, s in pair.ema_pairs():
        t.values = (1.0 - m) * t.values + m * s.values


def commit_teacher_bn(pair: StudentTeacherPair, alpha: float) -> float:
    """Lazily commit every teacher BN layer's pending view statistics.

    Returns the total L2 drift of the histories, the per-iteration
    history-movement metric.
    """
    drift_sq = 0.0
    for state in pair.teacher_bn_states():
        if not state.pending:
            continue
        # The first commit measures drift from zero (x - 0.0 == x exactly).
        before_mean = 0.0 if state.hist_mean is None else state.hist_mean.copy()
        before_var = 0.0 if state.hist_var is None else state.hist_var.copy()
        momentum_bn_lazy_commit(state, alpha)
        drift_sq += float(np.sum((state.hist_mean - before_mean) ** 2))
        drift_sq += float(np.sum((state.hist_var - before_var) ** 2))
    return float(np.sqrt(drift_sq))


# ---------------------------------------------------------------------------
# teacher dump


def dump_teacher(encoder: Mlp) -> dict:
    """Serializable payload of a teacher encoder (``pair.t_encoder``):
    weights, BN affines and final momentum histories. This is the frozen
    feature extractor; the projector and the student's predictor are
    deliberately excluded."""
    arrays: dict[str, np.ndarray] = {}
    init_flags = []
    bn_eps = []
    for i, layer in enumerate(encoder.layers):
        arrays[f"enc{i}.weight"] = layer.weight.values.copy()
        arrays[f"enc{i}.bias"] = layer.bias.values.copy()
        if layer.norm is not None:
            arrays[f"enc{i}.gamma"] = layer.norm.gamma.values.copy()
            arrays[f"enc{i}.beta"] = layer.norm.beta.values.copy()
            state = layer.state
            width = layer.weight.shape[1]
            if state is not None and state.initialized:
                arrays[f"enc{i}.hist_mean"] = state.hist_mean.copy()
                arrays[f"enc{i}.hist_var"] = state.hist_var.copy()
                init_flags.append(True)
            else:
                arrays[f"enc{i}.hist_mean"] = np.zeros(width)
                arrays[f"enc{i}.hist_var"] = np.ones(width)
                init_flags.append(False)
            bn_eps.append(layer.norm.eps)
    return {
        "encoder_spec": encoder.spec.to_dict(),
        "bn_initialized": init_flags,
        "bn_eps": bn_eps,
        "arrays": arrays,
    }


def load_teacher(payload: dict) -> Mlp:
    """The frozen teacher encoder of a :func:`dump_teacher` payload (its
    inverse; tensors share the payload's arrays). ``ValueError`` unless the
    payload has a valid ``encoder_spec``, exactly its arrays and BN lists."""
    try:
        spec = MlpSpec.from_dict(payload["encoder_spec"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"teacher dump: bad encoder_spec ({e!r})") from None
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
    init_flags, bn_eps = iter(init_flags), iter(bn_eps)
    layers = []
    for i in range(spec.n_layers):
        norm = state = None
        if spec.bn[i]:
            norm = NormParams(gamma=Tensor(arrays[f"enc{i}.gamma"]),
                              beta=Tensor(arrays[f"enc{i}.beta"]),
                              eps=next(bn_eps))
            state = MomentumBNState(hist_mean=arrays[f"enc{i}.hist_mean"],
                                    hist_var=arrays[f"enc{i}.hist_var"],
                                    initialized=next(init_flags))
        layers.append(Layer(weight=Tensor(arrays[f"enc{i}.weight"]),
                            bias=Tensor(arrays[f"enc{i}.bias"]),
                            norm=norm, relu=spec.relu[i], state=state))
    return Mlp("t_enc", spec, layers)


def expected_array_shapes(spec: MlpSpec) -> dict:
    """Name -> shape of every array a valid teacher dump holds, no more."""
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(spec.widths, spec.widths[1:])):
        shapes[f"enc{i}.weight"] = (fan_in, fan_out)
        names = ("bias", "gamma", "beta", "hist_mean", "hist_var")
        for name in names if spec.bn[i] else names[:1]:
            shapes[f"enc{i}.{name}"] = (fan_out,)
    return shapes
