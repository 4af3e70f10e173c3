"""Run configuration: dataclasses, JSON (de)serialization, presets.

Configs are plain JSON documents. Every config dataclass (the run's, its
data, augmentation and model specs, and a teacher dump's encoder spec)
goes to and from JSON through one pair, :func:`decode` and :func:`encode`.
Decoding is strict: unknown keys and type mismatches are reported with
their full field path so a bad config fails loudly before any compute
happens. ``key.path=value`` override strings (values parsed as JSON,
falling back to raw strings) are applied to the document before
validation.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Optional, get_args, get_origin, get_type_hints

from .data import AugmentSpec
from .model import STUDENT_BN_KINDS, TEACHER_BN_KINDS, MlpSpec
from .schedules import SCHEDULE_KINDS

MODES = ("byol_m2t", "moco")
OPTIMIZERS = ("sgd", "lars")

# InfoNCE sums exp(cosine / temperature) over the positive and
# queue_capacity negatives without a max-shift, so moco needs
# 1/temperature + ln(1 + queue_capacity) below this. It is ln(DBL_MAX / 2):
# at ln(DBL_MAX) itself, cosines a few ulps above 1 and the rounding of the
# sum still overflow; one binade of headroom absorbs them.
INFONCE_LOG_LIMIT = math.log(sys.float_info.max / 2)


class ConfigError(ValueError):
    """Invalid configuration; message starts with the offending field path."""


@dataclass
class DataConfig:
    kind: str = "synthetic"          # synthetic | idx
    num_classes: int = 10
    dim: int = 32
    per_class: int = 500
    spread: float = 0.3
    images_path: Optional[str] = None
    labels_path: Optional[str] = None

    def validate(self, path: str = "data") -> None:
        if self.kind not in ("synthetic", "idx"):
            raise ConfigError(f"{path}.kind: must be 'synthetic' or 'idx'")
        if self.kind == "synthetic":
            if self.num_classes < 2:
                raise ConfigError(f"{path}.num_classes: must be >= 2")
            if self.dim < 2:
                raise ConfigError(f"{path}.dim: must be >= 2")
            if self.per_class < 1:
                raise ConfigError(f"{path}.per_class: must be >= 1")
            if self.spread < 0:
                raise ConfigError(f"{path}.spread: must be >= 0")
        else:
            if not self.images_path:
                raise ConfigError(f"{path}.images_path: required for kind 'idx'")


@dataclass
class TrainConfig:
    # identity of the run
    mode: str
    seed: int
    epochs: int

    # batching
    batch_size: int = 128
    workers: int = 4

    # optimization
    optimizer: str = "sgd"
    lr_base: float = 0.4
    weight_decay: float = 1e-4
    sgd_momentum: float = 0.9
    trust_coeff: float = 0.001
    wd_exclude_bias_bn: bool = False
    warmup_epochs: int = 1
    warmup_factor: float = 0.001
    reference_batch: int = 256
    auto_scale: bool = False

    # teacher coefficients
    m_base: float = 0.032
    m_schedule: str = "cosine_to_zero"
    alpha_base: float = 1.0
    alpha_schedule: str = "cosine_to_zero"

    # normalization wiring
    student_bn: str = "plain"
    teacher_bn: str = "momentum"
    eps: float = 1e-5

    # contrastive mode
    temperature: float = 0.2
    queue_capacity: int = 256

    # model (None -> package defaults sized from the data dim)
    encoder: Optional[MlpSpec] = None
    projector: Optional[MlpSpec] = None
    predictor: Optional[MlpSpec] = None

    # data and augmentation
    data: DataConfig = field(default_factory=DataConfig)
    augment: AugmentSpec = field(default_factory=AugmentSpec)

    # evaluation
    probe_epochs: int = 80
    probe_lr: float = 0.5

    # bookkeeping
    log_interval: int = 10

    def validate(self) -> None:
        self.data.validate()
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}, got {self.mode!r}")
        check_seed(self.seed, "seed")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer: must be one of {OPTIMIZERS}")
        if self.epochs < 0:
            raise ConfigError("epochs: must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size: must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")
        if self.batch_size % self.workers != 0:
            raise ConfigError(
                f"workers: batch_size {self.batch_size} not divisible by "
                f"{self.workers}")
        for name in ("lr_base", "m_base", "alpha_base"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must be >= 0")
        if self.alpha_base > 1:
            raise ConfigError("alpha_base: must lie in [0, 1]")
        if self.m_base > 1:
            raise ConfigError("m_base: must lie in [0, 1]")
        if not 0 <= self.sgd_momentum < 1:
            raise ConfigError("sgd_momentum: must lie in [0, 1)")
        if not self.weight_decay >= 0:
            raise ConfigError("weight_decay: must be >= 0")
        if not self.trust_coeff > 0:
            raise ConfigError("trust_coeff: must be > 0")
        for name in ("m_schedule", "alpha_schedule"):
            if getattr(self, name) not in SCHEDULE_KINDS:
                raise ConfigError(f"{name}: must be one of {SCHEDULE_KINDS}")
        if self.temperature <= 0:
            raise ConfigError("temperature: must be > 0")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity: must be >= 1")
        if self.mode == "moco" and (1.0 / self.temperature
                                    + math.log1p(self.queue_capacity)
                                    >= INFONCE_LOG_LIMIT):
            raise ConfigError(
                f"temperature: {self.temperature} overflows InfoNCE over "
                f"1 + {self.queue_capacity} logits; need 1/temperature + "
                f"ln(1 + queue_capacity) < {INFONCE_LOG_LIMIT:.2f}")
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs: must be >= 0")
        if not 0 < self.warmup_factor <= 1:
            raise ConfigError("warmup_factor: must lie in (0, 1]")
        if self.reference_batch < 1:
            raise ConfigError("reference_batch: must be >= 1")
        if self.eps <= 0:
            raise ConfigError("eps: must be > 0")
        if self.probe_epochs < 1:
            raise ConfigError("probe_epochs: must be >= 1")
        if self.probe_lr <= 0:
            raise ConfigError("probe_lr: must be > 0")
        if self.log_interval < 1:
            raise ConfigError("log_interval: must be >= 1")
        if self.student_bn not in STUDENT_BN_KINDS:
            raise ConfigError(f"student_bn: invalid kind {self.student_bn!r}")
        if self.teacher_bn not in TEACHER_BN_KINDS:
            raise ConfigError(f"teacher_bn: invalid kind {self.teacher_bn!r}")
        if self.mode == "moco" and self.predictor is not None:
            raise ConfigError("predictor: moco has no predictor")


_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
               bool: (bool, "a boolean"), str: (str, "a string")}


def check_seed(seed: int, where: str) -> None:
    """Raise ConfigError unless ``seed`` lies in [0, 2**32), the seeds whose
    random streams (keyed by a seed's low 32 bits) all differ."""
    if not 0 <= seed < 2**32:
        raise ConfigError(f"{where}: must lie in [0, 2**32), got {seed}")


def check_type(value, hint, where: str) -> None:
    """Raise ConfigError unless the JSON value fits the field type ``hint``
    (a nested spec takes an object, a ``tuple[X, ...]`` a list and a
    ``tuple[X, Y]`` a list of that many items): a bool is no number, an int
    is a float, a float is finite, null fits only ``Optional``."""
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return
        hint = args[0]
    if get_origin(hint) is tuple:
        items = get_args(hint)
        if items[-1] is Ellipsis:
            if not isinstance(value, list):
                raise ConfigError(f"{where}: expected a list, got {value!r}")
            items = items[:1] * len(value)
        elif not (isinstance(value, list) and len(value) == len(items)):
            raise ConfigError(
                f"{where}: expected a list of {len(items)} items, got {value!r}")
        for i, (item, item_hint) in enumerate(zip(value, items)):
            check_type(item, item_hint, f"{where}[{i}]")
        return
    want, name = _JSON_TYPES.get(hint, (dict, "an object"))
    if not isinstance(value, want) or (type(value) is bool and hint is not bool):
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    # NaN, the infinities and ints beyond the float range fail the number
    # bound; an integer field takes signed 64-bit values only.
    bound = {float: sys.float_info.max, int: 2**63 - 1}.get(hint)
    if bound is not None and not abs(value) <= bound:
        raise ConfigError(f"{where}: expected {name} of magnitude <= {bound}")


def decode(cls, doc, path: str = ""):
    """The config dataclass ``cls`` of its JSON object at ``path`` (the
    top level when empty): unknown keys, ill-typed values (see
    :func:`check_type`) and missing fields without a default are rejected,
    nested objects decode as their specs and lists as tuples. A
    ``ValueError`` of the class's own checks is reported at ``path``."""
    check_type(doc, dict, path or "config")
    prefix = f"{path}." if path else ""
    hints = get_type_hints(cls)
    for key in doc:
        if key not in hints:
            raise ConfigError(f"{prefix}{key}: unknown field")
    kwargs = {}
    for f in fields(cls):
        where = prefix + f.name
        if f.name in doc:
            kwargs[f.name] = _decode_value(doc[f.name], hints[f.name], where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required field")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _decode_value(value, hint, where: str):
    check_type(value, hint, where)
    if isinstance(value, dict):  # a spec, or an Optional one, took it
        return decode((get_args(hint) or (hint,))[0], value, where)
    return tuple(value) if isinstance(value, list) else value


def encode(spec) -> dict:
    """The JSON object of a config dataclass; :func:`decode` inverts it."""
    return {f.name: _encode_value(getattr(spec, f.name)) for f in fields(spec)}


def _encode_value(value):
    if is_dataclass(value):
        return encode(value)
    return list(value) if isinstance(value, tuple) else value


def data_from_dict(d, path: str = "data") -> DataConfig:
    """A validated DataConfig from its JSON object at ``path``."""
    data = decode(DataConfig, d, path)
    data.validate(path)
    return data


def from_dict(d) -> TrainConfig:
    cfg = decode(TrainConfig, d)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# overrides


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply repeated ``dotted.path=value`` strings to a config document."""
    out = json.loads(json.dumps(doc))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer beyond 4300 digits
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r}: {part} is not an object")
        node[parts[-1]] = value
    return out


# ---------------------------------------------------------------------------
# presets


def preset(name: str) -> dict:
    """Built-in config documents, also usable as starting points."""
    base = {
        "mode": "byol_m2t",
        "seed": 0,
        "epochs": 30,
        "batch_size": 128,
        "workers": 4,
        "lr_base": 0.4,
        "data": {"kind": "synthetic", "num_classes": 10, "dim": 32,
                 "per_class": 500, "spread": 0.3},
        "augment": {"noise_std": 0.3, "mask_prob": 0.2,
                    "scale_range": [0.8, 1.25]},
    }
    if name == "default-synth":
        return base
    if name == "table1-grid":
        doc = dict(base)
        doc["epochs"] = 10
        return doc
    if name == "moco-smoke":
        # The deep BN-terminated projector keeps projections batch-centered
        # and view pairs near-uncorrelated at init (each random BN+ReLU
        # layer contracts cross-view correlation), so the contrastive loss
        # starts at the uniform-softmax level without needing augmentation
        # so aggressive that nothing remains learnable.
        return {
            "mode": "moco",
            "seed": 0,
            "epochs": 10,
            "batch_size": 128,
            "workers": 4,
            "lr_base": 1.2,
            "m_base": 0.001,
            "m_schedule": "constant",
            "alpha_base": 0.064,
            "alpha_schedule": "constant",
            "temperature": 0.3,
            "queue_capacity": 256,
            "projector": {"widths": [64, 64, 64, 64, 64, 64, 64],
                          "bn": [True] * 6,
                          "relu": [True] * 5 + [False]},
            "data": {"kind": "synthetic", "num_classes": 10, "dim": 32,
                     "per_class": 3000, "spread": 0.3},
            "augment": {"noise_std": 0.3, "mask_prob": 0.2,
                        "scale_range": [0.5, 1.5]},
        }
    raise ConfigError(f"preset: unknown preset {name!r}")


PRESET_NAMES = ("default-synth", "table1-grid", "moco-smoke")
