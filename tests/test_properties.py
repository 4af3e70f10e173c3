"""Property tests of the exit-code contract: whatever the input, a command
either works or exits with its documented code (2 bad input, 3 non-finite
training value, 4 checkpoint version), and parsing either succeeds or raises its documented error class.
Bounded; the suite's hypothesis profile (tests/conftest.py) derandomizes
them, so every run checks the same examples."""

import json
import math
import re
import struct
from dataclasses import fields
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from m2t.checkpoint import MAGIC
from m2t.cli import main
from m2t.config import (PRESET_NAMES, ConfigError, DataConfig, TrainConfig,
                        from_dict, preset)
from m2t.data import AugmentSpec, Dataset
from m2t.model import MlpSpec
from m2t.trainer import NanLossError, Trainer, build_dataset


WORDS = ("byol_m2t", "moco", "lars", "constant", "momentum", "shuffling",
         "auto", "weight_on_history", "synthetic", "idx", "", "foo",
         "missing.idx")
SMALL_INTS = st.integers(-2, 12)
SCALARS = (st.none() | st.booleans() | SMALL_INTS
           | st.floats(-2.0, 2.0, allow_nan=False) | st.sampled_from(WORDS))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.sampled_from(WORDS), inner,
                                      max_size=3), max_leaves=6)


def objects(keys, values=JSON):
    """JSON objects over the given keys plus one unknown key."""
    return st.dictionaries(st.sampled_from(list(keys) + ["bogus"]), values,
                           max_size=6)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A valid checkpoint of an 8-wide encoder and a dataset spec for it."""
    root = tmp_path_factory.mktemp("props")
    encoder = {"widths": [8, 6, 6], "bn": [True, True], "relu": [True, True]}
    code = main(["pretrain", "--preset", "default-synth",
                 "--set", "epochs=1", "--set", "batch_size=16",
                 "--set", "workers=2", "--set", "data.dim=8",
                 "--set", "data.num_classes=3", "--set", "data.per_class=16",
                 "--set", f"encoder={json.dumps(encoder)}",
                 "--out", str(root / "run")])
    assert code == 0
    ds = root / "data.json"
    ds.write_text(json.dumps({"num_classes": 3, "dim": 8, "per_class": 8}))
    return root, (root / "run" / "checkpoint.m2t").read_bytes(), ds


def run_eval(checkpoint, dataset, mode: str) -> int:
    return main(["eval", "--checkpoint", str(checkpoint),
                 "--dataset", str(dataset), "--mode", mode, "--k", "3",
                 "--probe-epochs", "1"])


def flip_bits(buf: bytes, bits) -> bytes:
    out = bytearray(buf)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@settings(max_examples=300)
@given(data=st.data(), mode=st.sampled_from(["probe", "knn"]))
def test_any_checkpoint_bytes_exit_0_2_or_4(tiny_checkpoint, data, mode):
    root, valid, ds = tiny_checkpoint
    header_bits = 8 * (16 + int.from_bytes(valid[12:16], "little"))
    bit = st.integers(0, header_bits - 1) | st.integers(0, 8 * len(valid) - 1)
    raw = data.draw(st.one_of(
        st.binary(max_size=40),
        st.binary(max_size=40).map(lambda b: MAGIC + b),
        st.integers(0, len(valid)).map(lambda n: valid[:n]),
        st.lists(bit, min_size=1, max_size=4).map(
            lambda bits: flip_bits(valid, bits)),
    ))
    path = root / "fuzzed.m2t"
    path.write_bytes(raw)
    assert run_eval(path, ds, mode) in (0, 2, 4)


@settings(max_examples=150)
@given(doc=JSON | st.fixed_dictionaries(
    {"mode": st.sampled_from(["byol_m2t", "moco"]), "seed": SMALL_INTS,
     "epochs": SMALL_INTS},
    optional={
        **{f.name: JSON for f in fields(TrainConfig)[3:]},
        "data": objects([f.name for f in fields(DataConfig)]),
        "augment": objects([f.name for f in fields(AugmentSpec)]),
        "encoder": objects(["widths", "bn", "relu"]),
        "bogus": JSON,
    }))
def test_any_config_json_parses_or_raises_config_error(doc):
    try:
        assert isinstance(from_dict(doc), TrainConfig)
    except ConfigError:
        pass


@settings(max_examples=150)
@given(spec=JSON | objects([f.name for f in fields(DataConfig)] + ["seed"],
                           SCALARS | st.just(8)),
       mode=st.sampled_from(["probe", "knn"]))
def test_any_dataset_spec_exits_0_or_2(tiny_checkpoint, spec, mode):
    root, valid, _ = tiny_checkpoint
    checkpoint = root / "run" / "checkpoint.m2t"
    ds = root / "fuzzed.json"
    ds.write_text(json.dumps(spec))
    assert run_eval(checkpoint, ds, mode) in (0, 2)


# A spec wherever a preset leaves the model to the package defaults, so
# that every depth of the document exists; decoding fails before anything
# checks that the widths chain.
SPEC_DOC = {"widths": [32, 64], "bn": [True], "relu": [True]}
SECTIONS = {"": TrainConfig, "data": DataConfig, "augment": AugmentSpec,
            "encoder": MlpSpec, "projector": MlpSpec, "predictor": MlpSpec}


def wrong_values(hint):
    """JSON values of another kind than a field of type ``hint`` takes (a
    tuple or a nested spec takes a list or an object, none of these)."""
    args = get_args(hint)
    hint = args[0] if type(None) in args else hint
    return {bool: [1, "true", [True]], int: [2.5, "1", True, [1]],
            float: ["0.5", True, [0.5]], str: [3, False, ["x"]]}.get(
                hint, [7, "x", True, ["x"]])


@settings(max_examples=300)
@given(name=st.sampled_from(PRESET_NAMES),
       section=st.sampled_from(sorted(SECTIONS)), data=st.data())
def test_bad_key_at_any_depth_is_named_by_its_path(name, section, data):
    """An unknown key or a wrong-typed value at any depth of a preset
    raises ConfigError whose message starts with that key's dotted path."""
    doc = preset(name)
    node = doc.setdefault(section, dict(SPEC_DOC)) if section else doc
    hints = get_type_hints(SECTIONS[section])
    key = data.draw(st.sampled_from(["bogus"] + sorted(hints)))
    node[key] = data.draw(JSON if key == "bogus"
                          else st.sampled_from(wrong_values(hints[key])))
    path = f"{section}.{key}" if section else key
    with pytest.raises(ConfigError) as info:
        from_dict(doc)
    assert re.match(rf"{re.escape(path)}[:\[]", str(info.value))


def numeric_fields(cls, *prefix):
    """Paths of the int and float fields of a config dataclass."""
    hints = get_type_hints(cls)
    return [(*prefix, f.name) for f in fields(cls)
            if hints[f.name] in (int, float)]


NUMERIC_FIELDS = (numeric_fields(TrainConfig) + numeric_fields(DataConfig, "data")
                  + numeric_fields(AugmentSpec, "augment"))
# Integer fields draw from a small range: a huge size field asks for that
# much memory, which no config check bounds. Huge and non-finite values
# still reach them as floats, which they must reject by type.
NUMBERS = (st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -1e300,
                            1e300])
           | st.floats(-10.0, 10.0) | st.integers(-3, 64))


def tiny_doc(mode: str) -> dict:
    return {"mode": mode, "seed": 0, "epochs": 1, "batch_size": 16,
            "workers": 2, "warmup_epochs": 0, "queue_capacity": 8,
            "data": {"kind": "synthetic", "num_classes": 3, "dim": 8,
                     "per_class": 8, "spread": 0.3},
            "augment": {"noise_std": 0.2, "mask_prob": 0.1}}


@settings(max_examples=300)
@given(mode=st.sampled_from(["byol_m2t", "moco"]),
       path=st.sampled_from(NUMERIC_FIELDS), value=NUMBERS)
@example(mode="byol_m2t", path=("alpha_base",), value=math.nan)
def test_any_numeric_value_is_rejected_or_trains(mode, path, value):
    """One field of a tiny config set to any number: the config is
    rejected with ConfigError (``m2t pretrain`` exits 2), or its first
    iteration runs or stops with NanLossError (exit 3)."""
    doc = tiny_doc(mode)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        trainer = Trainer(from_dict(doc))
    except ConfigError:
        return
    if trainer.total_iters == 0:
        return
    with np.errstate(all="ignore"):
        try:
            trainer.train_step(trainer.dataset.samples[:trainer.batch_sizes[0]],
                               0)
        except NanLossError:
            pass


# A valid IDX pair of six 2x3 images in three classes, and zero-image
# headers: one plain, one whose rows x cols exceed numpy's dimension limit.
IDX_IMAGES = struct.pack(">IIII", 0x803, 6, 2, 3) + bytes(range(0, 216, 6))
IDX_LABELS = struct.pack(">II", 0x801, 6) + bytes([0, 1, 2, 0, 1, 2])
NO_IMAGES = struct.pack(">IIII", 0x803, 0, 2, 3)
NO_IMAGES_HUGE = struct.pack(">IIII", 0x803, 0, 2**32 - 1, 2**32 - 1)
NO_LABELS = struct.pack(">II", 0x801, 0)


def fuzzed(valid: bytes, header: int):
    """The valid bytes, random bytes, truncations, and bit flips biased to
    the header."""
    bit = st.integers(0, 8 * header - 1) | st.integers(0, 8 * len(valid) - 1)
    return st.one_of(
        st.just(valid),
        st.binary(max_size=40),
        st.binary(max_size=40).map(lambda b: valid[:header] + b),
        st.integers(0, len(valid)).map(lambda n: valid[:n]),
        st.lists(bit, min_size=1, max_size=4).map(
            lambda bits: flip_bits(valid, bits)))


@settings(max_examples=300)
@given(images=fuzzed(IDX_IMAGES, 16), labels=fuzzed(IDX_LABELS, 8))
@example(images=NO_IMAGES, labels=NO_LABELS)
@example(images=NO_IMAGES_HUGE, labels=NO_LABELS)
def test_any_idx_bytes_load_or_raise_config_error(tmp_path_factory, images,
                                                  labels):
    root = tmp_path_factory.getbasetemp()
    (root / "f-images.idx").write_bytes(images)
    (root / "f-labels.idx").write_bytes(labels)
    spec = DataConfig(kind="idx", images_path=str(root / "f-images.idx"),
                      labels_path=str(root / "f-labels.idx"))
    try:
        assert isinstance(build_dataset(spec, 0), Dataset)
    except ConfigError:
        pass


def test_empty_idx_pretrain_exits_0_or_2(tmp_path, capsys):
    (tmp_path / "images.idx").write_bytes(NO_IMAGES)
    (tmp_path / "labels.idx").write_bytes(NO_LABELS)
    data = {"kind": "idx", "images_path": str(tmp_path / "images.idx"),
            "labels_path": str(tmp_path / "labels.idx")}
    out = tmp_path / "run"
    code = main(["pretrain", "--preset", "default-synth",
                 "--set", f"data={json.dumps(data)}", "--out", str(out)])
    assert code in (0, 2)
