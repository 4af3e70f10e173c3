"""Property tests of the exit-code contract: whatever the input, a command
either works or exits with its documented code (2 bad input, 4 checkpoint
version), and parsing either succeeds or raises its documented error class.
Derandomized and bounded, so every run checks the same examples."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from m2t.checkpoint import MAGIC
from m2t.cli import main
from m2t.config import ConfigError, DataConfig, TrainConfig, from_dict
from m2t.data import AugmentSpec


def bounded(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples,
                    suppress_health_check=[HealthCheck.too_slow])


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
    with np.errstate(all="ignore"):
        return main(["eval", "--checkpoint", str(checkpoint),
                     "--dataset", str(dataset), "--mode", mode, "--k", "3",
                     "--probe-epochs", "1"])


def flip_bits(buf: bytes, bits) -> bytes:
    out = bytearray(buf)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@bounded(300)
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


@bounded(150)
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


@bounded(150)
@given(spec=JSON | objects([f.name for f in fields(DataConfig)] + ["seed"],
                           SCALARS | st.just(8)),
       mode=st.sampled_from(["probe", "knn"]))
def test_any_dataset_spec_exits_0_or_2(tiny_checkpoint, spec, mode):
    root, valid, _ = tiny_checkpoint
    checkpoint = root / "run" / "checkpoint.m2t"
    ds = root / "fuzzed.json"
    ds.write_text(json.dumps(spec))
    assert run_eval(checkpoint, ds, mode) in (0, 2)
