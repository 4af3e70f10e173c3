import json
import math
import platform
import struct
import warnings

import numpy as np
import pytest

from m2t import cli, config as config_mod, engine
from m2t.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from m2t.cli import keep_freed_memory, main, write_metrics_csv
from m2t.config import DataConfig, TrainConfig
from m2t.data import IDX_IMAGES_MAGIC, AugmentSpec
from m2t.evaluate import extract_features
from m2t.model import (default_encoder_spec, default_predictor_spec,
                       default_projector_spec, load_teacher)
from m2t.trainer import run_training

from idx_files import write_idx_images


def tiny_run(seed=0, epochs=1):
    cfg = TrainConfig(
        mode="byol_m2t", seed=seed, epochs=epochs, batch_size=16, workers=2,
        lr_base=0.3, warmup_epochs=0, log_interval=1,
        data=DataConfig(kind="synthetic", num_classes=3, dim=8,
                        per_class=16, spread=0.3),
        augment=AugmentSpec(noise_std=0.2, solarize_prob_teacher=0.0),
    )
    return run_training(cfg)


TINY_ARGS = [
    "--preset", "default-synth",
    "--set", "epochs=1",
    "--set", "batch_size=16",
    "--set", "workers=2",
    "--set", "data.per_class=16",
    "--set", "data.num_classes=3",
    "--set", "data.dim=8",
    "--set", "log_interval=2",
    "--set", "warmup_epochs=0",
]


def tiny_dataset_spec(tmp_path):
    """A dataset spec file matching the tiny runs' 8-wide encoder input."""
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"kind": "synthetic", "num_classes": 3,
                                "dim": 8, "per_class": 16, "spread": 0.3,
                                "seed": 0}))
    return path


def exits_3_quietly(capsys, argv) -> str:
    """Run ``argv`` with every warning an error: it must exit 3 with one
    ``error:`` line as its whole stderr, which is returned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def raw_checkpoint(header, body: bytes = b"") -> bytes:
    header = json.dumps(header).encode("utf-8")
    return (MAGIC + struct.pack("<I", FORMAT_VERSION)
            + struct.pack("<I", len(header)) + header + body)


class TestCheckpointFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        result = tiny_run()
        path = tmp_path / "ck.m2t"
        save_checkpoint(result.payload, path)
        loaded = load_checkpoint(path)
        assert loaded.keys() == result.payload.keys()
        for key, value in result.payload.items():
            assert key == "arrays" or loaded[key] == value
        assert set(loaded["arrays"]) == set(result.payload["arrays"])
        for name, arr in result.payload["arrays"].items():
            assert loaded["arrays"][name].tobytes() == arr.tobytes()
        assert loaded["bn_initialized"] == result.payload["bn_initialized"]

    def test_roundtrip_preserves_teacher_outputs(self, tmp_path):
        result = tiny_run()
        path = tmp_path / "ck.m2t"
        save_checkpoint(result.payload, path)
        loaded = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(12, 8))
        a = extract_features(result.payload, x)
        b = extract_features(loaded, x)
        assert a.tobytes() == b.tobytes()

    def test_unknown_version_rejected(self, tmp_path):
        result = tiny_run()
        path = tmp_path / "ck.m2t"
        save_checkpoint(result.payload, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", FORMAT_VERSION + 1)
        bad = tmp_path / "bad.m2t"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(bad)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.m2t"
        path.write_bytes(b"NOTATALL" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        result = tiny_run()
        path = tmp_path / "ck.m2t"
        save_checkpoint(result.payload, path)
        data = path.read_bytes()
        cut = tmp_path / "cut.m2t"
        cut.write_bytes(data[:len(data) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(cut)

    def test_array_name_set_must_match(self, tmp_path, capsys):
        # The container stores any array set; the teacher-dump reader
        # rejects one that does not match the encoder spec.
        result = tiny_run()
        payload = dict(result.payload)
        payload["arrays"] = dict(payload["arrays"])
        del payload["arrays"]["enc0.bias"]
        path = tmp_path / "ck.m2t"
        save_checkpoint(payload, path)
        with pytest.raises(ValueError, match="match"):
            load_teacher(load_checkpoint(path))
        code = main(["eval", "--checkpoint", str(path),
                     "--dataset", str(tiny_dataset_spec(tmp_path))])
        assert code == 2
        assert "match" in capsys.readouterr().err

    def test_payload_keys_roundtrip(self, tmp_path):
        payload = {"step": 7, "note": ["any", {"json": None}],
                   "arrays": {"b": np.arange(3.0), "a": np.ones((2, 0))}}
        path = tmp_path / "state.m2t"
        save_checkpoint(payload, path)
        loaded = load_checkpoint(path)
        assert list(loaded["arrays"]) == ["b", "a"]
        assert loaded["arrays"]["a"].shape == (2, 0)
        assert loaded["arrays"]["b"].tobytes() == payload["arrays"]["b"].tobytes()
        assert {k: v for k, v in loaded.items() if k != "arrays"} \
            == {"step": 7, "note": ["any", {"json": None}]}

    @pytest.mark.parametrize("header", [
        [],
        {"arrays": {"enc0.bias": [2]}},
        {"arrays": [{"name": 3, "shape": [2]}]},
        {"arrays": [{"name": "a", "shape": [2.5]}]},
        {"arrays": [{"name": "a", "shape": "ab"}]},
        {"arrays": [{"name": "a", "shape": [-1]}]},
        {"arrays": [{"name": "a", "shape": [True]}]},
        {"arrays": [{"name": "a", "shape": [1]}, {"name": "a", "shape": [1]}]},
    ], ids=["not-object", "index-not-list", "name-not-string", "float-shape",
            "string-shape", "negative-shape", "bool-shape", "repeated-name"])
    def test_malformed_container_rejected(self, tmp_path, header):
        path = tmp_path / "bad.m2t"
        path.write_bytes(raw_checkpoint(header, b"\x00" * 16))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestPretrainCommand:
    def test_pretrain_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["pretrain", *TINY_ARGS, "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.m2t").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["end_timestamp"] is not None
        assert manifest["config"]["epochs"] == 1
        assert manifest["heap_policy"] == keep_freed_memory()

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(["pretrain", *TINY_ARGS, "--out", str(out)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["threads"]["OMP_NUM_THREADS"] == "1"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS",
                                       "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        # Without the record, the run writes the same metrics.
        monkeypatch.setattr(cli, "environment", lambda: {})
        bare = tmp_path / "bare"
        assert main(["pretrain", *TINY_ARGS, "--out", str(bare)]) == 0
        assert json.loads(
            (bare / "manifest.json").read_text())["environment"] == {}
        assert ((out / "metrics.csv").read_bytes()
                == (bare / "metrics.csv").read_bytes())

    def test_overflowing_infonce_temperature_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["pretrain", "--preset", "moco-smoke", "--set", "epochs=1",
                     "--set", "temperature=1e-3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: temperature: ")
        assert not out.exists()

    def test_overflowing_training_exits_3_quietly(self, tmp_path, capsys):
        # Finite samples whose statistics overflow in training.
        line = exits_3_quietly(capsys, [
            "pretrain", "--preset", "default-synth",
            "--set", "data.spread=1e200", "--set", "epochs=1",
            "--out", str(tmp_path / "run")])
        assert "non-finite" in line

    def test_overflowing_spread_exits_2_naming_it(self, tmp_path, capsys):
        # The samples overflow float64; that is reported as what it is,
        # without numpy's overflow warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pretrain", *TINY_ARGS, "--set", "data.spread=1e308",
                         "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: data: spread 1e+308 overflows")
        assert "non-finite" in err and "allocate" not in err
        assert caught == []
        assert not (tmp_path / "run").exists()

    def test_metrics_row_count(self, tmp_path):
        out = tmp_path / "run"
        main(["pretrain", *TINY_ARGS, "--out", str(out)])
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        # 48 samples / 16 batch = 3 iterations, log interval 2 -> ceil(3/2)=2
        assert lines[0].startswith("iter,epoch,loss,L1,L2,lr,m,alpha")
        assert len(lines) == 1 + math.ceil(3 / 2)

    def test_determinism_byte_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["pretrain", *TINY_ARGS, "--out", str(out1)])
        main(["pretrain", *TINY_ARGS, "--out", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() \
            == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "checkpoint.m2t").read_bytes() \
            == (out2 / "checkpoint.m2t").read_bytes()

    def test_missing_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mode": "byol_m2t", "epochs": 1}))
        code = main(["pretrain", "--config", str(cfg), "--out",
                     str(tmp_path / "run")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mode": "byol_m2t", "seed": 0,
                                   "epochs": 1, "learning": 3}))
        code = main(["pretrain", "--config", str(cfg), "--out",
                     str(tmp_path / "run")])
        assert code == 2
        assert "learning" in capsys.readouterr().err

    def test_dataset_smaller_than_batch_exits_2(self, tmp_path, capsys):
        code = main(["pretrain", "--preset", "default-synth",
                     "--set", "data.per_class=5",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "batch_size" in err

    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        (b"\x00\x00\x08", "truncated header"),
        (struct.pack(">IIII", IDX_IMAGES_MAGIC, 5, 2, 2), "pixels"),
    ], ids=["missing", "three-bytes", "header-without-pixels"])
    def test_bad_idx_images_exit_2(self, tmp_path, capsys, content, message):
        images = tmp_path / "images.idx"
        if content is not None:
            images.write_bytes(content)
        out = tmp_path / "run"
        code = main(["pretrain", *TINY_ARGS, "--set", "data.kind=idx",
                     "--set", f"data.images_path={images}",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and message in err
        # The Trainer is built before the manifest is written.
        assert not (out / "manifest.json").exists()

    def test_missing_idx_labels_exit_2(self, tmp_path, capsys):
        images = tmp_path / "images.idx"
        write_idx_images(np.zeros((32, 8)), (2, 4), images)
        code = main(["pretrain", *TINY_ARGS, "--set", "data.kind=idx",
                     "--set", f"data.images_path={images}",
                     "--set", f"data.labels_path={tmp_path / 'labels.idx'}",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: data: ")

    @pytest.mark.parametrize("args, message", [
        (["--set", "lr_base=abc"], "lr_base: expected a number"),
        (["--set", "data.per_class=x"], "data.per_class: expected an integer"),
        (["--set", "epochs=\"1\""], "epochs: expected an integer"),
        (["--set", "batch_size=null"], "batch_size: expected an integer"),
        (["--set", "wd_exclude_bias_bn=1"], "expected a boolean"),
        (["--set", "augment.noise_std=true"],
         "augment.noise_std: expected a number"),
        (["--set", "augment.crop_pad=1.5"],
         "augment.crop_pad: expected an integer"),
        (["--set", "augment.scale_range=[1]"],
         "augment.scale_range: expected a list of 2 items"),
        (["--set", "augment.flip=1"], "augment.flip: expected a boolean"),
    ])
    def test_ill_typed_value_exits_2(self, tmp_path, capsys, args, message):
        code = main(["pretrain", "--preset", "default-synth", *args,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("setting, field", [
        ("mode=byol_plain", "mode"),
        ("mode=byol_synced", "mode"),
        ("student_bn=auto", "student_bn"),
        ("teacher_bn=auto", "teacher_bn"),
        ("alpha_semantics=weight_on_batch", "alpha_semantics"),
        ("probe_batch=256", "probe_batch"),
    ])
    def test_removed_spelling_exits_2(self, tmp_path, capsys, setting, field):
        code = main(["pretrain", *TINY_ARGS, "--set", setting,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("setting, field", [
        ('encoder={"widths":[16,64,64],"bn":[true,true],"relu":[true,true]}',
         "encoder"),
        ('projector={"widths":[32,64,32],"bn":[true,false],'
         '"relu":[true,false]}', "projector"),
        ('predictor={"widths":[16,32],"bn":[false],"relu":[false]}',
         "predictor"),
    ])
    def test_unchained_model_spec_exits_2(self, tmp_path, capsys, setting,
                                          field):
        out = tmp_path / "run"
        code = main(["pretrain", "--preset", "default-synth",
                     "--set", "epochs=1", "--set", setting,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not out.exists()

    @pytest.mark.parametrize("role, spec", [
        ("encoder", default_encoder_spec(32)),
        ("projector", default_projector_spec()),
        ("predictor", default_predictor_spec()),
    ])
    def test_unknown_model_spec_key_exits_2(self, tmp_path, capsys, role,
                                            spec):
        doc = config_mod.preset("default-synth")
        doc[role] = dict(config_mod.encode(spec), dropout=0.5)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code = main(["pretrain", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {role}.dropout: unknown field\n"
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("encoder.widths=[4,8,8]", "encoder.bn: missing required field"),
        (f'encoder={{"widths":[32,{10 ** 30},64],"bn":[true,true],'
         '"relu":[true,true]}',
         f"encoder.widths[1]: expected an integer of magnitude <= "
         f"{2 ** 63 - 1}"),
        ('encoder={"widths":[32,64,64],"bn":"x","relu":[true,true]}',
         "encoder.bn: expected a list, got 'x'"),
    ], ids=["widths-alone", "width-1e30", "string-bn"])
    def test_ill_formed_model_spec_exits_2_naming_its_path(
            self, tmp_path, capsys, setting, message):
        out = tmp_path / "run"
        code = main(["pretrain", "--preset", "default-synth",
                     "--set", setting, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("settings, field", [
        (["alpha_base=NaN"], "alpha_base"),
        (["m_base=NaN"], "m_base"),
        (["data.spread=NaN"], "data.spread"),
        (["lr_base=Infinity"], "lr_base"),
        (["augment.scale_range=[0.5, -Infinity]"], "augment.scale_range[1]"),
        ([f"temperature={10 ** 400}"], "temperature"),
        (["eps=0"], "eps"),
        (["eps=-1"], "eps"),
        (["warmup_factor=2"], "warmup_factor"),
        (["warmup_factor=-5"], "warmup_factor"),
        (["auto_scale=true", "reference_batch=0"], "reference_batch"),
        (["probe_epochs=0"], "probe_epochs"),
        (["probe_lr=0"], "probe_lr"),
        (["sgd_momentum=2"], "sgd_momentum"),
        (["sgd_momentum=-3"], "sgd_momentum"),
        (["weight_decay=-1"], "weight_decay"),
        (["trust_coeff=-1"], "trust_coeff"),
        (["seed=-1"], "seed"),
        ([f"seed={2 ** 32}"], "seed"),
        ([f"seed={-2 ** 32}"], "seed"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v)[:40])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, settings,
                                        field):
        out = tmp_path / "run"
        sets = [arg for setting in settings for arg in ("--set", setting)]
        code = main(["pretrain", *TINY_ARGS, *sets, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not out.exists()

    # Each value is rejected by a check or by numpy before it allocates.
    @pytest.mark.parametrize("preset, setting, field", [
        ("default-synth", "epochs=1" + "0" * 400, "epochs"),
        ("default-synth", "epochs=" + "1" * 5000, "epochs"),
        ("file", "epochs=" + "1" * 5000, "config"),
        ("default-synth", "data.per_class=1000000000000000000", "data"),
        ("moco-smoke", "queue_capacity=1000000000000000000",
         "queue_capacity"),
        ("default-synth", 'encoder={"widths":[32,1000000000000000000,64],'
         '"bn":[true,true],"relu":[true,true]}', "encoder"),
        ("default-synth", 'predictor={"widths":[32,1000000000000000000,32],'
         '"bn":[true,false],"relu":[true,false]}', "predictor"),
    ], ids=["epochs-1e400", "epochs-5000-digits", "config-5000-digits",
            "per-class-1e18", "queue-capacity-1e18", "encoder-width-1e18",
            "predictor-width-1e18"])
    def test_huge_integer_exits_2(self, tmp_path, capsys, preset, setting,
                                  field):
        out = tmp_path / "run"
        key, value = setting.split("=")
        if preset == "file":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(f'{{"mode": "byol_m2t", "seed": 0, "{key}": {value}}}')
            args = ["--config", str(cfg)]
        else:
            args = ["--preset", preset, "--set", setting]
        code = main(["pretrain", *args, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not out.exists()

    def test_narrow_projector_gets_a_predictor_of_its_width(self, tmp_path,
                                                            capsys):
        out = tmp_path / "run"
        code = main(["pretrain", *TINY_ARGS, "--set",
                     'projector={"widths":[64,4],"bn":[false],"relu":[false]}',
                     "--out", str(out)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["logged_records"] > 0

    @pytest.mark.parametrize("command", ["pretrain", "ablate"])
    def test_predictor_narrower_than_projection_exits_2(self, tmp_path,
                                                        capsys, command):
        out = tmp_path / "run"
        preset = "default-synth" if command == "pretrain" else "table1-grid"
        code = main([command, "--preset", preset, "--set", "epochs=1",
                     "--set", 'predictor={"widths":[32,32,4],"bn":[true,false],'
                     '"relu":[true,false]}', "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: predictor: output width 4 != projector output width 32\n")
        assert not out.exists()

    def test_moco_predictor_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["pretrain", "--preset", "moco-smoke", "--set", "epochs=0",
                     "--set", 'predictor={"widths":[64,32],"bn":[false],'
                     '"relu":[false]}', "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: predictor: ")
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, "{not json"],
                             ids=["missing", "invalid-json"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        code = main(["pretrain", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_table1_grid_preset_trains_one_run(self, tmp_path):
        out = tmp_path / "run"
        code = main(["pretrain", *TINY_ARGS[2:], "--preset", "table1-grid",
                     "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.m2t").exists()
        assert not (out / "grid.json").exists()
        assert not list(out.glob("metrics_*.csv"))

    def test_zero_epochs_is_valid(self, tmp_path):
        out = tmp_path / "run"
        code = main(["pretrain", *TINY_ARGS, "--set", "epochs=0",
                     "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.m2t").exists()
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert len(lines) == 1  # header only

    def test_nan_abort_exits_3_with_partial_metrics(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["pretrain", *TINY_ARGS, "--set", "lr_base=1e200",
                     "--set", "log_interval=1", "--out", str(out)])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert len(lines) >= 2  # header + at least the diagnostic row
        assert "nan" in lines[-1]

    def test_divergence_exits_3_without_checkpoint(self, tmp_path, capsys):
        # The loss stays bounded while the teacher BN histories overflow.
        out = tmp_path / "run"
        code = main(["pretrain", "--preset", "default-synth",
                     "--set", "epochs=1", "--set", "lr_base=1e6",
                     "--out", str(out)])
        assert code == 3
        assert "history drift" in capsys.readouterr().err
        assert not (out / "checkpoint.m2t").exists()
        last = (out / "metrics.csv").read_text().strip().split("\n")[-1]
        assert last.split(",")[8] in ("inf", "nan")

    def test_non_finite_teacher_array_exits_3(self, tmp_path, capsys,
                                             monkeypatch):
        from m2t import trainer as trainer_mod

        real_dump = trainer_mod.dump_teacher

        def poisoned_dump(encoder):
            payload = real_dump(encoder)
            payload["arrays"]["enc1.bias"][0] = np.inf
            return payload

        monkeypatch.setattr(trainer_mod, "dump_teacher", poisoned_dump)
        out = tmp_path / "run"
        code = main(["pretrain", *TINY_ARGS, "--set", "log_interval=1",
                     "--out", str(out)])
        assert code == 3
        assert "enc1.bias" in capsys.readouterr().err
        assert not (out / "checkpoint.m2t").exists()
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        # header, iterations 0 and 1 logged, iteration 2 as the diagnostic
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]


class TestEvalCommand:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out = tmp_path / "run"
        main(["pretrain", *TINY_ARGS, "--out", str(out)])
        ds = tmp_path / "data.json"
        ds.write_text(json.dumps({"kind": "synthetic", "num_classes": 3,
                                  "dim": 8, "per_class": 16, "spread": 0.3,
                                  "seed": 0}))
        return out, ds

    def test_probe_mode_prints_json(self, run_dir, capsys):
        out, ds = run_dir
        code = main(["eval", "--checkpoint", str(out / "checkpoint.m2t"),
                     "--dataset", str(ds), "--mode", "probe",
                     "--probe-epochs", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "probe"
        assert 0.0 <= doc["accuracy"] <= 1.0

    def test_same_checkpoint_twice_identical_json(self, run_dir, capsys):
        out, ds = run_dir
        args = ["eval", "--checkpoint", str(out / "checkpoint.m2t"),
                "--dataset", str(ds), "--mode", "knn", "--k", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_knn_k_too_large_is_usage_error(self, run_dir, capsys):
        out, ds = run_dir
        code = main(["eval", "--checkpoint", str(out / "checkpoint.m2t"),
                     "--dataset", str(ds), "--mode", "knn", "--k", "99999"])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--probe-lr", "nan"], ["--probe-lr", "inf"], ["--probe-lr", "0"],
        ["--probe-epochs", "-3"], ["--probe-epochs", "0"],
    ], ids=" ".join)
    def test_bad_probe_arguments_exit_2(self, run_dir, capsys, args):
        out, ds = run_dir
        code = main(["eval", "--checkpoint", str(out / "checkpoint.m2t"),
                     "--dataset", str(ds), "--mode", "probe", *args])
        assert code == 2
        assert "probe" in capsys.readouterr().err

    def test_huge_probe_epochs_exit_2(self, run_dir, capsys):
        # Beyond a config integer's bound the probe's float schedule would
        # overflow.
        out, ds = run_dir
        code = main(["eval", "--checkpoint", str(out / "checkpoint.m2t"),
                     "--dataset", str(ds), "--probe-epochs", "9" * 400])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: --probe-epochs: expected an integer of magnitude <= "
            f"{2**63 - 1}")

    def test_overflowing_spread_exits_2_naming_it(self, run_dir, tmp_path,
                                                   capsys):
        out, _ = run_dir
        ds = tmp_path / "wide.json"
        ds.write_text(json.dumps({"kind": "synthetic", "num_classes": 3,
                                  "dim": 8, "per_class": 16, "spread": 1e308,
                                  "seed": 0}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", "--checkpoint", str(out / "checkpoint.m2t"),
                         "--dataset", str(ds)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: data: spread 1e+308 overflows")
        assert "non-finite" in err and "allocate" not in err
        assert caught == []

    def test_diverged_probe_exits_3_quietly(self, run_dir, capsys):
        out, ds = run_dir
        line = exits_3_quietly(capsys, [
            "eval", "--checkpoint", str(out / "checkpoint.m2t"),
            "--dataset", str(ds), "--probe-lr", "1e300",
            "--probe-epochs", "3"])
        assert "linear probe diverged" in line

    @pytest.mark.parametrize("mode", ["probe", "knn"])
    def test_negative_seed_exits_2_naming_it(self, run_dir, capsys, mode):
        out, ds = run_dir
        code = main(["eval", "--checkpoint", str(out / "checkpoint.m2t"),
                     "--dataset", str(ds), "--mode", mode, "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --seed: expected a non-negative integer, got -1\n")

    def test_diverged_probe_exits_3(self, run_dir, capsys):
        # A learning rate this large overflows the probe head; that is a
        # non-finite abort, not an accuracy.
        out, ds = run_dir
        code = main(["eval", "--checkpoint", str(out / "checkpoint.m2t"),
                     "--dataset", str(ds), "--mode", "probe",
                     "--probe-lr", "1e300", "--probe-epochs", "5"])
        captured = capsys.readouterr()
        assert code == 3
        assert "linear probe diverged" in captured.err
        assert captured.out == ""

    def test_version_mismatch_exits_4(self, run_dir, tmp_path):
        out, ds = run_dir
        raw = bytearray((out / "checkpoint.m2t").read_bytes())
        raw[8:12] = struct.pack("<I", FORMAT_VERSION + 5)
        bad = tmp_path / "bad.m2t"
        bad.write_bytes(bytes(raw))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", str(ds)])
        assert code == 4

    def test_short_checkpoint_exits_2(self, run_dir, tmp_path, capsys):
        _, ds = run_dir
        bad = tmp_path / "short.m2t"
        bad.write_bytes(MAGIC + b"\x01\x00")
        code = main(["eval", "--checkpoint", str(bad), "--dataset", str(ds)])
        assert code == 2
        assert "error: " in capsys.readouterr().err
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(bad)

    def test_header_without_encoder_spec_exits_2(self, run_dir, tmp_path,
                                                 capsys):
        _, ds = run_dir
        header = json.dumps({"arrays": []}).encode("utf-8")
        bad = tmp_path / "nospec.m2t"
        bad.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION)
                        + struct.pack("<I", len(header)) + header)
        code = main(["eval", "--checkpoint", str(bad), "--dataset", str(ds)])
        assert code == 2
        assert "encoder_spec" in capsys.readouterr().err
        with pytest.raises(ValueError, match="encoder_spec"):
            load_teacher(load_checkpoint(bad))

    def test_unknown_encoder_spec_key_exits_2_naming_it(self, run_dir,
                                                        tmp_path, capsys):
        out, ds = run_dir
        raw = (out / "checkpoint.m2t").read_bytes()
        header_end = 16 + struct.unpack_from("<I", raw, 12)[0]
        header = json.loads(raw[16:header_end])
        header["encoder_spec"]["dropout"] = 0.5
        bad = tmp_path / "bad.m2t"
        bad.write_bytes(raw_checkpoint(header, raw[header_end:]))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", str(ds)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: encoder_spec.dropout: unknown field\n"

    @pytest.mark.parametrize("edit", [
        lambda h: h["encoder_spec"].update(widths=[8, 32, 32]),
        lambda h: h["arrays"][0].update(shape=[2.5]),
        lambda h: h["arrays"][0].update(shape="ab"),
        lambda h: h.update(bn_eps=["x", "x"]),
        lambda h: h.update(bn_initialized=3),
    ], ids=["widths-disagree-with-shapes", "float-shape", "string-shape",
            "string-eps", "int-initialized"])
    def test_ill_formed_checkpoint_exits_2(self, run_dir, tmp_path, capsys,
                                           edit):
        out, ds = run_dir
        raw = (out / "checkpoint.m2t").read_bytes()
        header_end = 16 + struct.unpack_from("<I", raw, 12)[0]
        header = json.loads(raw[16:header_end])
        edit(header)
        bad = tmp_path / "bad.m2t"
        bad.write_bytes(raw_checkpoint(header, raw[header_end:]))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", str(ds)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("spec, message", [
        ([1], "dataset: expected an object"),
        ({"kind": "foo"}, "dataset.kind"),
        ({"num_clases": 3}, "dataset.num_clases: unknown field"),
        ({"num_classes": "x"}, "dataset.num_classes: expected an integer"),
        ({"seed": "a"}, "dataset.seed: expected an integer"),
        ({"kind": "idx"}, "dataset.images_path"),
        ({"seed": -1}, "dataset.seed: must lie in [0, 2**32)"),
        ({"seed": 2 ** 32}, "dataset.seed: must lie in [0, 2**32)"),
    ])
    def test_bad_dataset_spec_exits_2(self, run_dir, tmp_path, capsys, spec,
                                      message):
        out, _ = run_dir
        ds = tmp_path / "bad.json"
        ds.write_text(json.dumps(spec))
        code = main(["eval", "--checkpoint", str(out / "checkpoint.m2t"),
                     "--dataset", str(ds), "--mode", "knn"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["probe", "knn"])
    def test_non_finite_features_exit_2(self, run_dir, tmp_path, capsys,
                                        mode):
        out, ds = run_dir
        payload = load_checkpoint(out / "checkpoint.m2t")
        payload["arrays"]["enc0.weight"][:] = np.nan
        bad = tmp_path / "nan.m2t"
        save_checkpoint(payload, bad)
        code = main(["eval", "--checkpoint", str(bad), "--dataset", str(ds),
                     "--mode", mode])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_single_class_probe_is_clean_error(self, run_dir, tmp_path,
                                               capsys):
        # An IDX dataset without labels has a single class; the probe cannot
        # run and the CLI must fail cleanly rather than traceback.
        import numpy as np

        out, _ = run_dir
        img = tmp_path / "imgs.idx"
        # 2x4 images flatten to the checkpoint's 8-wide encoder input.
        write_idx_images(np.random.default_rng(0).random((6, 8)), (2, 4), img)
        ds = tmp_path / "unlabeled.json"
        ds.write_text(json.dumps({"kind": "idx", "images_path": str(img)}))
        code = main(["eval", "--checkpoint", str(out / "checkpoint.m2t"),
                     "--dataset", str(ds), "--mode", "probe"])
        assert code == 2
        err = capsys.readouterr().err
        assert "classes" in err


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        code = main(["gradcheck", "--trials", "2"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_wrong_backward_rule_fails(self, monkeypatch, capsys):
        # Negative control: corrupt the relu gradient mask.
        monkeypatch.setattr(engine, "_relu_grad_mask",
                            lambda values: (values > 0.0) * 2.0)
        code = main(["gradcheck", "--trials", "2"])
        assert code != 0
        out = capsys.readouterr().out
        assert "FAIL" in out

    @pytest.mark.parametrize("args", [
        ["--trials", "0"], ["--trials", "-3"], ["--tol", "inf"],
        ["--tol", "nan"], ["--tol", "-1"],
    ], ids=" ".join)
    def test_bad_arguments_exit_2(self, capsys, args):
        # No draw checked, or a tolerance nothing can fail, is no gate.
        code = main(["gradcheck", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert args[0] in captured.err
        assert "PASS" not in captured.out

    def test_report_includes_per_op_error(self, capsys):
        main(["gradcheck", "--trials", "1"])
        out = capsys.readouterr().out
        for op in ("dense", "batch_norm", "normalized_mse", "byol_mlp"):
            assert op in out


class TestAblateCommand:
    def test_grid_emits_six_metric_files(self, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main(["ablate", "--preset", "table1-grid",
                     "--set", "epochs=1",
                     "--set", "batch_size=16",
                     "--set", "workers=2",
                     "--set", "data.per_class=16",
                     "--set", "data.num_classes=3",
                     "--set", "data.dim=8",
                     "--set", "probe_epochs=2",
                     "--set", "warmup_epochs=0",
                     "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.glob("metrics_*.csv"))
        assert len(files) == 6
        grid = json.loads((out / "grid.json").read_text())
        assert len(grid) == 6

    @pytest.mark.parametrize("settings, message", [
        (["probe_epochs=5", "probe_lr=1e300"], "linear probe diverged"),
        (["epochs=2", "lr_base=1e12"], "history drift"),
    ], ids=["probe", "training"])
    def test_divergence_exits_3(self, tmp_path, capsys, settings, message):
        out = tmp_path / "grid"
        sets = ["epochs=1", "batch_size=16", "workers=2", "data.per_class=16",
                "data.num_classes=3", "data.dim=8", "probe_epochs=2",
                "warmup_epochs=0", *settings]
        code = main(["ablate", "--preset", "table1-grid",
                     *(a for s in sets for a in ("--set", s)),
                     "--out", str(out)])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (out / "grid.json").exists()

    def test_diverging_grid_exits_3_quietly(self, tmp_path, capsys):
        line = exits_3_quietly(capsys, [
            "ablate", "--preset", "table1-grid", "--set", "epochs=1",
            "--set", "data.per_class=8", "--set", "batch_size=8",
            "--set", "lr_base=1e12", "--out", str(tmp_path / "grid")])
        assert "history drift" in line

    def test_config_time_error_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main(["ablate", "--preset", "table1-grid",
                     "--set", 'encoder={"widths":[16,64,64],"bn":[true,true],'
                              '"relu":[true,true]}',
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: encoder: ")
        assert not out.exists()


class TestHeapPolicy:
    def test_record_names_both_thresholds(self):
        record = keep_freed_memory()
        assert record == {"applied": record["applied"],
                          "trim_threshold": 256 << 20,
                          "mmap_threshold": 32 << 20}
        assert keep_freed_memory() is record  # set once per process

    @pytest.mark.parametrize("confstr", ["none", "unknown-name"])
    def test_without_glibc_it_is_a_silent_no_op(self, monkeypatch, capsys,
                                                confstr):
        def no_glibc(name):
            if confstr == "none":
                return None
            raise ValueError("unrecognized configuration name")

        def no_lookup(*args):
            raise AssertionError("mallopt looked up without glibc")

        monkeypatch.setattr(cli, "_heap_record", None)
        monkeypatch.setattr(cli.os, "confstr", no_glibc)
        monkeypatch.setattr(cli.ctypes, "CDLL", no_lookup)
        assert keep_freed_memory() == {"applied": False, **cli.HEAP_POLICY}
        assert capsys.readouterr() == ("", "")


def test_write_metrics_csv_format(tmp_path):
    from m2t.trainer import MetricsRecord
    rec = MetricsRecord(iteration=0, epoch=0, loss=1.5, l1=1.0, l2=0.5,
                        lr=0.1, m=0.03, alpha=1.0, hist_drift=0.2,
                        sec_per_iter=0.001)
    path = tmp_path / "m.csv"
    write_metrics_csv([rec], path)
    text = path.read_text()
    assert "wall" not in text.split("\n")[0]
    assert text.split("\n")[1].startswith("0,0,1.5,1,0.5,")
