import json

import pytest

from m2t import config as config_mod
from m2t.config import (ConfigError, TrainConfig, apply_overrides, decode,
                        encode, from_dict)


def minimal_doc(**extra):
    doc = {"mode": "byol_m2t", "seed": 0, "epochs": 1}
    doc.update(extra)
    return doc


class TestFromDict:
    def test_minimal_document(self):
        cfg = from_dict(minimal_doc())
        assert cfg.mode == "byol_m2t"
        assert (cfg.student_bn, cfg.teacher_bn) == ("plain", "momentum")

    def test_missing_required_field_names_it(self):
        with pytest.raises(ConfigError, match="seed: missing"):
            from_dict({"mode": "byol_m2t", "epochs": 1})

    def test_unknown_field_names_it(self):
        with pytest.raises(ConfigError, match="learning_rate: unknown"):
            from_dict(minimal_doc(learning_rate=0.1))

    def test_unknown_nested_field_has_path(self):
        with pytest.raises(ConfigError, match="data.classes: unknown"):
            from_dict(minimal_doc(data={"classes": 5}))

    def test_invalid_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            from_dict(minimal_doc(mode="dino"))

    def test_indivisible_workers(self):
        with pytest.raises(ConfigError, match="workers"):
            from_dict(minimal_doc(batch_size=10, workers=4))

    @pytest.mark.parametrize("name", ["m_schedule", "alpha_schedule"])
    def test_unknown_schedule_kind_names_its_field(self, name):
        with pytest.raises(ConfigError, match=f"{name}: must be one of"):
            from_dict(minimal_doc(**{name: "linear"}))

    def test_moco_temperature_that_overflows_infonce_names_it(self):
        with pytest.raises(ConfigError, match="^temperature: "):
            from_dict(minimal_doc(mode="moco", temperature=1e-3))
        from_dict(minimal_doc(mode="moco", temperature=0.002))
        from_dict(minimal_doc(mode="byol_m2t", temperature=1e-3))  # no InfoNCE

    def test_seed_outside_32_bits_names_it(self):
        # The random streams key on a seed's low 32 bits: seeds 2**32 apart
        # would give one run.
        for seed in (-1, 2 ** 32, -2 ** 32):
            with pytest.raises(ConfigError, match=r"^seed: must lie in"):
                from_dict(minimal_doc(seed=seed))
        assert from_dict(minimal_doc(seed=2 ** 32 - 1)).seed == 2 ** 32 - 1

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha_base"):
            from_dict(minimal_doc(alpha_base=1.5))

    def test_mode_presets_resolve_bn(self):
        for mode in ("byol_m2t", "moco"):
            cfg = from_dict(minimal_doc(mode=mode))
            assert (cfg.student_bn, cfg.teacher_bn) == ("plain", "momentum")
        cfg = from_dict(minimal_doc(mode="moco", teacher_bn="shuffling"))
        assert (cfg.student_bn, cfg.teacher_bn) == ("plain", "shuffling")
        cfg = from_dict(minimal_doc(student_bn="synced", teacher_bn="plain"))
        assert (cfg.student_bn, cfg.teacher_bn) == ("synced", "plain")

    @pytest.mark.parametrize("doc, message", [
        (minimal_doc(epochs="1"), "epochs: expected an integer"),
        (minimal_doc(epochs=True), "epochs: expected an integer"),
        (minimal_doc(lr_base="abc"), "lr_base: expected a number"),
        (minimal_doc(lr_base=False), "lr_base: expected a number"),
        (minimal_doc(batch_size=None), "batch_size: expected an integer"),
        (minimal_doc(auto_scale=1), "auto_scale: expected a boolean"),
        (minimal_doc(mode=3), "mode: expected a string"),
        (minimal_doc(data=None), "data: expected an object"),
        (minimal_doc(data=[1]), "data: expected an object"),
        (minimal_doc(data={"per_class": "x"}), "data.per_class: expected an"),
        (minimal_doc(data={"images_path": 3}), "data.images_path: expected a"),
        (minimal_doc(augment=None), "augment: expected an object"),
        (minimal_doc(encoder=5), "encoder: expected an object"),
        # A regex "." stands for each bracket of a list item's path.
        (minimal_doc(encoder={"widths": [32, 2.5], "bn": [True],
                              "relu": [True]}),
         "^encoder.widths.1.: expected an integer, got 2.5"),
        (minimal_doc(encoder={"widths": [32, 64], "bn": [1],
                              "relu": [True]}),
         "^encoder.bn.0.: expected a boolean, got 1"),
        ([minimal_doc()], "config: expected an object"),
    ])
    def test_ill_typed_value_names_its_path(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            from_dict(doc)

    def test_int_fits_float_and_null_fits_optional(self):
        cfg = from_dict(minimal_doc(lr_base=1, encoder=None,
                                    data={"spread": 0, "labels_path": None}))
        assert cfg.lr_base == 1 and cfg.data.spread == 0
        assert cfg.encoder is None and cfg.data.labels_path is None

    def test_idx_kind_requires_path(self):
        with pytest.raises(ConfigError, match="data.images_path"):
            from_dict(minimal_doc(data={"kind": "idx"}))


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        doc = minimal_doc(
            batch_size=32, workers=2, lr_base=0.25,
            data={"kind": "synthetic", "num_classes": 5, "dim": 16,
                  "per_class": 50, "spread": 0.2},
            augment={"noise_std": 0.1, "mask_prob": 0.05},
            encoder={"widths": [16, 32, 32], "bn": [True, True],
                     "relu": [True, True]},
        )
        cfg1 = from_dict(doc)
        cfg2 = from_dict(cfg1.to_dict())
        assert cfg1 == cfg2
        assert cfg1.to_dict() == cfg2.to_dict()

    @pytest.mark.parametrize("name", config_mod.PRESET_NAMES)
    def test_decode_inverts_encode_on_presets(self, name):
        cfg = from_dict(config_mod.preset(name))
        assert decode(TrainConfig, encode(cfg)) == cfg

    def test_json_text_roundtrip(self):
        cfg1 = from_dict(minimal_doc())
        cfg2 = from_dict(json.loads(json.dumps(cfg1.to_dict())))
        assert cfg1 == cfg2


class TestOverrides:
    def test_scalar_override(self):
        doc = apply_overrides(minimal_doc(), ["epochs=5", "lr_base=0.7"])
        cfg = from_dict(doc)
        assert cfg.epochs == 5 and cfg.lr_base == 0.7

    def test_nested_override(self):
        doc = apply_overrides(minimal_doc(), ["data.spread=0.5"])
        assert from_dict(doc).data.spread == 0.5

    def test_string_fallback(self):
        doc = apply_overrides(minimal_doc(), ["mode=moco"])
        assert from_dict(doc).mode == "moco"

    def test_original_not_mutated(self):
        doc = minimal_doc()
        apply_overrides(doc, ["epochs=9"])
        assert doc["epochs"] == 1

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(minimal_doc(), ["epochs"])


class TestPresets:
    def test_all_presets_validate(self):
        for name in config_mod.PRESET_NAMES:
            cfg = from_dict(config_mod.preset(name))
            assert isinstance(cfg, TrainConfig)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            config_mod.preset("nope")

    def test_moco_preset_uses_constant_schedules(self):
        cfg = from_dict(config_mod.preset("moco-smoke"))
        assert cfg.mode == "moco"
        assert cfg.m_schedule == "constant"
        assert cfg.alpha_schedule == "constant"
        assert cfg.alpha_base == 0.064
