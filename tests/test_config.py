"""Configuration parsing, validation, and seed threading."""

from __future__ import annotations

import inspect
import json
import re
from pathlib import Path

import pytest

from pathmove.config import RunConfig, config_from_dict, config_to_dict, load_config, setting_key
from pathmove.embed import TrainConfig
from pathmove.errors import ConfigError
from pathmove.pathctx import ExtractionLimits
from pathmove.svm import train_svm

README = Path(__file__).resolve().parents[1] / "README.md"


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.threshold == 0.5
        assert config.code_dim == 384
        assert config.epochs == 2
        # the kernel approximation is the only classifier path
        assert config.rff_enabled is True

    def test_defaults_agree_with_components_and_readme(self):
        # RunConfig takes its component defaults from the components; the
        # README's config block states them once more, for the reader
        assert RunConfig().limits() == ExtractionLimits()
        assert RunConfig().train_config() == TrainConfig()
        svm_epochs = inspect.signature(train_svm).parameters["epochs"].default
        assert RunConfig().svm_epochs == svm_epochs
        section = README.read_text().split("\n## Configuration\n", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        assert json.loads(block) == config_to_dict(RunConfig())

    def test_one_seed_drives_every_component(self):
        config = RunConfig(seed=9)
        assert config.limits().seed == 9
        assert config.train_config().seed == 9

    def test_component_views_mirror_fields(self):
        config = RunConfig(token_dim=32, batch_size=8)
        assert config.train_config().d_t == 32
        assert config.train_config().batch_size == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": 0.0},
            {"threshold": 1.0},
            {"token_dim": 0},
            {"rff_dim": 0},
            {"batch_size": 0},
            {"path_dim": 0},
            {"code_dim": 0},
            {"threshold": -0.5},
            {"threshold": 1.5},
            {"epochs": 0},
            {"rff_dim": -1},
            {"svm_epochs": 0},
            {"seed": -1},
            {"rff_enabled": False},
            {"svm_epochs": -2},
            {"code_dim": -3},
            {"min_count": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        # the message names the key as the config file spells it
        (name,) = kwargs
        with pytest.raises(ConfigError, match=re.escape(setting_key(name))):
            RunConfig(**kwargs)


class TestDictMapping:
    def test_empty_object_gives_defaults(self):
        assert config_from_dict({}) == RunConfig()

    def test_round_trip(self):
        config = RunConfig(
            seed=4,
            threshold=0.6,
            token_dim=64,
            min_count=3,
            svm_epochs=50,
            rff_dim=32,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_sections_map_to_fields(self):
        config = config_from_dict(
            {
                "seed": 2,
                "embedder": {"code_dim": 64},
                "svm": {"epochs": 20},
                "rff": {"enabled": True, "dim": 32},
            }
        )
        assert config.seed == 2
        assert config.code_dim == 64
        assert config.svm_epochs == 20
        assert config.rff_enabled is True
        assert config.rff_dim == 32

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict({"sedd": 1})

    def test_rejects_unknown_section_key(self):
        with pytest.raises(ConfigError, match="embedder.codedim"):
            config_from_dict({"embedder": {"codedim": 64}})

    @pytest.mark.parametrize("data, key", [({"pca": {"k": 3}}, "'pca'"),
                                           ({"rff": {"gamma": 0.5}}, "rff.gamma")],
                             ids=["pca-k", "rff-gamma"])
    def test_rejects_removed_width_overrides(self, data, key):
        # both widths always come from the training split
        with pytest.raises(ConfigError, match=f"unknown config key {key}"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"limits": {"max_length": 8, "max_width": 2, "max_contexts": 200}}, "'limits'"),
            ({"embedder": {"learning_rate": 0.001}}, "embedder.learning_rate"),
            ({"pca": {"variance_threshold": 0.95}}, "'pca'"),
            ({"svm": {"c": 10.0}}, "svm.c"),
            ({"injection": {"max_moves": None}}, "'injection'"),
        ],
        ids=["limits", "learning-rate", "pca-variance", "svm-c", "injection"],
    )
    def test_rejects_removed_keys(self, data, key):
        # no caller set them; they are fixed at the component defaults
        with pytest.raises(ConfigError, match=f"unknown config key {key}"):
            config_from_dict(data)

    def test_rejects_non_object_section(self):
        with pytest.raises(ConfigError):
            config_from_dict({"embedder": 64})

    def test_rejects_non_object_root(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])

    def test_wraps_type_errors(self):
        with pytest.raises(ConfigError):
            config_from_dict({"threshold": "two"})

    @pytest.mark.parametrize(
        "text",
        [
            '{"embedder": {"batch_size": 2.5}}',
            '{"embedder": {"epochs": 1.5}}',
            '{"embedder": {"token_dim": 8.5}}',
            '{"seed": "x"}',
            '{"seed": 1.5}',
            '{"svm": {"epochs": 2.5}}',
            '{"rff": {"dim": 3.5}}',
            '{"threshold": NaN}',
            '{"threshold": Infinity}',
            '{"threshold": -Infinity}',
            # integers beyond the float range
            pytest.param('{"threshold": 1%s}' % ("0" * 400), id="huge-threshold"),
            pytest.param('{"threshold": -1%s}' % ("0" * 400), id="huge-negative-threshold"),
            '{"rff": {"enabled": "no"}}',
            '{"embedder": {"min_count": null}}',
            '{"embedder": {"epochs": true}}',
        ],
    )
    def test_rejects_value_of_wrong_type(self, text):
        data = json.loads(text)
        section, value = next(iter(data.items()))
        key = section if not isinstance(value, dict) else f"{section}.{next(iter(value))}"
        with pytest.raises(ConfigError, match=rf"config value {key} must be"):
            config_from_dict(data)


class TestLoadConfig:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 11, "svm": {"epochs": 50}}))
        config = load_config(path)
        assert config.seed == 11
        assert config.svm_epochs == 50

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)
