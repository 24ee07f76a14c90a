"""Configuration parsing, validation, and seed threading."""

from __future__ import annotations

import json

import pytest

from pathmove.config import RunConfig, config_from_dict, config_to_dict, load_config
from pathmove.errors import ConfigError


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.threshold == 0.5
        assert config.code_dim == 384
        assert config.pca_variance_threshold == 0.95
        # kernel approximation is on by default; a plain linear model
        # scores every candidate class of a method identically
        assert config.rff_enabled is True

    def test_one_seed_drives_every_component(self):
        config = RunConfig(seed=9)
        assert config.limits().seed == 9
        assert config.train_config().seed == 9
        assert config.svm_hyperparams().seed == 9

    def test_component_views_mirror_fields(self):
        config = RunConfig(max_length=6, token_dim=32, svm_c=4.0)
        assert config.limits().max_length == 6
        assert config.train_config().d_t == 32
        assert config.svm_hyperparams().C == 4.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": 0.0},
            {"threshold": 1.0},
            {"svm_c": 0.0},
            {"rff_dim": 0},
            {"rff_gamma": -1.0},
            {"max_moves": 0},
            {"pca_k": 0},
            {"pca_variance_threshold": 0.0},
            {"pca_variance_threshold": 1.5},
            {"epochs": 0},
            {"max_length": 0},
            {"svm_epochs": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


class TestDictMapping:
    def test_empty_object_gives_defaults(self):
        assert config_from_dict({}) == RunConfig()

    def test_round_trip(self):
        config = RunConfig(
            seed=4,
            threshold=0.6,
            token_dim=64,
            pca_k=10,
            rff_enabled=True,
            rff_gamma=0.5,
            max_moves=7,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_sections_map_to_fields(self):
        config = config_from_dict(
            {
                "seed": 2,
                "limits": {"max_length": 6},
                "embedder": {"code_dim": 64},
                "pca": {"variance_threshold": 0.9},
                "svm": {"c": 2.0},
                "rff": {"enabled": True, "dim": 32},
                "injection": {"max_moves": 3},
            }
        )
        assert config.seed == 2
        assert config.max_length == 6
        assert config.code_dim == 64
        assert config.pca_variance_threshold == 0.9
        assert config.svm_c == 2.0
        assert config.rff_enabled is True
        assert config.rff_dim == 32
        assert config.max_moves == 3

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict({"sedd": 1})

    def test_rejects_unknown_section_key(self):
        with pytest.raises(ConfigError, match="embedder.codedim"):
            config_from_dict({"embedder": {"codedim": 64}})

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
            '{"limits": {"max_contexts": 2.5}}',
            '{"embedder": {"epochs": 1.5}}',
            '{"embedder": {"token_dim": 8.5}}',
            '{"seed": "x"}',
            '{"seed": 1.5}',
            '{"svm": {"epochs": 2.5}}',
            '{"rff": {"dim": 3.5}}',
            '{"pca": {"k": 2.5}}',
            '{"embedder": {"learning_rate": NaN}}',
            '{"embedder": {"learning_rate": Infinity}}',
            '{"rff": {"gamma": NaN}}',
            '{"svm": {"c": Infinity}}',
            '{"rff": {"enabled": "no"}}',
            '{"injection": {"max_moves": 1.5}}',
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
