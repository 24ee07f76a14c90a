"""Run configuration: one JSON file drives every pipeline stage.

The file is a flat object of sections; unknown keys anywhere are errors
so typos cannot silently fall back to defaults.  Every field has a
default, so an empty object {} is a valid config.  A value must have
its field's annotated type (a bool is not an int, floats are finite).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .bundle import decode_json
from .embed import TrainConfig
from .errors import ConfigError
from .pathctx import ExtractionLimits


@dataclass
class RunConfig:
    seed: int = 0
    threshold: float = 0.5
    work_dir: str = "work"
    token_dim: int = 128
    path_dim: int = 128
    code_dim: int = 384
    batch_size: int = 32
    epochs: int = 2
    min_count: int = 2
    svm_epochs: int = 200
    rff_enabled: bool = True
    rff_dim: int = 256

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            what, check = _TYPES[f.type]
            if not check(value):
                raise ConfigError(
                    f"config value {_KEYS.get(f.name, f.name)} must be {what}, got {value!r}"
                )
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if not self.rff_enabled:
            raise ConfigError("rff.enabled must be true: without the feature map, "
                              "every method ranks its candidate classes alike")
        for name in _POSITIVE:
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{_KEYS[name]} must be positive, got {value}")

    def limits(self) -> ExtractionLimits:
        return ExtractionLimits(seed=self.seed)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            d_t=self.token_dim,
            d_p=self.path_dim,
            d=self.code_dim,
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=self.seed,
            min_count=self.min_count,
        )


_SECTIONS: dict[str, dict[str, str]] = {
    "embedder": {
        "token_dim": "token_dim",
        "path_dim": "path_dim",
        "code_dim": "code_dim",
        "batch_size": "batch_size",
        "epochs": "epochs",
        "min_count": "min_count",
    },
    "svm": {
        "epochs": "svm_epochs",
    },
    "rff": {
        "enabled": "rff_enabled",
        "dim": "rff_dim",
    },
}

_TOP_LEVEL = {"seed", "threshold", "work_dir"}

_KEYS = {attr: f"{section}.{sub}" for section, m in _SECTIONS.items() for sub, attr in m.items()}

# the keys that must be above zero
_POSITIVE = ("token_dim", "path_dim", "code_dim", "batch_size", "epochs", "min_count",
             "svm_epochs", "rff_dim")

# annotation -> (description, check); a bool is neither an int nor a float
_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    # an int beyond the float range would overflow where the value is used
    "float": (
        "a finite number",
        lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    ),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
}


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    kwargs = {}
    for key, value in data.items():
        if key in _TOP_LEVEL:
            kwargs[key] = value
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            mapping = _SECTIONS[key]
            for sub, sub_value in value.items():
                if sub not in mapping:
                    raise ConfigError(f"unknown config key {key}.{sub}")
                kwargs[mapping[sub]] = sub_value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return RunConfig(**kwargs)


def config_to_dict(config: RunConfig) -> dict:
    """Inverse of config_from_dict; `model.pmb` stores part of it."""
    out: dict = {key: getattr(config, key) for key in sorted(_TOP_LEVEL)}
    for section, mapping in _SECTIONS.items():
        out[section] = {sub: getattr(config, attr) for sub, attr in mapping.items()}
    return out


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = decode_json(text)
    except ValueError as exc:  # JSONDecodeError, deep nesting, an integer of too many digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
