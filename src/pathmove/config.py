"""Run configuration: one JSON file drives every pipeline stage.

The file is a flat object of sections; unknown keys anywhere are errors
so typos cannot silently fall back to defaults.  Every field has a
default, so an empty object {} is a valid config.  A value must have
its field's annotated type (a bool is not an int, floats are finite).

Each `RunConfig` field is the one declaration of its setting: its
metadata holds the config key ("seed", "svm.epochs", ...) and whether
the value must be positive.  A component's setting takes its default
from the component: the embedder's from `TrainConfig`, `svm.epochs`
from `svm.EPOCHS`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .bundle import decode_json
from .embed import TrainConfig
from .errors import ConfigError
from .pathctx import ExtractionLimits
from .svm import EPOCHS


def _setting(key: str, default, positive: bool = False):
    return field(default=default, metadata={"key": key, "positive": positive})


@dataclass
class RunConfig:
    seed: int = _setting("seed", 0)
    threshold: float = _setting("threshold", 0.5)
    work_dir: str = _setting("work_dir", "work")
    token_dim: int = _setting("embedder.token_dim", TrainConfig.d_t, positive=True)
    path_dim: int = _setting("embedder.path_dim", TrainConfig.d_p, positive=True)
    code_dim: int = _setting("embedder.code_dim", TrainConfig.d, positive=True)
    batch_size: int = _setting("embedder.batch_size", TrainConfig.batch_size, positive=True)
    epochs: int = _setting("embedder.epochs", TrainConfig.epochs, positive=True)
    min_count: int = _setting("embedder.min_count", TrainConfig.min_count, positive=True)
    svm_epochs: int = _setting("svm.epochs", EPOCHS, positive=True)
    rff_enabled: bool = _setting("rff.enabled", True)
    rff_dim: int = _setting("rff.dim", 256, positive=True)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            what, check = _TYPES[f.type]
            if not check(value):
                raise ConfigError(f"config value {f.metadata['key']} must be {what}, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if not self.rff_enabled:
            raise ConfigError("rff.enabled must be true: without the feature map, "
                              "every method ranks its candidate classes alike")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["positive"] and value <= 0:
                raise ConfigError(f"{f.metadata['key']} must be positive, got {value}")

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


def setting_key(name: str) -> str:
    """The config key of the RunConfig field `name`, e.g. "svm.epochs"."""
    return next(f.metadata["key"] for f in fields(RunConfig) if f.name == name)


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
    # ("svm", "epochs") -> "svm_epochs"
    names = {tuple(f.metadata["key"].split(".")): f.name for f in fields(RunConfig)}
    kwargs = {}
    for key, value in data.items():
        if (key,) in names:
            kwargs[names[(key,)]] = value
        elif any(path[0] == key for path in names):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            for sub, sub_value in value.items():
                if (key, sub) not in names:
                    raise ConfigError(f"unknown config key {key}.{sub}")
                kwargs[names[(key, sub)]] = sub_value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return RunConfig(**kwargs)


def config_to_dict(config: RunConfig) -> dict:
    """Inverse of config_from_dict; `model.pmb` stores part of it."""
    out: dict = {}
    for f in fields(config):
        section, _, sub = f.metadata["key"].rpartition(".")
        (out.setdefault(section, {}) if section else out)[sub] = getattr(config, f.name)
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
