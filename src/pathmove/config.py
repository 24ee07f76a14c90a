"""Run configuration: one JSON file drives every pipeline stage.

The file is a flat object of sections; unknown keys anywhere are errors
so typos cannot silently fall back to defaults.  Every field has a
default, so an empty object {} is a valid config.  A value must have
its field's annotated type (a bool is not an int, floats are finite).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .embed import TrainConfig
from .errors import ConfigError
from .pathctx import ExtractionLimits
from .svm import SvmHyperparams


@dataclass
class RunConfig:
    seed: int = 0
    threshold: float = 0.5
    work_dir: str = "work"
    max_length: int = 8
    max_width: int = 2
    max_contexts: int = 200
    token_dim: int = 128
    path_dim: int = 128
    code_dim: int = 384
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    min_count: int = 2
    pca_variance_threshold: float = 0.95
    pca_k: int | None = None
    svm_c: float = 1.0
    svm_epochs: int = 200
    rff_enabled: bool = True
    rff_dim: int = 256
    rff_gamma: float | None = None
    max_moves: int | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            what = _mistyped(value, f.type)
            if what:
                raise ConfigError(
                    f"config value {_KEYS.get(f.name, f.name)} must be {what}, got {value!r}"
                )
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.rff_dim < 1:
            raise ConfigError("rff dim must be positive")
        if self.rff_gamma is not None and self.rff_gamma <= 0:
            raise ConfigError("rff gamma must be positive when set")
        if self.max_moves is not None and self.max_moves < 1:
            raise ConfigError("injection max_moves must be positive when set")
        if self.pca_k is not None and self.pca_k < 1:
            raise ConfigError("pca k must be positive when set")
        if not 0.0 < self.pca_variance_threshold <= 1.0:
            raise ConfigError("pca variance threshold must lie in (0, 1]")
        # component configs validate their own numeric ranges eagerly
        self.limits()
        self.train_config()
        self.svm_hyperparams()

    def limits(self) -> ExtractionLimits:
        try:
            return ExtractionLimits(
                self.max_length, self.max_width, self.max_contexts, self.seed
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(
                d_t=self.token_dim,
                d_p=self.path_dim,
                d=self.code_dim,
                learning_rate=self.learning_rate,
                batch_size=self.batch_size,
                epochs=self.epochs,
                seed=self.seed,
                min_count=self.min_count,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def svm_hyperparams(self) -> SvmHyperparams:
        try:
            return SvmHyperparams(C=self.svm_c, epochs=self.svm_epochs, seed=self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_SECTIONS: dict[str, dict[str, str]] = {
    "limits": {
        "max_length": "max_length",
        "max_width": "max_width",
        "max_contexts": "max_contexts",
    },
    "embedder": {
        "token_dim": "token_dim",
        "path_dim": "path_dim",
        "code_dim": "code_dim",
        "learning_rate": "learning_rate",
        "batch_size": "batch_size",
        "epochs": "epochs",
        "min_count": "min_count",
    },
    "pca": {
        "variance_threshold": "pca_variance_threshold",
        "k": "pca_k",
    },
    "svm": {
        "c": "svm_c",
        "epochs": "svm_epochs",
    },
    "rff": {
        "enabled": "rff_enabled",
        "dim": "rff_dim",
        "gamma": "rff_gamma",
    },
    "injection": {
        "max_moves": "max_moves",
    },
}

_TOP_LEVEL = {"seed", "threshold", "work_dir"}

_KEYS = {attr: f"{section}.{sub}" for section, m in _SECTIONS.items() for sub, attr in m.items()}

# annotation -> (description, check); a bool is neither an int nor a float
_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": (
        "a finite number",
        lambda v: type(v) is int or type(v) is float and math.isfinite(v),
    ),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
}


def _mistyped(value, annotation: str) -> str | None:
    """What a value of `annotation` ("int", "float | None", ...) must be
    when `value` does not have that type; None when it does."""
    kind, _, optional = annotation.partition(" | ")
    what, check = _TYPES[kind]
    if optional and value is None or check(value):
        return None
    return what + (" or null" if optional else "")


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
    try:
        return RunConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def config_to_dict(config: RunConfig) -> dict:
    """Inverse of config_from_dict; `model.pmb` stores part of it."""
    out: dict = {key: getattr(config, key) for key in sorted(_TOP_LEVEL)}
    for section, mapping in _SECTIONS.items():
        out[section] = {sub: getattr(config, attr) for sub, attr in mapping.items()}
    return out


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
