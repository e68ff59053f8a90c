"""Flat `key = value` run configuration shared by all CLI commands.

One key per line, `#` starts a comment, booleans are true/false, and `none`
clears an optional. Every run writes its fully resolved config next to its
outputs; feeding that file back reproduces the run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

from .errors import ConfigError
from .model import StackConfig
from .subword import GbstConfig
from .train import TrainConfig


@dataclass
class RunConfig:
    # frontend / soft tokenization
    frontend: str = "gbst"
    max_block_size: int = 4
    downsample_rate: int = 2
    conv_kernel_size: int | None = 5
    enable_offsets: bool = False
    enable_calibration: bool = False
    # transformer stack
    embedding_dim: int = 64
    encoder_layers: int = 2
    decoder_layers: int = 2
    heads: int = 4
    head_dim: int = 16
    ffn_dim: int = 256
    max_positions: int = 512
    # training
    batch_size: int = 8
    steps: int = 500
    learning_rate: float | None = None  # per-command default if unset
    schedule: str | None = None  # per-command default if unset
    warmup: int = 100
    seed: int = 0
    freeze_gbst: bool = False
    optimizer: str = "adam"
    grad_clip: float = 1.0
    corruption_rate: float = 0.15
    mean_span: float = 20.0
    window_len: int = 128
    checkpoint_every: int = 0
    # paths
    corpus: str | None = None
    checkpoint: str | None = None
    out_dir: str = "runs/latest"

    def gbst_config(self) -> GbstConfig | None:
        return _build(GbstConfig, self) if self.frontend == "gbst" else None

    def stack_config(self) -> StackConfig:
        return _build(StackConfig, self)

    def train_config(self) -> TrainConfig:
        if self.learning_rate is None or self.schedule is None:
            raise ConfigError("learning_rate/schedule unresolved; call resolve_for first")
        return _build(TrainConfig, self)


def _build(cls, cfg: RunConfig):
    """``cls`` filled from the RunConfig keys of the same name (``d_model`` from
    ``embedding_dim``); fields that have no key keep their defaults."""
    keys = {f.name: "embedding_dim" if f.name == "d_model" else f.name for f in fields(cls)}
    return cls(**{name: getattr(cfg, key) for name, key in keys.items() if key in _FIELDS})


# commands fill LR defaults differently: pre-training decays from a higher
# base, fine-tuning uses a constant 1e-3
_COMMAND_DEFAULTS = {
    "pretrain": {"schedule": "inverse_sqrt", "learning_rate": 0.1},
    "finetune": {"schedule": "constant", "learning_rate": 1e-3},
}


def resolve_for(command: str, cfg: RunConfig) -> RunConfig:
    out = dataclasses.replace(cfg)
    defaults = _COMMAND_DEFAULTS.get(command, _COMMAND_DEFAULTS["pretrain"])
    if out.schedule is None:
        out.schedule = defaults["schedule"]
    if out.learning_rate is None:
        out.learning_rate = defaults["learning_rate"]
    return out


_FIELDS = {f.name: f for f in fields(RunConfig)}
_OPTIONAL_INT = ("conv_kernel_size",)
_OPTIONAL_STR = ("corpus", "checkpoint", "schedule")
_OPTIONAL_FLOAT = ("learning_rate",)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key: {key}")
    if raw.lower() == "none":
        if key in _OPTIONAL_INT + _OPTIONAL_STR + _OPTIONAL_FLOAT:
            return None
        raise ConfigError(f"config key {key} cannot be none")
    default = getattr(RunConfig(), key)
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key} expects true/false, got {raw!r}")
    if key in _OPTIONAL_INT or isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key} expects an integer, got {raw!r}")
    if key in _OPTIONAL_FLOAT or isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {key} expects a number, got {raw!r}")
    return raw


def parse_config_text(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        values[key] = _parse_value(key, raw)
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}")
    return parse_config_text(text)


def format_config(cfg: RunConfig) -> str:
    lines = ["# resolved run configuration"]
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            rendered = "none"
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = f"{value:.10g}"
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"
