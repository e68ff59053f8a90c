"""Flat `key = value` run configuration shared by all CLI commands.

The keys are the fields of ``StackConfig``, ``GbstConfig`` and ``TrainConfig``,
with their types and defaults (``StackConfig.d_model`` is the ``embedding_dim``
key). ``RunConfig`` declares only what is its own: the paths, and
``learning_rate`` and ``schedule``, unset until ``resolve_for`` fills them in.

One key per line, `#` starts a comment, booleans are true/false, and `none`
clears an optional. Every run writes its fully resolved config next to its
outputs; feeding that file back reproduces the run.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import field, fields

from .errors import ConfigError
from .model import StackConfig
from .subword import GbstConfig
from .train import TrainConfig

_SECTIONS = (StackConfig, GbstConfig, TrainConfig)
_KEY = {"d_model": "embedding_dim"}  # section field -> key, where the two differ
# key -> (type, default) of RunConfig's own fields; learning_rate and schedule
# replace TrainConfig's, so that each command can default them differently
_OWN = {
    "learning_rate": (float | None, None),
    "schedule": (str | None, None),
    "corpus": (str | None, None),
    "checkpoint": (str | None, None),
    "out_dir": (str, "runs/latest"),
}


def _keys() -> list[tuple[str, object, dataclasses.Field]]:
    """(key, type, default) of every section field in section order, then the paths."""
    keys = {}
    for cls in _SECTIONS:
        types = typing.get_type_hints(cls)
        for f in fields(cls):
            keys.setdefault(_KEY.get(f.name, f.name), (types[f.name], f.default))
    keys.update(_OWN)
    return [(key, kind, field(default=default)) for key, (kind, default) in keys.items()]


def _build(cls, cfg):
    return cls(**{f.name: getattr(cfg, _KEY.get(f.name, f.name)) for f in fields(cls)})


class _Sections:
    """The section configs that a RunConfig's keys describe."""

    def gbst_config(self) -> GbstConfig | None:
        return _build(GbstConfig, self) if self.frontend == "gbst" else None

    def stack_config(self) -> StackConfig:
        return _build(StackConfig, self)

    def train_config(self) -> TrainConfig:
        if self.learning_rate is None or self.schedule is None:
            raise ConfigError("learning_rate/schedule unresolved; call resolve_for first")
        return _build(TrainConfig, self)


RunConfig = dataclasses.make_dataclass(
    "RunConfig", _keys(), bases=(_Sections,), namespace={"__module__": __name__}
)


# commands fill LR defaults differently: pre-training decays from a higher
# base, fine-tuning uses a constant 1e-3
_COMMAND_DEFAULTS = {
    "pretrain": {"schedule": "inverse_sqrt", "learning_rate": 0.1},
    "finetune": {"schedule": "constant", "learning_rate": 1e-3},
}


def resolve_for(command: str, cfg: RunConfig) -> RunConfig:
    defaults = _COMMAND_DEFAULTS.get(command, _COMMAND_DEFAULTS["pretrain"])
    unset = {key: value for key, value in defaults.items() if getattr(cfg, key) is None}
    return dataclasses.replace(cfg, **unset)


def with_model(cfg: RunConfig, stack: StackConfig, gbst: GbstConfig | None) -> RunConfig:
    """``cfg`` with its stack and GBST keys taken from a model's configs."""
    sections = [s for s in (stack, gbst) if s is not None]
    return dataclasses.replace(
        cfg, **{_KEY.get(f.name, f.name): getattr(s, f.name) for s in sections for f in fields(s)}
    )


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key: {key}")
    kind = _FIELDS[key].type
    if raw.lower() == "none":
        if type(None) in typing.get_args(kind):
            return None
        raise ConfigError(f"config key {key} cannot be none")
    kind = next((t for t in typing.get_args(kind) if t is not type(None)), kind)
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key} expects true/false, got {raw!r}")
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(f"config key {key} expects {expected}, got {raw!r}")
    return raw


def parse_config_text(text: str) -> RunConfig:
    """The ``RunConfig`` of a config file's text; a key given twice is a
    ``ConfigError``, not a silent override."""
    values, seen = {}, {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key in seen:
            raise ConfigError(f"config key {key} given twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
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
    """Floats are written with ``repr``, the shortest text that reads back
    as the same float, so the resolved file reproduces the run."""
    lines = ["# resolved run configuration"]
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            rendered = "none"
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"
