"""Exception types shared across the package, and the configs' integer check."""

import dataclasses


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ConfigError(ValueError):
    """A structural argument (kernel size, factor, enum value, config key) is invalid."""


class NonFiniteError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


class TapeError(RuntimeError):
    """The gradient tape was misused (empty, already consumed, or disconnected)."""


def check_int_fields(config) -> None:
    """Raise ``ConfigError`` unless every field of the dataclass ``config``
    annotated ``int`` holds an int, not a bool; a field annotated
    ``int | None`` may also hold None."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type == "int" or (f.type == "int | None" and value is not None):
            if type(value) is not int:
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
