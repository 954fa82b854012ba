"""Decoding of JSON config sections into the frozen config dataclasses, and
the one per-field rule that both JSON configs and Python callers meet."""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

from .errors import TradeLabError

__all__ = ["ConfigError", "check_fields", "decode_config"]


class ConfigError(TradeLabError):
    pass


def _is_json_type(value, hint) -> bool:
    """Whether a decoded JSON value fits a field annotation as it is, uncoerced."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_is_json_type(value, arg) for arg in args)
    if origin in (tuple, list):
        return isinstance(value, (list, tuple)) and all(_is_json_type(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(_is_json_type(v, args[1]) for v in value.values())
    if hint is type(None):
        return value is None
    if isinstance(value, bool):  # JSON true/false is not a number
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


_type_hints = functools.cache(typing.get_type_hints)  # one evaluation of the annotations per class


def check_fields(record) -> None:
    """Raise ValueError for the first field of the config dataclass ``record``
    that holds a value of another type (nothing is coerced, and a bool is not
    a number), NaN or an infinity. Each config class calls it first in
    ``__post_init__``, so configs from JSON and from Python meet one rule."""
    for name, hint in _type_hints(type(record)).items():
        value = getattr(record, name)
        if not _is_json_type(value, hint):
            raise ValueError(f"{name} must be {hint if typing.get_origin(hint) else hint.__name__}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def decode_config(cls, data, section: str | None):
    """Build ``cls`` from the JSON object ``data``, a field typed as a config
    class from its own JSON object; unknown fields and the faults the class
    refuses (``json.loads`` accepts NaN and infinities) raise a ConfigError
    naming ``section`` (None for the top level) and the field."""
    where = "config" if section is None else f"config section {section!r}"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    hints = _type_hints(cls)
    fields = {}
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"{where} has unknown field {key!r}")
        fields[key] = decode_config(hints[key], value, key) if dataclasses.is_dataclass(hints[key]) else value
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
