"""Decoding of JSON config sections into the frozen config dataclasses, and
the one per-field rule that both JSON configs and Python callers meet."""

from __future__ import annotations

import functools
import math
import types
import typing

from .errors import TradeLabError

__all__ = ["ConfigError", "field_fault", "check_fields", "decode_config"]


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


def field_fault(value, hint) -> str | None:
    """Why ``value`` cannot fill a config field annotated ``hint``, or None:
    a value of another type (nothing is coerced, and a bool is not a number),
    NaN or an infinity."""
    if not _is_json_type(value, hint):
        return f"must be {hint if typing.get_origin(hint) else hint.__name__}, got {value!r}"
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be a finite number, got {value!r}"
    return None


def check_fields(record) -> None:
    """Raise ValueError for the first field of the config dataclass ``record``
    that ``field_fault`` refuses, so a config built in Python meets the rule
    that ``decode_config`` applies to JSON."""
    for name, hint in _type_hints(type(record)).items():
        fault = field_fault(getattr(record, name), hint)
        if fault is not None:
            raise ValueError(f"{name} {fault}")


def decode_config(cls, data, section: str | None):
    """Build ``cls`` from the JSON object ``data``; unknown fields, values that
    ``field_fault`` refuses (``json.loads`` accepts NaN and infinities) and
    out-of-range values raise a ConfigError naming ``section`` (None for the
    top level) and the field."""
    where = "config" if section is None else f"config section {section!r}"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    hints = _type_hints(cls)
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"{where} has unknown field {key!r}")
        fault = field_fault(value, hints[key])
        if fault is not None:
            raise ConfigError(f"config field {key if section is None else f'{section}.{key}'} {fault}")
    try:
        return cls(**data)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
