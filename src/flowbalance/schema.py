"""The rules every config dataclass checks its fields by, and the one
builder that makes a config from a section of overrides."""

from __future__ import annotations

import dataclasses
import types
import typing
from functools import cache

from .errors import SchemaError


@cache
def _field_types(cls) -> dict:
    """Field name -> resolved annotation, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _fits(value, hint) -> bool:
    """Whether ``value`` has type ``hint``: a bool is not an int, an int is
    a float, and a list is a tuple."""
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin is types.UnionType:
        return any(_fits(value, h) for h in args)
    if origin is tuple:
        if not isinstance(value, (tuple, list)):
            return False
        if args[1:] == (Ellipsis,):
            return all(_fits(v, args[0]) for v in value)
        return not args or len(value) == len(args) and all(map(_fits, value, args))
    if origin is dict:
        if not isinstance(value, dict):
            return False
        return not args or all(_fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    if isinstance(value, bool):
        return origin is bool
    return isinstance(value, (int, float) if origin is float else origin)


def check_fields(config) -> None:
    """Raise SchemaError unless every field of ``config`` has its declared
    type. Every config's ``__post_init__`` calls this before its range rules."""
    for name, hint in _field_types(type(config)).items():
        value = getattr(config, name)
        if not _fits(value, hint):
            declared = hint.__name__ if isinstance(hint, type) else hint
            raise SchemaError(f"{type(config).__name__}.{name} must be {declared}, got {value!r}")


def check_least(config, error, **least) -> None:
    """Raise ``error`` if a named field of ``config`` is below its least value."""
    for name, low in least.items():
        if getattr(config, name) < low:
            raise error(f"{name} must be at least {low}, got {getattr(config, name)}")


def _tuples(value):
    """``value`` with every list in it, at any depth, made a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuples(v) for v in value)
    return value


def build(cls, overrides, name: str):
    """``cls`` built from the ``overrides`` section named ``name``, lists made
    tuples. Unknown keys raise SchemaError; ``cls`` rejects bad values."""
    if not isinstance(overrides, dict):
        raise SchemaError(f"{name} must map parameter names to values")
    unknown = set(overrides) - set(_field_types(cls))
    if unknown:
        raise SchemaError(f"unknown {name} keys: {sorted(unknown)}")
    return cls(**{key: _tuples(value) for key, value in overrides.items()})
