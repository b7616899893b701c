"""The JSON form of every dataclass written to a phase artifact.

A dataclass's field declarations are its artifact format:

- keys come out in declaration order;
- a field renames its key with ``field(metadata={"key": ...})``;
- an absent key takes the field's declared default, and an absent key of a
  field without one raises ``InvalidInputError`` naming the class and key;
- ``null`` and an absent key are the only ways to get ``None``.

Field types may be ``str``, ``int``, ``float``, ``bool``, ``Any``,
``Optional[T]``, ``list[T]``, ``tuple[T, ...]``, ``dict[str, T]``, another
dataclass, an ``Enum`` (stored by value) or ``CanonicalId`` (stored as its
string form). Each class's field plan is built once from its resolved type
hints and cached.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from enum import Enum
from typing import Any, Callable, Mapping, Optional, TypeVar, Union

from .errors import InvalidInputError
from .papers import CanonicalId

T = TypeVar("T")

#: Turns one value into its JSON form or back; None when it passes unchanged.
Convert = Optional[Callable[[Any], Any]]

_PLAIN = (str, int, float, bool, Any)


def encode(obj: Any) -> dict[str, Any]:
    """The JSON-ready dict of a dataclass instance, keys in declaration order."""
    return {
        key: getattr(obj, name) if enc is None else enc(getattr(obj, name))
        for name, key, _, enc, _ in _plan(type(obj))
    }


def decode(cls: type[T], data: Mapping[str, Any]) -> T:
    """Build ``cls`` from its JSON form; malformed input raises InvalidInputError."""
    try:
        return _decode(cls, data)
    except InvalidInputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed {cls.__name__}: {exc}") from exc


def _decode(cls: type[T], data: Mapping[str, Any]) -> T:
    kwargs: dict[str, Any] = {}
    for name, key, required, _, dec in _plan(cls):
        if key in data:
            kwargs[name] = data[key] if dec is None else dec(data[key])
        elif required:
            raise InvalidInputError(f"{cls.__name__}: missing required key {key!r}")
    return cls(**kwargs)


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, str, bool, Convert, Convert], ...]:
    """(attribute, key, required, encode, decode) for each field of ``cls``."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        plan.append((f.name, f.metadata.get("key", f.name), required, *_converters(hints[f.name])))
    return tuple(plan)


def _converters(tp: Any) -> tuple[Convert, Convert]:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (Union, types.UnionType):
        inner = [a for a in args if a is not type(None)]
        if len(inner) != 1:
            raise TypeError(f"no codec for union {tp!r}")
        enc, dec = _converters(inner[0])
        return _nullable(enc), _nullable(dec)
    if origin is list or (origin is tuple and len(args) == 2 and args[1] is Ellipsis):
        enc, dec = _converters(args[0])
        return _each(enc, list), _each(dec, origin)
    if origin is dict:
        enc, dec = _converters(args[1])
        return _values(enc), _values(dec)
    if tp is CanonicalId:
        return str, CanonicalId.parse
    if isinstance(tp, type) and issubclass(tp, Enum):
        return (lambda member: member.value), tp
    if dataclasses.is_dataclass(tp):
        return encode, functools.partial(_decode, tp)
    if tp in _PLAIN:
        return None, None
    raise TypeError(f"no codec for field type {tp!r}")


def _nullable(convert: Convert) -> Convert:
    if convert is None:
        return None
    return lambda value: None if value is None else convert(value)


def _each(convert: Convert, container: type) -> Callable:
    if convert is None:
        return container
    return lambda values: container([convert(v) for v in values])


def _values(convert: Convert) -> Callable:
    if convert is None:
        return dict
    return lambda mapping: {k: convert(v) for k, v in mapping.items()}
