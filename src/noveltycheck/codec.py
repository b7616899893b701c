"""The JSON form of every dataclass written to a phase artifact.

A dataclass's field declarations are its artifact format:

- keys come out in declaration order;
- a field renames its key with ``field(metadata={"key": ...})``;
- a field marked ``field(metadata={"omit_empty": True})`` is left out when its
  value is ``None`` or an empty container, and reads back as its declared
  default;
- an absent key takes the field's declared default, and an absent key of a
  field without one raises ``InvalidInputError`` naming the class and key;
- ``null`` and an absent key are the only ways to get ``None``.

Field types may be ``str``, ``int``, ``float``, ``bool``, ``Any``,
``Optional[T]``, ``list[T]``, ``tuple[T, ...]``, ``dict[str, T]``, another
dataclass or an ``Enum`` (stored by value). Each class's field plan is built
once from its resolved type hints and cached.

Decoding checks the JSON type of every value, container items included, and
a value of the wrong type raises ``InvalidInputError`` naming the class and
key: a ``str``, ``int`` or ``bool`` field takes only its own type (so an
``int`` field does not take ``true``), a ``float`` field also takes an
integer but not NaN or an infinity, an ``Optional`` field also takes
``null``, list and tuple fields take only an array, and dict and dataclass
fields only an object. ``Any`` takes every value. Encoding rejects a float
field holding NaN or an infinity the same way, as JSON has no such number.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, Optional, TypeVar, Union

from .errors import InvalidInputError

T = TypeVar("T")

#: Turns one value into its JSON form or back; None when it passes unchanged.
Convert = Optional[Callable[[Any], Any]]
#: The exact JSON types a value may have; None when any value is taken.
Kinds = Optional[tuple[type, ...]]

_SCALARS = {str: (str,), int: (int,), float: (float, int), bool: (bool,)}
_JSON_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean",
    list: "an array", dict: "an object", type(None): "null",
}


class _MistypedItem(Exception):
    """A container item of the wrong JSON type; ``_decode`` names the class and key."""


def encode(obj: Any) -> dict[str, Any]:
    """The JSON-ready dict of a dataclass instance, keys in declaration order.

    A float field holding NaN or an infinity raises ``InvalidInputError``
    naming the class and key.
    """
    cls = type(obj)
    out: dict[str, Any] = {}
    for name, key, _, omit_empty, enc, _, _ in _plan(cls):
        value = getattr(obj, name)
        if omit_empty and value in (None, (), [], {}):
            continue
        if enc is not None:
            try:
                value = enc(value)
            except _MistypedItem as exc:
                raise InvalidInputError(f"{cls.__name__}: key {key!r} is {exc}") from None
        out[key] = value
    return out


def decode(cls: type[T], data: Mapping[str, Any]) -> T:
    """Build ``cls`` from its JSON form; malformed input raises InvalidInputError, as does
    input nested past the interpreter's recursion limit."""
    try:
        return _decode(cls, data)
    except InvalidInputError:
        raise
    except RecursionError:
        raise InvalidInputError(f"malformed {cls.__name__}: nested too deeply") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed {cls.__name__}: {exc}") from exc


def _decode(cls: type[T], data: Mapping[str, Any]) -> T:
    kwargs: dict[str, Any] = {}
    for name, key, required, _, _, dec, kinds in _plan(cls):
        if key in data:
            value = data[key]
            # JSON values have exact types, so this also keeps true/false out of int fields
            if kinds is not None and (
                type(value) not in kinds or (type(value) is float and not math.isfinite(value))
            ):
                raise InvalidInputError(f"{cls.__name__}: key {key!r} is {_mismatch(value, kinds)}")
            if dec is not None:
                try:
                    value = dec(value)
                except _MistypedItem as exc:
                    raise InvalidInputError(f"{cls.__name__}: key {key!r} holds {exc}") from None
            kwargs[name] = value
        elif required:
            raise InvalidInputError(f"{cls.__name__}: missing required key {key!r}")
    return cls(**kwargs)


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, str, bool, bool, Convert, Convert, Kinds], ...]:
    """(attribute, key, required, omit_empty, encode, decode, JSON kinds) for each field."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        key, omit_empty = f.metadata.get("key", f.name), f.metadata.get("omit_empty", False)
        plan.append((f.name, key, required, omit_empty, *_converters(hints[f.name])))
    return tuple(plan)


def _converters(tp: Any) -> tuple[Convert, Convert, Kinds]:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (Union, types.UnionType):
        inner = [a for a in args if a is not type(None)]
        if len(inner) != 1:
            raise TypeError(f"no codec for union {tp!r}")
        enc, dec, kinds = _converters(inner[0])
        return _nullable(enc), _nullable(dec), None if kinds is None else (*kinds, type(None))
    if origin is list or (origin is tuple and len(args) == 2 and args[1] is Ellipsis):
        enc, dec, kinds = _converters(args[0])
        return _each(enc, list), _items(dec, kinds, origin), (list,)
    if origin is dict:
        enc, dec, kinds = _converters(args[1])
        return _values(enc), _entries(dec, kinds), (dict,)
    if isinstance(tp, type) and issubclass(tp, Enum):
        kinds = tuple(dict.fromkeys(type(member.value) for member in tp))
        return (lambda member: member.value), tp, kinds
    if dataclasses.is_dataclass(tp):
        return encode, functools.partial(_decode, tp), (dict,)
    if tp is Any:
        return None, None, None
    if tp is float:
        return _finite, None, _SCALARS[tp]
    if tp in _SCALARS:
        return None, None, _SCALARS[tp]
    raise TypeError(f"no codec for field type {tp!r}")


def _mismatch(value: Any, kinds: tuple[type, ...]) -> str:
    """``<what value is>, not <what kinds allow>``, in JSON terms."""
    if type(value) is float and float in kinds:
        return f"{value}, not a finite number"
    # a number field's int kind is named by its float kind
    expected = [_JSON_NAMES.get(k, k.__name__) for k in kinds if k is not int or float not in kinds]
    return f"{_JSON_NAMES.get(type(value), type(value).__name__)}, not {' or '.join(expected)}"


def _finite(value: Any) -> Any:
    """The value of a float field, to be written; NaN and the infinities have no JSON form."""
    if type(value) is float and not math.isfinite(value):
        raise _MistypedItem(f"{value}, not a finite number")
    return value


def _check_items(values: Iterable[Any], kinds: Kinds) -> None:
    if kinds is not None:
        for v in values:
            if type(v) not in kinds or (type(v) is float and not math.isfinite(v)):
                raise _MistypedItem(_mismatch(v, kinds))


def _nullable(convert: Convert) -> Convert:
    if convert is None:
        return None
    return lambda value: None if value is None else convert(value)


def _each(convert: Convert, container: type) -> Callable:
    if convert is None:
        return container
    return lambda values: container([convert(v) for v in values])


def _items(convert: Convert, kinds: Kinds, container: type) -> Callable:
    """Decode an array: check each item's JSON type, then convert it."""

    def decode_items(values: list) -> Any:
        _check_items(values, kinds)
        return container(values if convert is None else [convert(v) for v in values])

    return decode_items


def _values(convert: Convert) -> Callable:
    if convert is None:
        return dict
    return lambda mapping: {k: convert(v) for k, v in mapping.items()}


def _entries(convert: Convert, kinds: Kinds) -> Callable:
    """Decode an object: check each value's JSON type, then convert it."""

    def decode_entries(mapping: dict) -> dict:
        _check_items(mapping.values(), kinds)
        return dict(mapping) if convert is None else {k: convert(v) for k, v in mapping.items()}

    return decode_entries
