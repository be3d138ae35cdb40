"""One dataclass ↔ JSON codec for the spec value objects.

A spec (:class:`~repro.scenarios.ScenarioSpec`, its mobility, protocol
and workload blocks, :class:`~repro.faults.FaultSpec`) is a frozen
dataclass whose init fields are its JSON keys:

* :func:`encode` writes the fields in declaration order, tuples as
  lists, and omits a field whose value is ``None`` or an empty mapping;
* :func:`decode` refuses unknown keys and missing required ones, and
  converts nested specs, ``tuple[...]`` / ``X | tuple[...]`` fields and
  optionals by the fields' type hints; a ``str`` field takes only a
  string.

Every refusal is a ``ValueError`` naming the dotted path of the key
(``faults.downtime_schedule``, ``protocols[1].params``). Values are
checked by each class's ``__post_init__``; what a nested spec refuses
there is re-raised as a ``ValueError`` with the block's path in front.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from collections.abc import Mapping
from typing import Any, TypeVar

_S = TypeVar("_S", bound="Encodable")


class Encodable:
    """Mixin for a spec dataclass: ``to_dict``/``from_dict`` through the codec."""

    def to_dict(self) -> dict[str, Any]:
        """The spec as a JSON-safe dict (see :func:`encode`)."""
        out: dict[str, Any] = encode(self)
        return out

    @classmethod
    def from_dict(cls: type[_S], data: Mapping[str, Any]) -> _S:
        """The spec a dict describes (see :func:`decode`).

        Raises:
            ValueError: naming the dotted path of a bad key or value.
        """
        spec: _S = decode(cls, data)
        return spec


def encode(value: Any) -> Any:
    """The JSON form of ``value``; containers are copied, never shared."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value) if f.init)
        return {key: encode(item) for key, item in items if item is not None and item != {}}
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, Mapping):
        return {key: encode(item) for key, item in value.items()}
    return value


def decode(cls: type[Any], data: object, path: str = "") -> Any:
    """The dataclass ``cls`` built from its JSON form ``data``.

    ``path`` is the dotted key of ``data`` in the enclosing document
    (empty for the document itself); errors name keys below it.
    """
    name = cls.__name__
    if not isinstance(data, Mapping):
        raise ValueError(f"{path or name} must be a mapping, got {type(data).__name__}")
    known = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = [_join(path, str(key)) for key in data if key not in known]
    if unknown:
        raise ValueError(
            f"unknown {name} key(s): {', '.join(unknown)}; known: {', '.join(known)}"
        )
    missing = [
        _join(path, key)
        for key, f in known.items()
        if key not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"missing {name} key(s): {', '.join(missing)}")
    hints = _field_hints(cls)
    kwargs = {key: _convert(hints[key], item, _join(path, key)) for key, item in data.items()}
    try:
        return cls(**kwargs)
    except (ValueError, KeyError) as exc:
        if not path:
            raise
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise ValueError(f"{path}: {reason}") from exc


@functools.cache
def _field_hints(cls: type[Any]) -> dict[str, Any]:
    return typing.get_type_hints(cls)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _convert(hint: Any, value: object, path: str) -> Any:
    """``value`` converted to the field type ``hint`` (see :func:`decode`)."""
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:
        options = typing.get_args(hint)
        arms = [arm for arm in options if arm is not type(None)]
        if value is None and len(arms) < len(options):
            return None
        if len(arms) == 1:
            return _convert(arms[0], value, path)
        # a scalar-or-per-node field: a list takes the tuple arm, and a
        # scalar is left to the class's own checks
        for arm in arms:
            if typing.get_origin(arm) is tuple and isinstance(value, (list, tuple)):
                return _convert(arm, value, path)
        return value
    if dataclasses.is_dataclass(hint):
        return decode(hint, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path} must be a list, got {type(value).__name__}")
        # items of a fixed-length tuple are scalars, checked by the class
        args = typing.get_args(hint)
        item_hint = args[0] if args[-1] is Ellipsis else Any
        return tuple(_convert(item_hint, item, f"{path}[{i}]") for i, item in enumerate(value))
    if hint is str and not isinstance(value, str):
        raise ValueError(f"{path} must be a string, got {value!r}")
    return value
