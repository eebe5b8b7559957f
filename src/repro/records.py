"""The JSON form of a record: its dataclass fields, read back by annotation.

Every stored document (``pair``, ``sweep``, ``workload``, ``universe``,
``net``) is a nest of plain dataclasses, so one codec serves them all.
:func:`to_json` is :func:`dataclasses.asdict` without its deep copy;
:func:`from_json` rebuilds a record from what ``json.loads`` returns by
reading the record's field annotations:

* nested records, tuples and lists of records are restored (JSON returns
  dicts and lists);
* scalars stay as JSON returned them -- JSON already keeps ``int``,
  ``float``, ``str``, ``bool`` and ``None`` apart, so a rebuilt record is
  equal to, and typed like, the one that was written;
* a key the payload lacks keeps the field's default.

A class's annotations are resolved once: :func:`_reader` caches, per
annotation, the function that restores a value of it (``None`` when JSON
already returns the value as the record holds it).  Annotations are
evaluated in the record's module, so they must name what it really imports,
not what it imports only under ``TYPE_CHECKING``.  This module imports the
standard library only.

Examples
--------
>>> from repro.streaming.segment import SwitchPlan
>>> payload = to_json(SwitchPlan(id_end=899, id_begin=900))
>>> payload
{'id_end': 899, 'id_begin': 900, 'switch_time': 0.0, 'startup_quota': 50}
>>> from_json(SwitchPlan, {"id_end": 899, "id_begin": 900})
SwitchPlan(id_end=899, id_begin=900, switch_time=0.0, startup_quota=50)
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import typing
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type, TypeVar

__all__ = ["to_json", "from_json"]

_T = TypeVar("_T")
_SCALARS = frozenset({int, float, str, bool, type(None)})
#: Field annotations (as written, or evaluated) whose JSON value needs no reading.
_SCALAR_NAMES = frozenset({"int", "float", "str", "bool", int, float, str, bool})


def to_json(record: Any) -> Dict[str, Any]:
    """The dict of ``record``'s fields, equal to what :func:`dataclasses.asdict` returns.

    Nested records become dicts and lists, tuples and dicts are rebuilt
    around their converted items, as ``asdict`` does; leaves are the
    record's own values, not copies.
    """
    return {name: _plain(getattr(record, name)) for name in _field_names(type(record))}


def _plain(value: Any) -> Any:
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    if isinstance(value, dict):
        return {_plain(key): _plain(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_json(value)
    return value


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def from_json(cls: Type[_T], payload: Mapping[str, Any]) -> _T:
    """Rebuild a ``cls`` record from :func:`to_json` output after a JSON round trip."""
    return _reader(cls)(payload)


@functools.lru_cache(maxsize=None)
def _reader(annotation: Any) -> Optional[Callable[[Any], Any]]:
    """What restores a JSON value of ``annotation``; ``None`` keeps the value as it is.

    Records, and ``Tuple[X, ...]`` / ``List[X]`` of anything; the records'
    fixed-length tuples (``Tuple[float, float]``, ``Tuple[str, Any]``) hold
    scalars, which JSON already returns as they were.
    """
    if dataclasses.is_dataclass(annotation):
        return _record_reader(annotation)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is tuple and args[-1:] != (Ellipsis,):
        return tuple
    if origin not in (tuple, list) or not args:
        return None
    read = _reader(args[0])
    if origin is tuple:
        return tuple if read is None else lambda value: tuple(map(read, value))
    return None if read is None else lambda value: [read(item) for item in value]


def _record_reader(cls: type) -> Callable[[Mapping[str, Any]], Any]:
    """Rebuild ``cls`` from its field dict, restoring only the fields that need it.

    A string annotation is evaluated in the record's module, as
    :func:`typing.get_type_hints` does, unless it names a scalar: the plan
    of a stored run then costs a handful of evaluations, not one per field,
    which a warm replay pays in every process.
    """
    namespace = vars(sys.modules[cls.__module__])
    plan = []
    for field in dataclasses.fields(cls):
        if field.type in _SCALAR_NAMES:
            continue
        annotation = eval(field.type, namespace) if isinstance(field.type, str) else field.type
        read = _reader(annotation)
        if read is not None:
            plan.append((field.name, read))

    def read_record(payload: Mapping[str, Any]) -> Any:
        data = dict(payload)
        for name, read in plan:
            if name in data:
                data[name] = read(data[name])
        return cls(**data)

    return read_record
