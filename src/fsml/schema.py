"""JSON read into typed objects: the one reader of the config, the corpus
manifest, checkpoint metadata and fine-tune reports.

A dataclass is read from a JSON object whose keys are its init fields: the
annotation is the key's type, a field without a default is required.  Read
are dataclasses, the JSON types, ``list[X]``, ``tuple[X, X]``, ``dict[str,
X]``, ``dict[int, X]`` (decimal keys), ``X | None``, ``Literal`` and
``Annotated[X, "what X is"]``.  Each problem names its key path, as in
``meta.n_way: must be an integer >= 2``.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from types import UnionType
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

from .errors import ContractError, ParseError

# The JSON values accepted for each type, by exact type: a bool is no number.
_JSON = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
    list: ((list,), "a list"),
    tuple: ((list,), "a list"),
    dict: ((dict,), "an object"),
}
BAD = object()  # what a value that has a problem reads as


@cache
def fields_of(cls):
    """Each key of dataclass ``cls``: its annotation and whether it is required."""
    hints = get_type_hints(cls, include_extras=True)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls) if f.init}


def _at(path, key):
    return f"{path}.{key}" if path else str(key)


def _note(problems, path, problem):
    problems.append(f"{path}: {problem}" if path else problem)
    return BAD


def read(value, kind, path, problems):
    """``value`` read as the annotation ``kind``.  Appends each problem under
    ``path`` and returns ``BAD`` if there is one."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType:  # X | None: None is only the default of an absent key
        return read(value, args[0], path, problems)
    if origin is Annotated:  # one problem, worded by the annotation, for any in X
        found = []
        value = read(value, args[0], path, found)
        return _note(problems, path, f"must be {args[1]}") if found else value
    if origin is Literal:  # a value of the choices' type, then one of them
        value = read(value, type(args[0]), path, problems)
        if value is not BAD and value not in args:
            return _note(problems, path, "must be " + " or ".join(json.dumps(a) for a in args))
        return value
    if is_dataclass(kind):
        return read_object(value, kind, path, problems)
    accepted, name = _JSON[origin or kind]
    if type(value) not in accepted:
        return _note(problems, path, f"must be {name}")
    if not args:
        return value
    if origin is dict:
        items = {}
        for name, item in value.items():  # an integer key is written in decimal
            key = int(name) if args[0] is int and name.isascii() and name.isdigit() else name
            if type(key) is not args[0]:
                key = _note(problems, _at(path, name), "key must be an integer")
            items[key] = read(item, args[1], _at(path, name), problems)
        return BAD if BAD in items or BAD in items.values() else items
    element = args[0]
    if element in _JSON:  # one problem for a list of JSON values
        count = f"{len(args)} " if origin is tuple else ""
        if (count and len(value) != len(args)) or any(type(v) not in _JSON[element][0] for v in value):
            return _note(problems, path, f"must be a list of {count}{_JSON[element][1].split()[-1]}s")
        return origin(value)
    items = [read(item, element, f"{path}[{i}]", problems) for i, item in enumerate(value)]
    return BAD if BAD in items else origin(items)


def read_object(obj, cls, path, problems):
    """A JSON object read into dataclass ``cls``; a ContractError from the
    dataclass is a problem under ``path``, or under its key if it names one."""
    if not isinstance(obj, dict):
        return _note(problems, path, "must be an object")
    keys = fields_of(cls)
    found = [f"{_at(path, key)}: unknown key" for key in sorted(set(obj) - set(keys))]
    found += [f"{_at(path, key)}: required" for key, (_, required) in keys.items()
              if required and key not in obj]
    values = {key: read(value, keys[key][0], _at(path, key), found)
              for key, value in obj.items() if key in keys}
    problems.extend(found)
    if found:
        return BAD
    try:
        return cls(**values)
    except ContractError as err:
        named = str(err).partition(":")[0].partition(".")[0] in keys
        return _note(problems, "", _at(path, err)) if named else _note(problems, path, err)


def parse(value, kind, where, path=""):
    """Decoded JSON ``value`` read as ``kind``, for a file the lab wrote: a
    ParseError starting with ``where`` (the file) lists every problem."""
    problems = []
    value = read(value, kind, path, problems)
    if problems:
        raise ParseError(f"{where}: " + "; ".join(problems))
    return value


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def decode(text, where):
    """The JSON value of ``text``, a string or the bytes of a file; a
    ParseError starting with ``where`` if it is not JSON.  NaN and Infinity
    are not JSON: the lab writes finite numbers."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as err:  # not JSON, not UTF-8, or a non-finite constant
        raise ParseError(f"{where}: not valid JSON: {err}") from None
