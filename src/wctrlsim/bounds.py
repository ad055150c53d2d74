"""Declared ranges of config fields, and the one walk that checks them.

A bounded field states its range once, in its field metadata, with any of
`ge`, `gt`, `le` and `lt`: `retx_slots: int = field(default=2, metadata={"ge": 0})`.
A range that several fields share is a constant here (`PROBABILITY`).
`check_bounds` follows a plan built once per class that lists only bounded
fields and fields holding dataclasses, so poses and path points are never
walked.  Every comparison fails on NaN.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import fields, is_dataclass
from typing import Any, get_args, get_type_hints

PROBABILITY = {"ge": 0.0, "le": 1.0}

# a field's JSON key where it is not the field's name
JSON_KEYS = {"node_id": "id", "sender": "from", "receiver": "to", "steering": "controller"}

_SIGNS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}


class ConfigError(ValueError):
    """Invalid scenario configuration; raised before any simulation starts."""


@functools.cache
def _plan(cls: type, attr: str = "", path: str = "") -> tuple[tuple, tuple]:
    """The walk of `cls`, whose attribute and JSON paths start with `attr` and
    `path`: (getter, JSON path, comparison, sign, limit) per declared limit of
    a number; and (getter, JSON path, rules) per field that may be None or
    holds a tuple, with rules for the numbers it holds, or None for
    dataclasses.  A dataclass that is never None joins its plan to this one."""
    hints = get_type_hints(cls)
    numbers, nested = [], []
    for f in fields(cls):
        tp, name, key = hints[f.name], attr + f.name, path + JSON_KEYS.get(f.name, f.name)
        rules = tuple((getattr(operator, op), sign, f.metadata[op])
                      for op, sign in _SIGNS.items() if op in f.metadata)
        if rules and tp in (int, float):
            numbers += [(operator.attrgetter(name), key, *rule) for rule in rules]
        elif is_dataclass(tp):
            inner_numbers, inner_nested = _plan(tp, f"{name}.", f"{key}.")
            numbers += inner_numbers
            nested += inner_nested
        elif rules or any(is_dataclass(arg) and any(_plan(arg)) for arg in get_args(tp)):
            nested.append((operator.attrgetter(name), key, rules or None))
    return tuple(numbers), tuple(nested)


def check_bounds(obj: Any, path: str = "") -> None:
    """Raise ConfigError for the first number in dataclass `obj`, or in one
    nested in it, that is outside its declared range.  The message starts with
    the number's JSON path, below `path`, the path of `obj`."""
    numbers, nested = _plan(type(obj))
    prefix = f"{path}." if path else ""
    for get, key, test, sign, limit in numbers:
        if not test(get(obj), limit):
            raise ConfigError(f"{prefix}{key}: must be {sign} {limit}, got {get(obj)!r}")
    for get, key, rules in nested:
        value = get(obj)
        for i, item in enumerate(value) if type(value) is tuple else ((None, value),):
            where = prefix + key if i is None else f"{prefix}{key}[{i}]"
            if item is None:  # an absent optional value
                continue
            if rules is None:
                check_bounds(item, where)
                continue
            for test, sign, limit in rules:
                if not test(item, limit):
                    raise ConfigError(f"{where}: must be {sign} {limit}, got {item!r}")
