"""Declared config ranges, read from the dataclass field metadata itself.

Every declared bound rejects a value just outside it through
`config_from_dict`, and the message starts with the field's JSON path.  A NaN
in any bounded float of a config built in Python is rejected by `validate`,
which a ScenarioConfig runs as it is built.
Every int or float field reachable from `ScenarioConfig` declares a bound or
is listed, with the rule that covers it, as unbounded.
"""

import copy
import dataclasses
import math
import re
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from wctrlsim.bounds import JSON_KEYS
from wctrlsim.scenario import ConfigError, ScenarioConfig, config_from_dict

N_CHANNELS = 8

# one instance of every config class: node 0 is the controller, node 1 a robot.  A
# link takes one erasure model; a bound is checked before that rule, so the
# out-of-range values below may still go into any field of link 0.
BASE = {
    "kind": "remote-control",
    "seed": 1,
    "duration_s": 0.01,
    "nodes": [
        {"id": 0, "role": "controller"},
        {"id": 1, "role": "robot", "start_pose": [0.0, 0.0, 0.0], "path": [[1.0, 0.0]]},
    ],
    "channel": {
        "links": [{"from": 0, "to": 1,
                   "burst": {"p_good_to_bad": 0.1, "p_bad_to_good": 0.3,
                             "per_good": 0.1, "per_bad": 0.8}},
                  {"from": 1, "to": 0, "per_by_channel": [0.1] * N_CHANNELS}],
        "blackouts": [{"node": 1, "from_us": 0, "until_us": 10}],
    },
    "obstacles": [{"segment": [0.5, -0.1, 0.5, 0.1]}],
}

# int and float fields that declare no range, and what covers each instead
UNBOUNDED = {
    "NodeSpec.start_pose",        # pose coordinates: any finite number
    "NodeSpec.path",              # path points: any finite numbers
    "Segment.x1", "Segment.y1", "Segment.x2", "Segment.y2",  # obstacle coordinates
    "ObstacleSpec.appears_at_us",  # any time: one before 0 is there from the start
    "LinkSpec.sender", "LinkSpec.receiver",  # must name a node of the roster
    "BlackoutSpec.node",          # must name a node of the roster
    "BlackoutSpec.until_us",      # must exceed from_us
}


def _inner(tp):
    """The annotation inside X | None and tuple[X, ...], and whether it was a tuple."""
    in_tuple = False
    while get_origin(tp) in (Union, UnionType, tuple):
        in_tuple |= get_origin(tp) is tuple
        tp = get_args(tp)[0]
    return tp, in_tuple


def _walk_fields(cls=ScenarioConfig, keys=(), attrs=()):
    """(class, field, JSON keys, attribute path, number type, in a tuple) for every
    int or float field reachable from `cls`; a tuple is entered at its item 0."""
    for f in dataclasses.fields(cls):
        tp, in_tuple = _inner(get_type_hints(cls)[f.name])
        key = tuple(JSON_KEYS.get(f.name, f.name).split("."))
        index = (0,) if in_tuple else ()
        if dataclasses.is_dataclass(tp):
            yield from _walk_fields(tp, keys + key + index, attrs + (f.name,) + index)
        elif tp in (int, float) or hasattr(tp, "_fields"):  # a Pose is a tuple of floats
            yield cls, f, keys + key, attrs + (f.name,), tp, in_tuple


def _path(keys):
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in keys).lstrip(".")


BOUNDS = [(cls, f, keys, attrs, tp, in_tuple, op, limit)
          for cls, f, keys, attrs, tp, in_tuple in _walk_fields()
          for op, limit in f.metadata.items() if op in ("ge", "gt", "le", "lt")]


def _id(bound):
    cls, f, *_, op, limit = bound
    return f"{cls.__name__}.{f.name}-{op}-{limit}"


def test_every_config_class_declares_bounds():
    assert {cls.__name__ for cls, *_ in BOUNDS} == {
        "ProtocolParams", "SyncParams", "LinkSpec", "ChannelConfig", "BlackoutSpec",
        "NodeSpec", "ScenarioConfig", "BurstModel", "SteeringParams", "FollowerParams",
        "RobotParams"}
    config_from_dict(BASE)  # the base config is valid


def _outside(tp, op, limit, offset):
    """A value `offset` beyond the limit, on its wrong side; a float ge/le limit
    is first stepped to the next float outside it."""
    below = op in ("ge", "gt")
    if tp is int:
        return limit - offset - (op == "ge") if below else limit + offset + (op == "le")
    edge = math.nextafter(limit, -math.inf if below else math.inf) if op in ("ge", "le") else limit
    return edge - offset if below else edge + offset


@pytest.mark.parametrize("bound", BOUNDS, ids=[_id(b) for b in BOUNDS])
@settings(max_examples=15, deadline=None)
@given(offset=st.integers(0, 10**6) | st.floats(0.0, 1e6))
def test_a_value_just_outside_a_bound_is_rejected_with_its_path(bound, offset):
    cls, f, keys, attrs, tp, in_tuple, op, limit = bound
    value = _outside(tp, op, limit, offset if tp is float else int(offset))
    raw = copy.deepcopy(BASE)
    cursor = raw
    for key in keys[:-1]:
        cursor = cursor[key] if type(key) is int else cursor.setdefault(key, {})
    if in_tuple:  # a tuple of bounded numbers: its first item goes out of range
        cursor = cursor.setdefault(keys[-1], [0.0] * N_CHANNELS)
        cursor[0] = value
        path = _path(keys + (0,))
    else:
        cursor[keys[-1]] = value
        path = _path(keys)
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value).startswith(f"{path}: must be "), str(exc.value)


def _replace(obj, attrs, value):
    """`obj` with the value at an attribute path replaced, through dataclasses.replace."""
    if not attrs:
        return value
    head, rest = attrs[0], attrs[1:]
    if type(head) is int:
        items = list(obj)
        items[head] = _replace(items[head], rest, value)
        return tuple(items)
    return dataclasses.replace(obj, **{head: _replace(getattr(obj, head), rest, value)})


FLOAT_BOUNDS = {(cls, f.name): (keys, attrs, in_tuple)
                for cls, f, keys, attrs, tp, in_tuple, *_ in BOUNDS if tp is float}


@pytest.mark.parametrize("where", list(FLOAT_BOUNDS.values()),
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_BOUNDS])
def test_nan_in_a_bounded_float_of_a_python_config_is_rejected(where):
    # dataclasses.replace builds a new ScenarioConfig, which validates itself
    keys, attrs, in_tuple = where
    value = math.nan
    if in_tuple:
        keys, value = keys + (0,), (math.nan,) + (0.1,) * (N_CHANNELS - 1)
    config = config_from_dict(BASE)
    with pytest.raises(ConfigError, match=rf"^{re.escape(_path(keys))}: must be .*, got nan$") as exc:
        _replace(config, attrs, value)
    assert "validate" in [entry.name for entry in exc.traceback]


def test_every_number_field_declares_a_bound_or_is_listed_unbounded():
    unbounded = {f"{cls.__name__}.{f.name}" for cls, f, *_ in _walk_fields()
                 if not {"ge", "gt", "le", "lt"} & set(f.metadata)}
    assert unbounded == UNBOUNDED
