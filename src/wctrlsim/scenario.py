"""Declarative scenario configs: JSON documents describing one simulation run.

A config names the node roster with roles, robot physics, reference paths,
protocol constants, the per-link erasure model, controller parameters,
obstacles, and the master seed.  Everything stochastic in a run derives from
that seed, so a config is a complete, replayable description.

Two scenario kinds exist: "remote-control" (an external controller node
drives one or more robots over the radio) and "leader-follower" (the
controller is hosted on the leader robot, which drives itself locally and
drives the follower over the radio, feeding it reference points traced from
its own position).

The dataclasses are the schema.  Every JSON key is a dataclass field, every
default is the field's default, and every value must have the JSON type of
the field's annotation.  Ranges live in field metadata, here and in the
parameter classes of `channel`, `mac`, `robot` and `controller` (see
`bounds`).  A ScenarioConfig validates itself as it is built, from JSON or in
Python: an unknown key, a value of the wrong type or out of range is rejected
with its path, before any run starts.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints

from .bounds import JSON_KEYS, PROBABILITY, ConfigError, check_bounds
from .channel import BurstModel, frame_airtime_us
from .controller import SteeringParams
from .mac import SyncParams
from .robot import Pose, RobotParams, Segment

ROLES = ("controller", "robot", "leader", "follower", "relay")
MAX_CHANNELS = 256  # hop sequences and per-link tables are n_channels long


@dataclass(frozen=True)
class ProtocolParams:
    slot_duration_us: int = field(default=250, metadata={"gt": 0})
    compute_gap_us: int = field(default=500, metadata={"ge": 0})
    retx_slots: int = field(default=2, metadata={"ge": 0})
    n_channels: int = field(default=8, metadata={"ge": 1, "le": MAX_CHANNELS})
    watchdog_cycles: int = field(default=10, metadata={"ge": 1})
    phy_overhead_bytes: int = field(default=10, metadata={"ge": 0})
    phy_rate_mbps: float = field(default=2.0, metadata={"gt": 0})
    sync: SyncParams = field(default_factory=SyncParams)


@dataclass(frozen=True)
class LinkSpec:
    sender: int
    receiver: int
    per: float | None = field(default=None, metadata=PROBABILITY)
    per_by_channel: tuple[float, ...] | None = field(default=None, metadata=PROBABILITY)
    burst: BurstModel | None = None


@dataclass(frozen=True)
class BlackoutSpec:
    node: int
    from_us: int = field(metadata={"ge": 0})
    until_us: int


@dataclass(frozen=True)
class ChannelConfig:
    default_per: float = field(default=0.0, metadata=PROBABILITY)
    links: tuple[LinkSpec, ...] = ()
    blackouts: tuple[BlackoutSpec, ...] = ()


@dataclass(frozen=True)
class ObstacleSpec:
    segment: Segment
    appears_at_us: int = 0


@dataclass(frozen=True)
class NodeSpec:
    node_id: int = field(metadata={"ge": 0, "le": 0xFE})  # 0xFF is the broadcast address
    role: str
    start_pose: Pose | None = None
    path: tuple[tuple[float, float], ...] | None = None
    params: RobotParams = field(default_factory=RobotParams)

    @property
    def is_robot(self) -> bool:
        return self.role in ("robot", "leader", "follower")


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    seed: int = field(metadata={"ge": 0})
    nodes: tuple[NodeSpec, ...]
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    steering: SteeringParams = field(default_factory=SteeringParams)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    obstacles: tuple[ObstacleSpec, ...] = ()
    duration_s: float = field(default=120.0, metadata={"gt": 0})
    run_to_completion: bool = True
    # the feedback frame's u16 distance field, 0xFFFF meaning no reading
    sensor_range_mm: int = field(default=1000, metadata={"ge": 1, "le": 0xFFFE})
    # the JSON document the config was read from; set by config_from_dict
    # outside __init__, so that dataclasses.replace drops it
    raw: dict | None = field(default=None, init=False, compare=False, repr=False)

    # -- derived views -----------------------------------------------------

    def node_ids(self) -> list[int]:
        return [n.node_id for n in self.nodes]

    def by_role(self, role: str) -> list[NodeSpec]:
        return [n for n in self.nodes if n.role == role]

    def controller_node(self) -> NodeSpec:
        role = "controller" if self.kind == "remote-control" else "leader"
        return self.by_role(role)[0]

    def robots(self) -> list[NodeSpec]:
        return sorted((n for n in self.nodes if n.is_robot), key=lambda n: n.node_id)

    @property
    def max_time_us(self) -> int:
        return int(round(self.duration_s * 1e6))

    def digest(self) -> str:
        payload = self.raw if self.raw is not None else dataclasses.asdict(self)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    # -- validation ----------------------------------------------------------

    def __post_init__(self) -> None:
        self.validate()  # frozen all the way down, so a config is checked once

    def validate(self) -> None:
        """Check every declared range, then the rules that span fields."""
        check_bounds(self)
        if self.kind not in ("remote-control", "leader-follower"):
            raise ConfigError(f"kind: unknown scenario kind {self.kind!r}")

        ids = self.node_ids()
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate node ids")
        for node in self.nodes:
            if node.role not in ROLES:
                raise ConfigError(f"node {node.node_id}: unknown role {node.role!r}")
            if node.is_robot and node.start_pose is None:
                raise ConfigError(f"robot node {node.node_id} needs a start pose")
            if not node.is_robot and (node.start_pose, node.path) != (None, None):
                raise ConfigError(f"node {node.node_id}: a {node.role} takes no start_pose or path")

        if self.kind == "remote-control":
            if len(self.by_role("controller")) != 1:
                raise ConfigError("remote-control needs exactly one controller node")
            if self.by_role("leader") or self.by_role("follower"):
                raise ConfigError("leader/follower roles belong to leader-follower scenarios")
            robots = self.by_role("robot")
            if not robots:
                raise ConfigError("remote-control needs at least one robot")
            for node in robots:
                if not node.path:
                    raise ConfigError(f"robot node {node.node_id} needs a reference path")
        else:
            if self.by_role("controller") or self.by_role("robot"):
                raise ConfigError("leader-follower uses leader/follower roles only")
            if len(self.by_role("leader")) != 1 or len(self.by_role("follower")) != 1:
                raise ConfigError("leader-follower needs exactly one leader and one follower")
            if not self.by_role("leader")[0].path:
                raise ConfigError("the leader needs a reference path")

        known, linked = set(ids), set()
        for link in self.channel.links:
            if link.sender not in known or link.receiver not in known:
                raise ConfigError(f"link {link.sender}->{link.receiver} references unknown node")
            if link.sender == link.receiver:
                raise ConfigError(f"link {link.sender}->{link.receiver} is a self-link")
            if (link.sender, link.receiver) in linked:
                raise ConfigError(f"link {link.sender}->{link.receiver} is given twice")
            linked.add((link.sender, link.receiver))
            if sum(v is not None for v in (link.per, link.per_by_channel, link.burst)) > 1:
                raise ConfigError(f"link {link.sender}->{link.receiver}: "
                                  "set at most one of per, per_by_channel and burst")
            if (link.per_by_channel is not None
                    and len(link.per_by_channel) != self.protocol.n_channels):
                raise ConfigError(
                    f"link {link.sender}->{link.receiver}: expected "
                    f"{self.protocol.n_channels} per-channel probabilities")
        for blackout in self.channel.blackouts:
            if blackout.node not in known:
                raise ConfigError(f"blackout references unknown node {blackout.node}")
            if blackout.until_us <= blackout.from_us:
                raise ConfigError("blackout window must be a non-empty time range")

        proto = self.protocol
        try:
            airtime = frame_airtime_us(proto.phy_overhead_bytes, proto.phy_rate_mbps)
        except OverflowError:
            raise ConfigError("protocol.phy_rate_mbps is too small for a frame to fit a slot") from None
        if proto.sync.max_waves * airtime > proto.slot_duration_us:
            raise ConfigError(
                f"protocol.slot_duration_us: {proto.slot_duration_us} us cannot hold "
                f"protocol.sync.max_waves={proto.sync.max_waves} frames of {airtime} us")


# -- JSON conversion -----------------------------------------------------------
#
# A field's JSON key is its name unless JSON_KEYS renames it.  Pose, Segment and
# fixed-length tuples are arrays of numbers.  Converters are built once per
# annotation; a bad value raises _Invalid, whose path fills in as it unwinds.

_EXPECTED = {bool: "a boolean", int: "an integer", str: "a string"}


class _Invalid(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.where: list[str | int] = []  # innermost key or index first


def _got(expected: str, value: Any) -> _Invalid:
    shown = {list: "an array", dict: "an object"}.get(type(value)) or json.dumps(value, default=repr)
    return _Invalid(f"expected {expected}, got {shown}")


def _float(value: Any) -> float:
    if type(value) is float:
        if value - value == 0.0:  # finite: json.loads also reads NaN and Infinity
            return value
    elif type(value) is int:
        return float(value)
    raise _got("a finite number", value)


def _scalar(tp: type, value: Any) -> Any:
    if type(value) is tp:
        return value
    raise _got(_EXPECTED[tp], value)


def _array(item: Callable[[Any], Any], value: Any) -> tuple:
    if type(value) is not list:
        raise _got("an array", value)
    out = []
    for i, x in enumerate(value):
        try:
            out.append(item(x))
        except _Invalid as exc:
            exc.where.append(i)
            raise
    return tuple(out)


def _numbers(cls: type, n: int, value: Any) -> Any:
    if type(value) is not list or len(value) != n:
        raise _Invalid(f"expected an array of {n} numbers")
    return tuple(map(_float, value)) if cls is tuple else cls(*map(_float, value))


def _members(convs: dict, required: list[str], value: Any) -> dict[str, Any]:
    """Keyword arguments from a JSON object, converted key by key."""
    if type(value) is not dict:
        raise _got("an object", value)
    kwargs = {}
    for key, x in value.items():
        member = convs.get(key)
        if member is None:
            close = difflib.get_close_matches(str(key), convs, n=1)
            raise _Invalid(f"unknown key {key!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
        name, conv = member
        try:
            kwargs[name] = conv(x)
        except _Invalid as exc:
            exc.where.append(key)
            raise
    for key in required:
        if key not in value:
            raise _Invalid(f"missing key {key!r}")
    return kwargs


@functools.cache
def _converter(tp: Any) -> Callable[[Any], Any]:
    """The JSON -> Python converter for one field annotation."""
    if tp is float:
        return _float
    if tp in _EXPECTED:
        return functools.partial(_scalar, tp)
    args = get_args(tp)
    if get_origin(tp) in (Union, UnionType):  # X | None
        inner = _converter(next(a for a in args if a is not type(None)))
        return lambda value: None if value is None else inner(value)
    if get_origin(tp) is tuple and args[-1] is Ellipsis:
        return functools.partial(_array, _converter(args[0]))
    if get_origin(tp) is tuple and set(args) == {float}:
        return functools.partial(_numbers, tuple, len(args))
    if tp is Pose:
        return functools.partial(_numbers, tp, len(Pose._fields))
    if tp is Segment:
        return functools.partial(_numbers, tp, len(fields(tp)))
    convs, required = _schema(tp)
    return lambda value: tp(**_members(convs, required, value))


@functools.cache
def _schema(cls: type) -> tuple[dict, list[str]]:
    """JSON key -> (field name, converter) for each field of a dataclass that
    its __init__ takes, and the required keys."""
    hints = get_type_hints(cls)
    keyed = [(JSON_KEYS.get(f.name, f.name), f) for f in fields(cls) if f.init]
    convs = {key: (f.name, _converter(hints[f.name])) for key, f in keyed}
    required = [key for key, f in keyed
                if f.default is MISSING and f.default_factory is MISSING]
    return convs, required


_TOP, _TOP_REQUIRED = _schema(ScenarioConfig)


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a plain JSON-shaped dict.

    An unknown key, a value of the wrong JSON type, or a value that fails a
    range check raises ConfigError, never a bare ValueError or TypeError.
    """
    try:
        if type(raw) is not dict:
            raise ConfigError("scenario config must be a JSON object")
        config = ScenarioConfig(**_members(_TOP, _TOP_REQUIRED, raw))
    except _Invalid as exc:
        where = "".join(f"[{p}]" if type(p) is int else f".{p}" for p in reversed(exc.where))
        raise ConfigError(f"{where.lstrip('.')}: {exc}" if where else str(exc)) from None
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    object.__setattr__(config, "raw", raw)  # frozen
    return config


def read_json(path: str | Path) -> Any:
    """The JSON document in the file at `path`.  Text that is not JSON (nor UTF-8,
    which JSON text is) raises ConfigError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None


def load_config(path: str | Path) -> ScenarioConfig:
    return config_from_dict(read_json(path))


def apply_overrides(raw: dict, overrides: dict[str, Any]) -> dict:
    """Return a deep copy of `raw` with dotted-path overrides applied.

    Used by parameter sweeps: "channel.default_per" -> raw["channel"]["default_per"].
    Missing objects on the path are created; a path through an existing value
    that is not an object (an array element, say) raises ConfigError.
    """
    patched = json.loads(json.dumps(raw))
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        cursor = patched
        for i, part in enumerate(parts[:-1]):
            cursor = cursor.setdefault(part, {})
            if type(cursor) is not dict:
                raise ConfigError(f"{dotted}: {'.'.join(parts[:i + 1])} is not an object; "
                                  "a sweep path can only name object keys")
        cursor[parts[-1]] = value
    return patched

