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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .channel import BurstModel
from .controller import FollowerParams, SteeringParams
from .mac import LoopSpec, SyncParams
from .robot import Pose, RobotParams, Segment

ROLES = ("controller", "robot", "leader", "follower", "relay")


class ConfigError(ValueError):
    """Invalid scenario configuration; raised before any simulation starts."""


@dataclass(frozen=True)
class ProtocolParams:
    slot_duration_us: int = 250
    compute_gap_us: int = 500
    retx_slots: int = 2
    n_channels: int = 8
    watchdog_cycles: int = 10
    phy_overhead_bytes: int = 10
    phy_rate_mbps: float = 2.0
    sync: SyncParams = field(default_factory=SyncParams)


@dataclass(frozen=True)
class LinkSpec:
    sender: int
    receiver: int
    per: float | None = None
    per_by_channel: tuple[float, ...] | None = None
    burst: BurstModel | None = None


@dataclass(frozen=True)
class BlackoutSpec:
    node: int
    from_us: int
    until_us: int


@dataclass(frozen=True)
class ChannelConfig:
    default_per: float = 0.0
    links: tuple[LinkSpec, ...] = ()
    blackouts: tuple[BlackoutSpec, ...] = ()


@dataclass(frozen=True)
class ObstacleSpec:
    segment: Segment
    appears_at_us: int = 0


@dataclass(frozen=True)
class NodeSpec:
    node_id: int
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
    seed: int
    nodes: tuple[NodeSpec, ...]
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    steering: SteeringParams = field(default_factory=SteeringParams)
    follower: FollowerParams = field(default_factory=FollowerParams)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    obstacles: tuple[ObstacleSpec, ...] = ()
    duration_s: float = 120.0
    run_to_completion: bool = True
    sensor_range_mm: int = 1000
    raw: dict | None = field(default=None, compare=False, repr=False)

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

    def loops(self) -> list[LoopSpec]:
        """Radio control loops: in a platoon the leader's own loop is local."""
        controller = self.controller_node().node_id
        plants = [n.node_id for n in self.robots() if n.node_id != controller]
        return [LoopSpec(loop_id=i, controller=controller, plant=plant)
                for i, plant in enumerate(sorted(plants))]

    @property
    def max_time_us(self) -> int:
        return int(round(self.duration_s * 1e6))

    def digest(self) -> str:
        payload = self.raw if self.raw is not None else {"kind": self.kind, "seed": self.seed}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        if self.kind not in ("remote-control", "leader-follower"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

        ids = self.node_ids()
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate node ids")
        for node in self.nodes:
            if not 0 <= node.node_id <= 0xFE:
                raise ConfigError(f"node id {node.node_id} outside 0..254")
            if node.role not in ROLES:
                raise ConfigError(f"node {node.node_id}: unknown role {node.role!r}")
            if node.is_robot:
                if node.start_pose is None:
                    raise ConfigError(f"robot node {node.node_id} needs a start pose")
                node.params.validate()

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

        known = set(ids)
        if not 0.0 <= self.channel.default_per <= 1.0:
            raise ConfigError("default erasure probability outside [0, 1]")
        for link in self.channel.links:
            if link.sender not in known or link.receiver not in known:
                raise ConfigError(f"link {link.sender}->{link.receiver} references unknown node")
            if link.per is not None and not 0.0 <= link.per <= 1.0:
                raise ConfigError(f"link {link.sender}->{link.receiver}: per outside [0, 1]")
            if link.per_by_channel is not None:
                if len(link.per_by_channel) != self.protocol.n_channels:
                    raise ConfigError(
                        f"link {link.sender}->{link.receiver}: expected "
                        f"{self.protocol.n_channels} per-channel probabilities")
                for p in link.per_by_channel:
                    if not 0.0 <= p <= 1.0:
                        raise ConfigError("per-channel probability outside [0, 1]")
            if link.burst is not None:
                link.burst.validate()
        for blackout in self.channel.blackouts:
            if blackout.node not in known:
                raise ConfigError(f"blackout references unknown node {blackout.node}")
            if blackout.from_us < 0 or blackout.until_us <= blackout.from_us:
                raise ConfigError("blackout window must be a non-empty time range")

        proto = self.protocol
        if proto.slot_duration_us <= 0 or proto.compute_gap_us < 0:
            raise ConfigError("slot duration must be positive, compute gap non-negative")
        if proto.retx_slots < 0 or proto.n_channels < 1:
            raise ConfigError("retx slot count and channel count must be sensible")
        if proto.watchdog_cycles < 1:
            raise ConfigError("watchdog must be at least one cycle")
        if proto.sync.max_waves < 1 or proto.sync.miss_limit < 1:
            raise ConfigError("sync waves and miss limit must be at least 1")
        if proto.sync.jitter_us < 0:
            raise ConfigError("sync jitter must be non-negative")

        self.steering.validate()
        self.follower.validate()
        if self.sensor_range_mm < 1 or self.sensor_range_mm > 0xFFFE:
            raise ConfigError("sensor range must fit the feedback distance field")


# -- JSON parsing ------------------------------------------------------------


def _take(d: dict, key: str, default: Any = None) -> Any:
    return d[key] if key in d else default


def _parse_pose(raw: Any, where: str) -> Pose:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError(f"{where}: start_pose must be [x, y, theta]")
    return Pose(float(raw[0]), float(raw[1]), float(raw[2]))


def _parse_path(raw: Any, where: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where}: path must be a non-empty list of [x, y] points")
    points = []
    for p in raw:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise ConfigError(f"{where}: path points must be [x, y]")
        points.append((float(p[0]), float(p[1])))
    return tuple(points)


def _parse_robot_params(raw: dict | None) -> RobotParams:
    if not raw:
        return RobotParams()
    defaults = RobotParams()
    return RobotParams(
        wheel_radius_m=float(_take(raw, "wheel_radius_m", defaults.wheel_radius_m)),
        track_width_m=float(_take(raw, "track_width_m", defaults.track_width_m)),
        ticks_per_rev=int(_take(raw, "ticks_per_rev", defaults.ticks_per_rev)),
        max_wheel_speed_mms=int(_take(raw, "max_wheel_speed_mms", defaults.max_wheel_speed_mms)),
        actuation_rate_limit_mms2=float(_take(raw, "actuation_rate_limit_mms2",
                                              defaults.actuation_rate_limit_mms2)),
    )


def _parse_node(raw: dict) -> NodeSpec:
    try:
        node_id = int(raw["id"])
        role = str(raw["role"])
    except KeyError as exc:
        raise ConfigError(f"node entry missing {exc.args[0]!r}") from None
    where = f"node {node_id}"
    pose = _parse_pose(raw["start_pose"], where) if "start_pose" in raw else None
    path = _parse_path(raw["path"], where) if "path" in raw else None
    return NodeSpec(node_id=node_id, role=role, start_pose=pose, path=path,
                    params=_parse_robot_params(raw.get("params")))


def _parse_burst(raw: dict | None) -> BurstModel | None:
    if not raw:
        return None
    try:
        return BurstModel(p_good_to_bad=float(raw["p_good_to_bad"]),
                          p_bad_to_good=float(raw["p_bad_to_good"]),
                          per_good=float(raw["per_good"]),
                          per_bad=float(raw["per_bad"]))
    except KeyError as exc:
        raise ConfigError(f"burst model missing {exc.args[0]!r}") from None


def _parse_channel(raw: dict | None) -> ChannelConfig:
    if not raw:
        return ChannelConfig()
    links = []
    for entry in raw.get("links", []):
        try:
            sender = int(entry["from"])
            receiver = int(entry["to"])
        except KeyError as exc:
            raise ConfigError(f"link entry missing {exc.args[0]!r}") from None
        per = entry.get("per")
        pbc = entry.get("per_by_channel")
        links.append(LinkSpec(sender=sender, receiver=receiver,
                              per=None if per is None else float(per),
                              per_by_channel=None if pbc is None else tuple(float(p) for p in pbc),
                              burst=_parse_burst(entry.get("burst"))))
    blackouts = []
    for entry in raw.get("blackouts", []):
        try:
            blackouts.append(BlackoutSpec(node=int(entry["node"]),
                                          from_us=int(entry["from_us"]),
                                          until_us=int(entry["until_us"])))
        except KeyError as exc:
            raise ConfigError(f"blackout entry missing {exc.args[0]!r}") from None
    return ChannelConfig(default_per=float(raw.get("default_per", 0.0)),
                         links=tuple(links), blackouts=tuple(blackouts))


def _parse_protocol(raw: dict | None) -> ProtocolParams:
    if not raw:
        return ProtocolParams()
    defaults = ProtocolParams()
    sync_raw = raw.get("sync") or {}
    sync_defaults = SyncParams()
    sync = SyncParams(
        jitter_us=float(_take(sync_raw, "jitter_us", sync_defaults.jitter_us)),
        max_waves=int(_take(sync_raw, "max_waves", sync_defaults.max_waves)),
        miss_limit=int(_take(sync_raw, "miss_limit", sync_defaults.miss_limit)),
    )
    return ProtocolParams(
        slot_duration_us=int(_take(raw, "slot_duration_us", defaults.slot_duration_us)),
        compute_gap_us=int(_take(raw, "compute_gap_us", defaults.compute_gap_us)),
        retx_slots=int(_take(raw, "retx_slots", defaults.retx_slots)),
        n_channels=int(_take(raw, "n_channels", defaults.n_channels)),
        watchdog_cycles=int(_take(raw, "watchdog_cycles", defaults.watchdog_cycles)),
        phy_overhead_bytes=int(_take(raw, "phy_overhead_bytes", defaults.phy_overhead_bytes)),
        phy_rate_mbps=float(_take(raw, "phy_rate_mbps", defaults.phy_rate_mbps)),
        sync=sync,
    )


def _parse_steering(raw: dict | None) -> tuple[SteeringParams, FollowerParams]:
    if not raw:
        return SteeringParams(), FollowerParams()
    defaults = SteeringParams()
    steering = SteeringParams(
        cruise_speed_mms=float(_take(raw, "cruise_speed_mms", defaults.cruise_speed_mms)),
        tolerance_m=float(_take(raw, "tolerance_m", defaults.tolerance_m)),
        min_forward_m=float(_take(raw, "min_forward_m", defaults.min_forward_m)),
        max_curvature=float(_take(raw, "max_curvature", defaults.max_curvature)),
        approach_gain=float(_take(raw, "approach_gain", defaults.approach_gain)),
        turn_rate=float(_take(raw, "turn_rate", defaults.turn_rate)),
        curve_mode=str(_take(raw, "curve_mode", defaults.curve_mode)),
        estop_threshold_mm=int(_take(raw, "estop_threshold_mm", defaults.estop_threshold_mm)),
    )
    fol_raw = raw.get("follower") or {}
    fol_defaults = FollowerParams()
    follower = FollowerParams(
        min_spacing_m=float(_take(fol_raw, "min_spacing_m", fol_defaults.min_spacing_m)),
        standoff_m=float(_take(fol_raw, "standoff_m", fol_defaults.standoff_m)),
    )
    return steering, follower


def _parse_obstacles(raw: list | None) -> tuple[ObstacleSpec, ...]:
    if not raw:
        return ()
    obstacles = []
    for entry in raw:
        seg = entry.get("segment")
        if not isinstance(seg, (list, tuple)) or len(seg) != 4:
            raise ConfigError("obstacle segment must be [x1, y1, x2, y2]")
        obstacles.append(ObstacleSpec(
            segment=Segment(float(seg[0]), float(seg[1]), float(seg[2]), float(seg[3])),
            appears_at_us=int(entry.get("appears_at_us", 0))))
    return tuple(obstacles)


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a plain JSON-shaped dict.

    Any value that cannot be converted or fails a range check raises
    ConfigError, never a bare ValueError or TypeError.
    """
    try:
        config = _parse_config(raw)
        config.validate()
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    return config


def _parse_config(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("scenario config must be a JSON object")
    try:
        kind = str(raw["kind"])
        seed = int(raw["seed"])
    except KeyError as exc:
        raise ConfigError(f"config missing {exc.args[0]!r}") from None
    nodes_raw = raw.get("nodes")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        raise ConfigError("config needs a non-empty node list")
    steering, follower = _parse_steering(raw.get("controller"))
    return ScenarioConfig(
        kind=kind,
        seed=seed,
        nodes=tuple(_parse_node(n) for n in nodes_raw),
        protocol=_parse_protocol(raw.get("protocol")),
        steering=steering,
        follower=follower,
        channel=_parse_channel(raw.get("channel")),
        obstacles=_parse_obstacles(raw.get("obstacles")),
        duration_s=float(raw.get("duration_s", 120.0)),
        run_to_completion=bool(raw.get("run_to_completion", True)),
        sensor_range_mm=int(raw.get("sensor_range_mm", 1000)),
        raw=raw,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(raw)


def apply_overrides(raw: dict, overrides: dict[str, Any]) -> dict:
    """Return a deep copy of `raw` with dotted-path overrides applied.

    Used by parameter sweeps: "channel.default_per" -> raw["channel"]["default_per"].
    """
    patched = json.loads(json.dumps(raw))
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        cursor = patched
        for part in parts[:-1]:
            if part not in cursor or not isinstance(cursor[part], dict):
                cursor[part] = {}
            cursor = cursor[part]
        cursor[parts[-1]] = value
    return patched
