"""Waypoint path controller: dead reckoning, curvature steering, platoon references, estop.

Steering fits a parabola y = a*x^2 through the target in the robot frame
(tangent to the current heading), giving curvature kappa = 2*y_t / x_t^2,
clamped to +/- max_curvature.  A target beside or behind the robot
(x_t <= min_forward_m) triggers an in-place rotation toward its bearing.
Wheel speeds follow v_right/left = v * (1 +/- kappa * track / 2); if either
wheel would exceed the robot's limit both scale uniformly, preserving the
curvature.  Approach speed tapers as min(cruise, approach_gain * distance).
A circular-arc variant (kappa = 2*y_t / (x_t^2 + y_t^2)) is available as a
config switch.

Feedback losses are bridged with a zero-order hold: the controller keeps its
last pose estimate and still emits a command every cycle.  Each compute pass
returns named tuples built in C (`CycleDecisions`, one `LaneDecision` per
robot), and each lane's next reference point is put into the robot frame once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .frames import CmdFrame, FbFrame, new_record, seq_is_newer, wrap_i32
from .robot import Pose, RobotParams, advance_by_wheel_arcs

TURN_EXIT_RAD = 0.15   # once rotating in place, keep going until the bearing is this small
TURN_TAPER_RAD = 0.5   # rotation slows below this bearing (slew headroom)


@dataclass(frozen=True)
class SteeringParams:
    cruise_speed_mms: float = 150.0
    tolerance_m: float = 0.02        # waypoint advance radius
    min_forward_m: float = 0.02      # below this forward offset, rotate in place
    max_curvature: float = 8.0       # 1/m; clamp on the fitted curve
    approach_gain: float = 1.0       # 1/s; speed taper toward the target
    turn_rate: float = 2.0           # rad/s for in-place rotation
    curve_mode: str = "parabola"     # or "arc"
    estop_threshold_mm: int = 150

    def validate(self) -> None:
        if self.curve_mode not in ("parabola", "arc"):
            raise ValueError(f"unknown curve mode {self.curve_mode!r}")
        if (self.cruise_speed_mms <= 0 or self.tolerance_m <= 0
                or self.max_curvature <= 0 or self.approach_gain <= 0
                or self.turn_rate <= 0 or self.estop_threshold_mm <= 0):
            raise ValueError("steering parameters must be strictly positive")


@dataclass(frozen=True)
class FollowerParams:
    min_spacing_m: float = 0.05  # leader movement between queued reference points
    standoff_m: float = 0.25     # follower holds while closer than this to the leader

    def validate(self) -> None:
        if self.min_spacing_m <= 0 or self.standoff_m <= 0:
            raise ValueError("follower parameters must be strictly positive")


def target_in_robot_frame(pose: Pose, target: tuple[float, float]) -> tuple[float, float]:
    dx = target[0] - pose.x
    dy = target[1] - pose.y
    cos_t = math.cos(pose.theta)
    sin_t = math.sin(pose.theta)
    return (dx * cos_t + dy * sin_t, -dx * sin_t + dy * cos_t)


def curvature_to_target(x_t: float, y_t: float, mode: str = "parabola") -> float:
    """Unclamped path curvature through the in-frame target."""
    if mode == "arc":
        return 2.0 * y_t / (x_t * x_t + y_t * y_t)
    return 2.0 * y_t / (x_t * x_t)


def rotation_speeds(bearing: float, params: SteeringParams,
                    robot: RobotParams) -> tuple[float, float]:
    """In-place rotation toward a bearing: opposite wheel speeds (mm/s).

    The rate tapers once the bearing drops below TURN_TAPER_RAD so the
    slew-limited wheels can settle without rotating past the target heading.
    """
    scale = min(1.0, abs(bearing) / TURN_TAPER_RAD)
    wheel = params.turn_rate * scale * robot.track_width_m * 0.5 * 1e3
    wheel = min(wheel, float(robot.max_wheel_speed_mms))
    return (-wheel, wheel) if bearing >= 0 else (wheel, -wheel)


def wheel_speeds(pose: Pose, target: tuple[float, float], params: SteeringParams,
                 robot: RobotParams, speed_distance_m: float | None = None) -> tuple[float, float]:
    """Wheel speed setpoints (mm/s) steering toward one reference point.

    The approach taper uses the distance to the target unless
    `speed_distance_m` overrides it (a platoon follower tapers on its leader
    standoff rather than on the next traced point).
    """
    x_t, y_t = target_in_robot_frame(pose, target)
    return wheel_speeds_in_frame(x_t, y_t, params, robot, speed_distance_m)


def wheel_speeds_in_frame(x_t: float, y_t: float, params: SteeringParams, robot: RobotParams,
                          speed_distance_m: float | None = None) -> tuple[float, float]:
    """`wheel_speeds` for a target already in the robot frame."""
    distance = math.hypot(x_t, y_t)
    track = robot.track_width_m
    limit = float(robot.max_wheel_speed_mms)

    if x_t <= params.min_forward_m:
        # target beside or behind: rotate in place toward its bearing
        return rotation_speeds(math.atan2(y_t, x_t), params, robot)

    kappa = curvature_to_target(x_t, y_t, params.curve_mode)
    kappa = max(-params.max_curvature, min(params.max_curvature, kappa))
    taper = distance if speed_distance_m is None else speed_distance_m
    v = min(params.cruise_speed_mms, params.approach_gain * taper * 1e3)
    right = v * (1.0 + kappa * track * 0.5)
    left = v * (1.0 - kappa * track * 0.5)
    peak = max(abs(left), abs(right))
    if peak > limit:
        scale = limit / peak  # uniform, so the curvature is preserved
        left *= scale
        right *= scale
    return left, right


@dataclass
class PathCursor:
    """Progress along a fixed reference path."""

    points: list[tuple[float, float]]
    tolerance_m: float
    index: int = 0
    in_frame: tuple[float, float] | None = None  # next point in the robot frame, from advance

    def advance(self, pose: Pose) -> int:
        """Skip every reference point already within tolerance; returns steps
        taken.  Keeps the next point in the robot frame in `in_frame`."""
        steps = 0
        self.in_frame = None
        while self.index < len(self.points):
            in_frame = target_in_robot_frame(pose, self.points[self.index])
            if math.hypot(*in_frame) >= self.tolerance_m:
                self.in_frame = in_frame
                break
            self.index += 1
            steps += 1
        return steps


@dataclass
class FollowerQueue:
    """Reference points traced from the leader's position, drained in FIFO order."""

    min_spacing_m: float
    points: list[tuple[float, float]] = field(default_factory=list)
    consumed: int = 0
    in_frame: tuple[float, float] | None = None  # next point in the robot frame, from pop_reached

    def extend_from_leader(self, leader_pose: Pose) -> bool:
        p = (leader_pose.x, leader_pose.y)
        if not self.points:
            self.points.append(p)
            return True
        last = self.points[-1]
        if math.hypot(p[0] - last[0], p[1] - last[1]) >= self.min_spacing_m:
            self.points.append(p)
            return True
        return False

    def pop_reached(self, pose: Pose, tolerance_m: float) -> int:
        """Drop every point already within tolerance; returns points dropped.
        Keeps the next point in the robot frame in `in_frame`."""
        popped = 0
        self.in_frame = None
        while self.points:
            in_frame = target_in_robot_frame(pose, self.points[0])
            if math.hypot(*in_frame) >= tolerance_m:
                self.in_frame = in_frame
                break
            self.points.pop(0)
            self.consumed += 1
            popped += 1
        return popped


@dataclass
class RobotLane:
    """Controller-side state for one robot: estimate, feedback, references."""

    robot: int
    params: RobotParams
    est_pose: Pose
    cursor: PathCursor | None = None           # fixed-path robots
    follower_of: int | None = None             # platoon follower tracks this node
    last_ticks: tuple[int, int] = (0, 0)
    pending_fb: FbFrame | None = None
    last_fb_seq: int | None = None
    informing_fb_seq: int = -1                 # seq of the sample behind the next command
    distance_mm: int | None = None
    cmd_seq: int = 0
    complete: bool = False
    local: bool = False                        # co-located plant, no radio loop
    turning: bool = False                      # in-place rotation in progress
    meters_per_tick: float = field(init=False)  # odometry scale, fixed per robot

    def __post_init__(self) -> None:
        self.meters_per_tick = 1.0 / self.params.ticks_per_meter


class LaneDecision(NamedTuple):
    robot: int
    cmd: CmdFrame
    informing_fb_seq: int
    advanced: int             # reference points consumed this cycle
    complete: bool
    holding: bool             # follower standoff hold


class CycleDecisions(NamedTuple):
    commands: list[LaneDecision]
    estop_triggered: bool     # latched this cycle
    estop_source: int | None  # robot whose reading tripped the threshold


class PathController:
    """One controller instance driving every configured robot each cycle."""

    def __init__(self, node: int, steering: SteeringParams,
                 follower_params: FollowerParams | None = None):
        steering.validate()
        if follower_params is not None:
            follower_params.validate()
        self.node = node
        self.steering = steering
        self.follower_params = follower_params or FollowerParams()
        self.lanes: dict[int, RobotLane] = {}
        # (lanes in robot order, path lanes then followers in robot order), set
        # by the first run_cycle after a lane is added
        self._orders: tuple[list[RobotLane], list[RobotLane]] | None = None
        self.queue: FollowerQueue | None = None
        self.estop_latched = False

    def add_path_lane(self, robot: int, params: RobotParams, start_pose: Pose,
                      path: list[tuple[float, float]], *, local: bool = False) -> RobotLane:
        lane = RobotLane(robot=robot, params=params, est_pose=start_pose,
                         cursor=PathCursor(points=list(path),
                                           tolerance_m=self.steering.tolerance_m),
                         local=local)
        self._add_lane(lane)
        return lane

    def add_follower_lane(self, robot: int, params: RobotParams, start_pose: Pose,
                          leader: int) -> RobotLane:
        lane = RobotLane(robot=robot, params=params, est_pose=start_pose,
                         follower_of=leader)
        self._add_lane(lane)
        self.queue = FollowerQueue(min_spacing_m=self.follower_params.min_spacing_m)
        return lane

    def _add_lane(self, lane: RobotLane) -> None:
        self.lanes[lane.robot] = lane
        self._orders = None

    def ingest_feedback(self, fb: FbFrame) -> bool:
        """Keep the newest feedback per robot; returns True if it superseded."""
        lane = self.lanes.get(fb.src)
        if lane is None:
            return False
        if lane.pending_fb is not None and not seq_is_newer(fb.seq, lane.pending_fb.seq):
            return False
        if not seq_is_newer(fb.seq, lane.last_fb_seq):
            return False
        lane.pending_fb = fb
        return True

    def _consume_feedback(self, lane: RobotLane) -> None:
        fb = lane.pending_fb
        if fb is None:
            return  # zero-order hold: keep the last estimate
        d_left = wrap_i32(fb.left_ticks - lane.last_ticks[0])
        d_right = wrap_i32(fb.right_ticks - lane.last_ticks[1])
        meters_per_tick = lane.meters_per_tick
        lane.est_pose = advance_by_wheel_arcs(lane.est_pose,
                                              d_left * meters_per_tick,
                                              d_right * meters_per_tick,
                                              lane.params.track_width_m)
        lane.last_ticks = (fb.left_ticks, fb.right_ticks)
        lane.distance_mm = fb.distance_mm
        lane.last_fb_seq = fb.seq
        lane.informing_fb_seq = fb.seq
        lane.pending_fb = None

    def _check_estop(self, by_robot: list[RobotLane]) -> int | None:
        if self.estop_latched:
            return None
        for lane in by_robot:
            reading = lane.distance_mm
            if reading is not None and reading < self.steering.estop_threshold_mm:
                self.estop_latched = True
                return lane.robot
        return None

    def _steer_toward(self, lane: RobotLane, in_frame: tuple[float, float],
                      speed_distance_m: float | None = None) -> tuple[float, float]:
        """Steering toward a target in the robot frame, with rotation
        hysteresis: a rotation triggered by the target falling beside/behind
        continues until the bearing is small, so the robot leaves a sharp
        corner roughly aligned with the next leg."""
        x_t, y_t = in_frame
        bearing = math.atan2(y_t, x_t)
        if lane.turning and abs(bearing) <= TURN_EXIT_RAD:
            lane.turning = False
        if not lane.turning and x_t <= self.steering.min_forward_m:
            lane.turning = True
        if lane.turning:
            return rotation_speeds(bearing, self.steering, lane.params)
        return wheel_speeds_in_frame(x_t, y_t, self.steering, lane.params, speed_distance_m)

    def _steer_lane(self, lane: RobotLane) -> tuple[tuple[float, float], int, bool]:
        """Returns ((left, right) mm/s, points consumed, holding)."""
        if lane.cursor is not None:
            advanced = lane.cursor.advance(lane.est_pose)
            if lane.cursor.in_frame is None:
                lane.complete = True
                return (0.0, 0.0), advanced, False
            return self._steer_toward(lane, lane.cursor.in_frame), advanced, False

        # follower lane: track the on-the-fly queue while keeping the standoff
        leader_lane = self.lanes[lane.follower_of]
        assert self.queue is not None
        popped = self.queue.pop_reached(lane.est_pose, self.steering.tolerance_m)
        gap = math.hypot(leader_lane.est_pose.x - lane.est_pose.x,
                         leader_lane.est_pose.y - lane.est_pose.y)
        if gap < self.follower_params.standoff_m:
            return (0.0, 0.0), popped, True
        if self.queue.in_frame is None:
            return (0.0, 0.0), popped, True
        # taper on the approach to the leader standoff, not on the next point
        approach = max(0.0, gap - self.follower_params.standoff_m)
        return self._steer_toward(lane, self.queue.in_frame, approach), popped, False

    def run_cycle(self) -> CycleDecisions:
        """One compute pass: fold feedback, decide estop, emit one command per robot."""
        if self._orders is None:
            by_robot = [self.lanes[robot] for robot in sorted(self.lanes)]
            # leader lanes first so follower references see this cycle's leader
            # pose; a stable sort keeps robot order within each group
            self._orders = (by_robot,
                            sorted(by_robot, key=lambda lane: lane.follower_of is not None))
        by_robot, leaders_first = self._orders
        for lane in by_robot:
            self._consume_feedback(lane)

        estop_source = self._check_estop(by_robot)

        decisions = []
        for lane in leaders_first:
            if lane.follower_of is not None and self.queue is not None:
                self.queue.extend_from_leader(self.lanes[lane.follower_of].est_pose)
            if self.estop_latched:
                speeds, advanced, holding = (0.0, 0.0), 0, False
            else:
                speeds, advanced, holding = self._steer_lane(lane)
            lane.cmd_seq = (lane.cmd_seq + 1) & 0xFFFF
            cmd = new_record(CmdFrame, (self.node, lane.robot, lane.cmd_seq,
                                        int(round(speeds[0])), int(round(speeds[1])),
                                        self.estop_latched))
            decisions.append(new_record(LaneDecision, (lane.robot, cmd, lane.informing_fb_seq,
                                                       advanced, lane.complete, holding)))
        return new_record(CycleDecisions, (decisions, estop_source is not None, estop_source))
