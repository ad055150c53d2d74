"""Waypoint path controller: dead reckoning, curvature steering, platoon references, estop.

Every lane holds one list of reference points (`RefPoints`) reached in order,
each once within `tolerance_m`: a fixed path, or points traced from the
platoon leader at least `min_spacing_m` apart.  The lanes are the only record
of progress; `finished()` reads them.

Steering fits a parabola y = a*x^2 through the target in the robot frame
(tangent to the current heading), giving curvature kappa = 2*y_t / x_t^2,
clamped to +/- max_curvature.  The one turn rule: a target beside or behind
the robot (x_t <= min_forward_m) starts an in-place rotation toward its
bearing, kept until the bearing is below TURN_EXIT_RAD, so the curve law
only sees targets ahead.  Wheel speeds follow
v_right/left = v * (1 +/- kappa * track / 2); if either wheel would exceed the
robot's limit both scale uniformly, preserving the curvature.  Approach speed
tapers as min(cruise, approach_gain * distance).  A circular-arc variant
(kappa = 2*y_t / (x_t^2 + y_t^2)) is available as a config switch.

Feedback losses are bridged with a zero-order hold: the controller keeps its
last pose estimate and still emits a command every cycle.  Each compute pass
returns named tuples built in C (`CycleDecisions`, one `LaneDecision` per
robot), and each lane's next reference point is put into the robot frame once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .bounds import ConfigError, check_bounds
from .frames import CmdFrame, FbFrame, new_record, wrap_i32
from .robot import Pose, RobotParams, advance_by_wheel_arcs

TURN_EXIT_RAD = 0.15   # once rotating in place, keep going until the bearing is this small
TURN_TAPER_RAD = 0.5   # rotation slows below this bearing (slew headroom)


@dataclass(frozen=True)
class FollowerParams:
    min_spacing_m: float = field(default=0.05, metadata={"gt": 0})  # leader travel per point
    standoff_m: float = field(default=0.25, metadata={"gt": 0})     # hold while this close


@dataclass(frozen=True)
class SteeringParams:
    cruise_speed_mms: float = field(default=150.0, metadata={"gt": 0})
    tolerance_m: float = field(default=0.02, metadata={"gt": 0})    # waypoint advance radius
    # below this forward offset, rotate in place: the curve law sees only x_t > 0
    min_forward_m: float = field(default=0.02, metadata={"ge": 0})
    max_curvature: float = field(default=8.0, metadata={"gt": 0})   # 1/m; clamps the curve
    approach_gain: float = field(default=1.0, metadata={"gt": 0})   # 1/s; speed taper
    turn_rate: float = field(default=2.0, metadata={"gt": 0})       # rad/s, rotating in place
    curve_mode: str = "parabola"                                    # or "arc"
    estop_threshold_mm: int = field(default=150, metadata={"gt": 0})
    follower: FollowerParams = field(default_factory=FollowerParams)  # platoon spacing and standoff

    def __post_init__(self) -> None:  # the curve law reads any other mode as "parabola"
        if self.curve_mode not in ("parabola", "arc"):
            raise ConfigError(f"controller.curve_mode: unknown curve mode {self.curve_mode!r}")


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
    wheel = min(wheel, robot.max_wheel_speed_mms)
    return (-wheel, wheel) if bearing >= 0 else (wheel, -wheel)


def wheel_speeds(x_t: float, y_t: float, params: SteeringParams, robot: RobotParams,
                 speed_distance_m: float | None = None) -> tuple[float, float]:
    """Wheel speed setpoints (mm/s) along the fitted curve to a target ahead,
    given in the robot frame.

    The approach taper uses the distance to the target unless
    `speed_distance_m` overrides it (a platoon follower tapers on its leader
    standoff rather than on the next traced point).
    """
    track = robot.track_width_m
    limit = robot.max_wheel_speed_mms
    kappa = curvature_to_target(x_t, y_t, params.curve_mode)
    kappa = max(-params.max_curvature, min(params.max_curvature, kappa))
    taper = math.hypot(x_t, y_t) if speed_distance_m is None else speed_distance_m
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
class RefPoints:
    """Reference points reached in order: a fixed path, or the points traced
    from a platoon leader.  Points before `index` have been reached."""

    points: list[tuple[float, float]] = field(default_factory=list)
    index: int = 0
    in_frame: tuple[float, float] | None = None  # next point in the robot frame, from advance

    def advance(self, pose: Pose, tolerance_m: float) -> int:
        """Pass every point already within tolerance; returns the points passed.
        Keeps the next point in the robot frame in `in_frame`."""
        points, index = self.points, self.index
        self.in_frame = None
        while index < len(points):
            in_frame = target_in_robot_frame(pose, points[index])
            if math.hypot(*in_frame) >= tolerance_m:
                self.in_frame = in_frame
                break
            index += 1
        steps = index - self.index
        self.index = index
        return steps

    def extend(self, leader_pose: Pose, min_spacing_m: float) -> bool:
        """Append the leader's position once it is `min_spacing_m` from the last
        point, or at once when every point has been reached; True if appended."""
        p = (leader_pose.x, leader_pose.y)
        if self.index < len(self.points):
            last = self.points[-1]
            if math.hypot(p[0] - last[0], p[1] - last[1]) < min_spacing_m:
                return False
        self.points.append(p)
        return True


@dataclass
class RobotLane:
    """Controller-side state for one robot: estimate, feedback, references."""

    robot: int
    params: RobotParams
    est_pose: Pose
    refs: RefPoints                            # the path, or the trace of the leader
    follower_of: int | None = None             # platoon follower tracks this node
    last_ticks: tuple[int, int] = (0, 0)
    pending_fb: FbFrame | None = None
    last_fb_seq: int | None = None             # seq of the sample behind the next command
    distance_mm: int | None = None
    cmd_seq: int = 0
    turning: bool = False                      # in-place rotation in progress
    settled: bool = False                      # last command was (0, 0): a follower held or stopped
    meters_per_tick: float = field(init=False)  # odometry scale, fixed per robot

    def __post_init__(self) -> None:
        self.meters_per_tick = 1.0 / self.params.ticks_per_meter


class LaneDecision(NamedTuple):
    robot: int
    cmd: CmdFrame
    informing_fb_seq: int     # -1 before the first feedback sample
    advanced: int             # reference points reached this cycle
    completed: bool           # the path's last point was reached this cycle


class CycleDecisions(NamedTuple):
    commands: list[LaneDecision]
    estop_triggered: bool     # latched this cycle
    estop_source: int | None  # robot whose reading tripped the threshold


class PathController:
    """One controller instance driving every configured robot each cycle."""

    def __init__(self, node: int, steering: SteeringParams):
        self.node = node
        self.steering = steering
        check_bounds(steering, "controller")
        self.lanes: dict[int, RobotLane] = {}
        self._by_robot: list[RobotLane] = []
        self._leaders_first: list[RobotLane] = []
        self.estop_latched = False

    def add_path_lane(self, robot: int, params: RobotParams, start_pose: Pose,
                      path: list[tuple[float, float]]) -> RobotLane:
        lane = RobotLane(robot=robot, params=params, est_pose=start_pose,
                         refs=RefPoints(list(path)))
        self._add_lane(lane)
        return lane

    def add_follower_lane(self, robot: int, params: RobotParams, start_pose: Pose,
                          leader: int) -> RobotLane:
        lane = RobotLane(robot=robot, params=params, est_pose=start_pose,
                         refs=RefPoints(), follower_of=leader)
        self._add_lane(lane)
        return lane

    def _add_lane(self, lane: RobotLane) -> None:
        self.lanes[lane.robot] = lane
        self._by_robot = [self.lanes[robot] for robot in sorted(self.lanes)]
        # leader lanes first so follower references see this cycle's leader
        # pose; a stable sort keeps robot order within each group
        self._leaders_first = sorted(self._by_robot,
                                     key=lambda lane: lane.follower_of is not None)

    def ingest_feedback(self, fb: FbFrame) -> bool:
        """Keep the latest feedback per robot for the next compute pass; returns
        False for a robot without a lane.  A frame reaches the controller at most
        once, in the cycle that sampled it, so the latest frame is the newest."""
        lane = self.lanes.get(fb.src)
        if lane is None:
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
        """Steering toward a target in the robot frame.  A target beside or
        behind (x_t <= min_forward_m) starts an in-place rotation, which
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
        return wheel_speeds(x_t, y_t, self.steering, lane.params, speed_distance_m)

    def _steer_lane(self, lane: RobotLane) -> tuple[tuple[float, float], int, bool]:
        """Returns ((left, right) mm/s, points reached, path completed this cycle)."""
        refs = lane.refs
        advanced = refs.advance(lane.est_pose, self.steering.tolerance_m)
        if lane.follower_of is None:
            if refs.in_frame is None:
                return (0.0, 0.0), advanced, advanced > 0
            return self._steer_toward(lane, refs.in_frame), advanced, False

        # follower lane: track the leader's trace while keeping the standoff
        leader = self.lanes[lane.follower_of].est_pose
        gap = math.hypot(leader.x - lane.est_pose.x, leader.y - lane.est_pose.y)
        standoff = self.steering.follower.standoff_m
        if gap < standoff or refs.in_frame is None:
            return (0.0, 0.0), advanced, False  # hold
        # taper on the approach to the leader standoff, not on the next point
        return self._steer_toward(lane, refs.in_frame, gap - standoff), advanced, False

    def run_cycle(self) -> CycleDecisions:
        """One compute pass: fold feedback, decide estop, emit one command per robot."""
        for lane in self._by_robot:
            self._consume_feedback(lane)

        estop_source = self._check_estop(self._by_robot)

        decisions = []
        for lane in self._leaders_first:
            if lane.follower_of is not None:
                lane.refs.extend(self.lanes[lane.follower_of].est_pose,
                                 self.steering.follower.min_spacing_m)
            if self.estop_latched:
                speeds, advanced, completed = (0.0, 0.0), 0, False
            else:
                speeds, advanced, completed = self._steer_lane(lane)
            left, right = int(round(speeds[0])), int(round(speeds[1]))
            lane.settled = left == 0 and right == 0
            lane.cmd_seq = (lane.cmd_seq + 1) & 0xFFFF
            cmd = new_record(CmdFrame, (self.node, lane.robot, lane.cmd_seq, left, right,
                                        self.estop_latched))
            fb_seq = -1 if lane.last_fb_seq is None else lane.last_fb_seq
            decisions.append(new_record(LaneDecision, (lane.robot, cmd, fb_seq,
                                                       advanced, completed)))
        return new_record(CycleDecisions, (decisions, estop_source is not None, estop_source))

    def finished(self) -> bool:
        """After a compute pass: every path lane has no point left to reach,
        and every follower was commanded (0, 0)."""
        for lane in self._by_robot:
            if lane.follower_of is None:
                if lane.refs.in_frame is not None:
                    return False
            elif not lane.settled:
                return False
        return True
