"""Ground-truth differential-drive robot.

Pose integration uses the exact circular-arc solution of the unicycle
kinematics (straight-line limit below |omega| < 1e-9 rad/s), so one step over
dt equals any composition of sub-steps.  Wheel speeds slew toward the
commanded values under an acceleration limit, magnetic encoders accumulate
ticks with a carried rounding remainder, and an infrared-style distance sensor
casts a single forward ray against line-segment obstacles.

`Pose` is an immutable named tuple: every integration step builds a new one in C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .bounds import check_bounds
from .frames import CmdFrame, new_record, wrap_i32


class Pose(NamedTuple):
    """Immutable planar pose; a new one is built at every integration step."""

    x: float
    y: float
    theta: float  # radians, normalized to (-pi, pi]


def normalize_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.pi - (math.pi - angle) % (2.0 * math.pi)


def step_kinematics(pose: Pose, v_left: float, v_right: float, dt: float,
                    track_width_m: float) -> Pose:
    """Advance a pose by constant wheel speeds (m/s) over dt seconds.

    v = (v_left + v_right) / 2, omega = (v_right - v_left) / track; the arc
    solution is exact for constant inputs.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    v = 0.5 * (v_left + v_right)
    omega = (v_right - v_left) / track_width_m
    theta = pose.theta
    if abs(omega) < 1e-9:
        return new_record(Pose, (pose.x + v * dt * math.cos(theta),
                                 pose.y + v * dt * math.sin(theta),
                                 normalize_angle(theta)))
    radius = v / omega
    theta2 = theta + omega * dt
    return new_record(Pose, (pose.x + radius * (math.sin(theta2) - math.sin(theta)),
                             pose.y - radius * (math.cos(theta2) - math.cos(theta)),
                             normalize_angle(theta2)))


def advance_by_wheel_arcs(pose: Pose, ds_left_m: float, ds_right_m: float,
                          track_width_m: float) -> Pose:
    """Advance a pose by per-wheel arc lengths: the same exact-arc formula with
    v*dt := mean arc and omega*dt := arc difference / track."""
    if ds_left_m == 0.0 and ds_right_m == 0.0:
        return pose
    return step_kinematics(pose, ds_left_m, ds_right_m, 1.0, track_width_m)


@dataclass(frozen=True)
class RobotParams:
    """Physical constants; plausible small-robot defaults, all configurable."""

    wheel_radius_m: float = field(default=0.0325, metadata={"gt": 0})
    track_width_m: float = field(default=0.117, metadata={"gt": 0})
    ticks_per_rev: int = field(default=360, metadata={"gt": 0})
    # commands carry wheel speeds in the CMD frame's i16 fields
    max_wheel_speed_mms: int = field(default=300, metadata={"gt": 0, "le": 0x7FFF})
    actuation_rate_limit_mms2: float = field(default=500.0, metadata={"gt": 0})

    @property
    def ticks_per_meter(self) -> float:
        return self.ticks_per_rev / (2.0 * math.pi * self.wheel_radius_m)


@dataclass(frozen=True)
class Segment:
    x1: float
    y1: float
    x2: float
    y2: float


def ray_distance_m(pose: Pose, obstacles: list[Segment]) -> float | None:
    """Distance along the heading ray to the nearest obstacle segment, or None.
    A segment that lies on the ray's line reads its nearest point ahead."""
    if not obstacles:
        return None
    ox, oy = pose.x, pose.y
    dx, dy = math.cos(pose.theta), math.sin(pose.theta)
    best: float | None = None
    for seg in obstacles:
        ax, ay = seg.x1, seg.y1
        ex, ey = seg.x2 - ax, seg.y2 - ay
        denom = dx * ey - dy * ex
        if abs(denom) < 1e-12:  # parallel (or degenerate) segment
            ends = ((ax - ox) * dx + (ay - oy) * dy, (seg.x2 - ox) * dx + (seg.y2 - oy) * dy)
            if abs((ax - ox) * dy - (ay - oy) * dx) >= 1e-12 or max(ends) < 0.0:
                continue  # off the ray's line, or wholly behind
            t, s = max(min(ends), 0.0), 0.0  # its nearest point ahead: 0 when the ray starts on it
        else:
            t = ((ax - ox) * ey - (ay - oy) * ex) / denom
            s = ((ax - ox) * dy - (ay - oy) * dx) / denom
        if t >= 0.0 and 0.0 <= s <= 1.0 and (best is None or t < best):
            best = t
    return best


class Robot:
    """One mobile platform: commanded/actual wheel speeds, pose, encoders, sensor."""

    def __init__(self, node: int, params: RobotParams, pose: Pose,
                 sensor_range_mm: int = 1000, watchdog_cycles: int = 10):
        check_bounds(params, "params")
        self.node = node
        self.params = params
        self.pose = pose
        self.sensor_range_mm = sensor_range_mm
        self.watchdog_cycles = watchdog_cycles
        self.commanded = (0.0, 0.0)  # mm/s
        self.actual = (0.0, 0.0)     # mm/s
        self.estop_latched = False
        self.cycles_without_command = 0
        self._commanded_this_cycle = False  # the watchdog's mark, cleared by end_cycle
        self._arc_m = [0.0, 0.0]     # exact cumulative wheel arc lengths
        self._ticks = [0, 0]         # emitted cumulative encoder ticks
        self._ticks_per_m = params.ticks_per_meter
        self._limit = float(params.max_wheel_speed_mms)
        self._track = params.track_width_m

    @property
    def stationary(self) -> bool:
        return self.actual == (0.0, 0.0)

    def apply_command(self, cmd: CmdFrame) -> str:
        """Apply a decoded command addressed to this robot.

        Returns the disposition: "applied", "estop" or "latched".  An
        emergency-stop command always latches; once latched, a plain command
        is not applied.  Any command feeds the watchdog for this cycle.
        """
        self._commanded_this_cycle = True
        if cmd.estop:
            self.latch_estop()
            return "estop"
        if self.estop_latched:
            return "latched"
        limit = self._limit
        self.commanded = (max(-limit, min(limit, float(cmd.left_mms))),
                          max(-limit, min(limit, float(cmd.right_mms))))
        return "applied"

    def latch_estop(self) -> None:
        """Latch the emergency stop; a stop frame also feeds the watchdog for this cycle."""
        self.estop_latched = True
        self.commanded = (0.0, 0.0)
        self._commanded_this_cycle = True

    def end_cycle(self, dt_s: float) -> None:
        """Close out one MAC cycle: watchdog, slew, pose and encoder advance."""
        if self._commanded_this_cycle:
            self._commanded_this_cycle = False
            self.cycles_without_command = 0
        else:
            self.cycles_without_command += 1
            if self.cycles_without_command >= self.watchdog_cycles:
                self.commanded = (0.0, 0.0)  # local safety stop, not latched
        self.tick(dt_s)

    def tick(self, dt_s: float) -> None:
        """Slew actual wheel speeds toward commanded and integrate motion over dt."""
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        step = self.params.actuation_rate_limit_mms2 * dt_s
        limit = self._limit
        (left, right), (target_left, target_right) = self.actual, self.commanded
        left += max(-step, min(step, target_left - left))
        right += max(-step, min(step, target_right - right))
        self.actual = (max(-limit, min(limit, left)), max(-limit, min(limit, right)))

        v_left = self.actual[0] * 1e-3
        v_right = self.actual[1] * 1e-3
        self.pose = step_kinematics(self.pose, v_left, v_right, dt_s, self._track)
        # round the exact cumulative counts so the remainder carries over steps
        arc, ticks_per_m = self._arc_m, self._ticks_per_m
        arc[0] += v_left * dt_s
        arc[1] += v_right * dt_s
        self._ticks = [int(round(arc[0] * ticks_per_m)), int(round(arc[1] * ticks_per_m))]

    def read_distance_mm(self, obstacles: list[Segment]) -> int | None:
        """Forward-ray distance in mm, saturated at the sensor range; None beyond it."""
        d = ray_distance_m(self.pose, obstacles)
        if d is None:
            return None
        mm = int(round(d * 1000.0))
        return mm if mm <= self.sensor_range_mm else None

    def sample_feedback(self, obstacles: list[Segment]) -> tuple[int, int, int | None]:
        """Encoder ticks (i32-wrapped) and distance reading for a feedback frame."""
        return (wrap_i32(self._ticks[0]), wrap_i32(self._ticks[1]),
                self.read_distance_mm(obstacles))
