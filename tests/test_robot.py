import math

import numpy as np
import pytest

from oracles import rk4_unicycle
from wctrlsim.bounds import ConfigError
from wctrlsim.frames import CmdFrame
from wctrlsim.robot import (Pose, Robot, RobotParams, Segment, normalize_angle,
                            ray_distance_m, step_kinematics)


def test_normalize_angle_range():
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert normalize_angle(0.0) == 0.0


def test_straight_line_step():
    pose = step_kinematics(Pose(0, 0, 0), 0.1, 0.1, 1.0, track_width_m=0.117)
    assert (pose.x, pose.y, pose.theta) == pytest.approx((0.1, 0.0, 0.0))


def test_spin_in_place():
    track = 0.117
    v = 0.05
    dt = 0.7
    pose = step_kinematics(Pose(0.3, -0.2, 0.1), -v, v, dt, track)
    omega = 2 * v / track
    assert (pose.x, pose.y) == pytest.approx((0.3, -0.2))
    assert pose.theta == pytest.approx(normalize_angle(0.1 + omega * dt))


def test_exact_arc_closed_form():
    # track 0.1, v_left 0, v_right 0.1, dt pi: v=0.05, omega=1, ends at (0, 0.1, pi)
    pose = step_kinematics(Pose(0, 0, 0), 0.0, 0.1, math.pi, track_width_m=0.1)
    assert pose.x == pytest.approx(0.0, abs=1e-12)
    assert pose.y == pytest.approx(0.1, abs=1e-12)
    assert pose.theta == pytest.approx(math.pi)


def test_non_positive_dt_rejected():
    with pytest.raises(ValueError):
        step_kinematics(Pose(0, 0, 0), 0.1, 0.1, 0.0, 0.117)
    with pytest.raises(ValueError):
        step_kinematics(Pose(0, 0, 0), 0.1, 0.1, -1.0, 0.117)


def test_arc_matches_rk4_oracle():
    rng = np.random.default_rng(0)
    track = 0.117
    worst = 0.0
    for _ in range(100):
        vl, vr = rng.uniform(-0.3, 0.3, size=2)
        dt = rng.uniform(0.05, 1.0)
        pose = step_kinematics(Pose(0, 0, 0), vl, vr, dt, track)
        ox, oy, _ = rk4_unicycle(0, 0, 0, vl, vr, dt, track)
        worst = max(worst, math.hypot(pose.x - ox, pose.y - oy))
    assert worst <= 1e-6


def test_substep_composition_is_exact():
    track = 0.117
    vl, vr, dt = 0.12, -0.07, 0.8
    one = step_kinematics(Pose(0, 0, 0), vl, vr, dt, track)
    for k in (2, 5, 13):
        pose = Pose(0, 0, 0)
        for _ in range(k):
            pose = step_kinematics(pose, vl, vr, dt / k, track)
        assert math.hypot(pose.x - one.x, pose.y - one.y) <= 1e-9


def make_robot(**kwargs):
    defaults = dict(wheel_radius_m=0.0325, track_width_m=0.117, ticks_per_rev=360,
                    max_wheel_speed_mms=300, actuation_rate_limit_mms2=500.0)
    defaults.update(kwargs)
    params = RobotParams(**defaults)
    return Robot(1, params, Pose(0, 0, 0))


def test_encoder_ticks_for_straight_run():
    # 0.1 m at wheel radius 0.03 m, 360 ticks/rev: round(0.1*360/(2*pi*0.03)) = 191
    robot = make_robot(wheel_radius_m=0.03, actuation_rate_limit_mms2=1e9)
    robot.apply_command(CmdFrame(src=0, dst=1, seq=1, left_mms=100, right_mms=100))
    for _ in range(1000):
        robot.tick(0.001)  # 1 s at 100 mm/s = 0.1 m
    assert robot.sample_feedback([])[:2] == (191, 191)


def test_slew_limits_wheel_acceleration():
    robot = make_robot()
    robot.apply_command(CmdFrame(src=0, dst=1, seq=1, left_mms=100, right_mms=100))
    speeds = []
    for _ in range(25):
        robot.tick(0.01)  # 500 mm/s^2 * 10 ms = 5 mm/s per tick
        speeds.append(robot.actual[0])
    assert speeds[0] == pytest.approx(5.0)
    assert speeds[19] == pytest.approx(100.0)
    assert speeds[18] == pytest.approx(95.0)
    assert all(s == pytest.approx(100.0) for s in speeds[20:])


def test_each_wheel_slews_on_its_own_within_the_limit():
    robot = make_robot()
    robot.apply_command(CmdFrame(src=0, dst=1, seq=1, left_mms=300, right_mms=-2))
    robot.tick(0.01)  # step 5 mm/s: left is step-limited, right reaches its command
    assert robot.actual == (5.0, -2.0)
    robot.commanded = (-1000.0, 1000.0)  # beyond the 300 mm/s wheel limit
    robot.actual = (-298.0, 298.0)
    robot.tick(0.01)
    assert robot.actual == (-300.0, 300.0)


def test_pose_is_immutable():
    pose = Pose(0.1, 0.2, 0.3)
    with pytest.raises(AttributeError):
        pose.x = 0.0


def test_idle_robot_does_not_move():
    robot = make_robot()
    robot.tick(0.5)
    assert robot.pose == Pose(0, 0, 0)
    assert robot.sample_feedback([])[:2] == (0, 0)


def test_encoder_remainder_carries_without_bias():
    # cumulative rounding error never exceeds half a tick quantum
    robot = make_robot(actuation_rate_limit_mms2=1e9)
    rng = np.random.default_rng(4)
    ticks_per_m = robot.params.ticks_per_meter
    exact = 0.0
    seq = 0
    for _ in range(500):
        speed = int(rng.integers(-300, 301))
        seq += 1
        robot.apply_command(CmdFrame(src=0, dst=1, seq=seq, left_mms=speed, right_mms=speed))
        robot.tick(0.002)
        exact += speed * 1e-3 * 0.002
        assert abs(robot.sample_feedback([])[0] - exact * ticks_per_m) <= 0.5 + 1e-9
    # reconstructing the arc from ticks stays within one tick quantum
    assert abs(robot.sample_feedback([])[0] / ticks_per_m - exact) <= 1.0 / ticks_per_m


def test_ray_distance_wall_ahead():
    pose = Pose(0, 0, 0)
    wall = Segment(0.5, -1.0, 0.5, 1.0)
    assert ray_distance_m(pose, [wall]) == pytest.approx(0.5)


def test_ray_distance_wall_behind_is_ignored():
    pose = Pose(0, 0, 0)
    wall = Segment(-0.5, -1.0, -0.5, 1.0)
    assert ray_distance_m(pose, [wall]) is None


def test_ray_distance_without_obstacles():
    assert ray_distance_m(Pose(0, 0, 0), []) is None


def test_ray_distance_heading_dependent():
    pose = Pose(0, 0, math.pi / 2)
    wall = Segment(-1.0, 0.25, 1.0, 0.25)
    assert ray_distance_m(pose, [wall]) == pytest.approx(0.25)


@pytest.mark.parametrize("x1, x2, expected", [
    (0.5, 1.0, 0.5),     # ahead: its nearer end
    (1.0, 0.5, 0.5),     # either way round
    (-1.0, -0.5, None),  # wholly behind
    (-0.5, 1.0, 0.0),    # straddling the ray's start
    (0.0, 1.0, 0.0),     # starting where the ray starts
])
def test_a_wall_on_the_heading_line_reads_its_nearest_point_ahead(x1, x2, expected):
    for theta in (0.0, math.pi):  # along and against the x axis
        sign = 1.0 if theta == 0.0 else -1.0
        wall = Segment(sign * x1, 0.0, sign * x2, 0.0)
        assert ray_distance_m(Pose(0, 0, theta), [wall]) == expected


def test_a_parallel_wall_off_the_heading_line_gives_no_reading():
    assert ray_distance_m(Pose(0, 0, 0), [Segment(0.5, 1e-6, 1.0, 1e-6)]) is None
    # a wall across the ray reads before a farther one on the ray's line
    walls = [Segment(0.8, 0.0, 2.0, 0.0), Segment(0.3, -1.0, 0.3, 1.0)]
    assert ray_distance_m(Pose(0, 0, 0), walls) == pytest.approx(0.3)


def test_distance_reading_saturates_to_sentinel():
    robot = make_robot()
    far_wall = [Segment(5.0, -1.0, 5.0, 1.0)]
    assert robot.read_distance_mm(far_wall) is None  # beyond sensor range
    near_wall = [Segment(0.5, -1.0, 0.5, 1.0)]
    assert robot.read_distance_mm(near_wall) == 500


def test_apply_command_sets_commanded_speeds():
    robot = make_robot()
    assert robot.apply_command(
        CmdFrame(src=0, dst=1, seq=1, left_mms=100, right_mms=100)) == "applied"
    assert robot.commanded == (100.0, 100.0)


def test_wheel_speed_limit_must_fit_the_command_frame():
    Robot(1, RobotParams(max_wheel_speed_mms=0x7FFF), Pose(0, 0, 0))
    with pytest.raises(ConfigError, match=r"^params\.max_wheel_speed_mms: must be <= 32767, got 32768$"):
        Robot(1, RobotParams(max_wheel_speed_mms=0x8000), Pose(0, 0, 0))


def test_apply_command_clamps_to_wheel_limit():
    robot = make_robot(max_wheel_speed_mms=300)
    robot.apply_command(CmdFrame(src=0, dst=1, seq=1, left_mms=32767, right_mms=-32768))
    assert robot.commanded == (300.0, -300.0)


def test_command_after_a_seq_jump_of_40000_is_applied():
    # a robot that hears nothing for 40,000 cycles (80 s at a 2 ms cycle) sees
    # the controller's count 40,000 ahead, more than half the u16 ring
    robot = make_robot()
    robot.apply_command(CmdFrame(src=0, dst=1, seq=50, left_mms=50, right_mms=50))
    assert robot.apply_command(
        CmdFrame(src=0, dst=1, seq=50 + 40_000, left_mms=90, right_mms=90)) == "applied"
    assert robot.commanded == (90.0, 90.0)


def test_sequence_wraparound_is_not_stale():
    robot = make_robot()
    robot.apply_command(CmdFrame(src=0, dst=1, seq=65535, left_mms=10, right_mms=10))
    assert robot.apply_command(
        CmdFrame(src=0, dst=1, seq=0, left_mms=20, right_mms=20)) == "applied"
    assert robot.commanded == (20.0, 20.0)


def test_estop_latches_and_ignores_later_commands():
    robot = make_robot()
    robot.apply_command(CmdFrame(src=0, dst=1, seq=1, left_mms=100, right_mms=100))
    assert robot.apply_command(
        CmdFrame(src=0, dst=1, seq=2, left_mms=0, right_mms=0, estop=True)) == "estop"
    assert robot.commanded == (0.0, 0.0)
    assert robot.estop_latched
    assert robot.apply_command(
        CmdFrame(src=0, dst=1, seq=3, left_mms=100, right_mms=100)) == "latched"
    assert robot.commanded == (0.0, 0.0)
    for _ in range(300):
        robot.tick(0.002)
        assert robot.commanded == (0.0, 0.0)


def test_watchdog_stops_robot_after_commandless_cycles():
    robot = make_robot()
    for seq in range(1, 101):  # a command in every cycle
        robot.apply_command(CmdFrame(src=0, dst=1, seq=seq, left_mms=100, right_mms=100))
        robot.end_cycle(0.002)
    assert robot.actual == (100.0, 100.0)
    for i in range(9):
        robot.end_cycle(0.002)
    assert robot.commanded == (100.0, 100.0)  # one cycle short of the limit
    robot.end_cycle(0.002)
    assert robot.commanded == (0.0, 0.0)
    for _ in range(200):
        robot.end_cycle(0.002)
    assert robot.actual == (0.0, 0.0)
    # a fresh command resumes motion: the watchdog stop is not a latch
    assert robot.apply_command(
        CmdFrame(src=0, dst=1, seq=2, left_mms=50, right_mms=50)) == "applied"
    assert robot.commanded == (50.0, 50.0)
