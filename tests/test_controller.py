import math

import pytest
from hypothesis import example, given, strategies as st

from oracles import FollowerQueue, PathCursor
from wctrlsim.bounds import ConfigError
from wctrlsim.controller import (CycleDecisions, FollowerParams, LaneDecision,
                                 PathController, RefPoints, SteeringParams,
                                 curvature_to_target, target_in_robot_frame, wheel_speeds)
from wctrlsim.frames import CmdFrame, FbFrame
from wctrlsim.robot import Pose, Robot, RobotParams


PARAMS = RobotParams()


def test_target_in_robot_frame_straight_ahead():
    assert target_in_robot_frame(Pose(0, 0, 0), (1.0, 0.0)) == pytest.approx((1.0, 0.0))


def test_target_in_robot_frame_left():
    x_t, y_t = target_in_robot_frame(Pose(0, 0, 0), (0.0, 1.0))
    assert (x_t, y_t) == pytest.approx((0.0, 1.0))
    assert (math.hypot(x_t, y_t), math.atan2(y_t, x_t)) == pytest.approx((1.0, math.pi / 2))


def test_target_in_robot_frame_transform():
    # world delta (-1, 0) rotated by -pi/2 lands at (0, 1): distance 1, bearing pi/2
    x_t, y_t = target_in_robot_frame(Pose(1, 1, math.pi / 2), (0.0, 1.0))
    assert (x_t, y_t) == pytest.approx((0.0, 1.0))
    assert (math.hypot(x_t, y_t), math.atan2(y_t, x_t)) == pytest.approx((1.0, math.pi / 2))


def test_curvature_formula():
    assert curvature_to_target(1.0, 1.0) == pytest.approx(2.0)
    assert curvature_to_target(0.5, -0.5) == pytest.approx(-4.0)
    # circular-arc alternative
    assert curvature_to_target(1.0, 1.0, mode="arc") == pytest.approx(1.0)


def test_wheel_speeds_target_dead_ahead():
    steering = SteeringParams(cruise_speed_mms=100.0)
    left, right = wheel_speeds(1.0, 0.0, steering, PARAMS)
    assert (left, right) == pytest.approx((100.0, 100.0))


def test_wheel_speeds_quadratic_curve_example():
    # target (1, 1): kappa = 2; with track 0.117 and v = 100:
    # right = 100 * (1 + 0.117) = 111.7, left = 88.3
    steering = SteeringParams(cruise_speed_mms=100.0)
    left, right = wheel_speeds(1.0, 1.0, steering, PARAMS)
    assert right == pytest.approx(111.7)
    assert left == pytest.approx(88.3)


def test_wheel_speeds_taper_near_target():
    steering = SteeringParams(cruise_speed_mms=150.0, approach_gain=1.0)
    left, right = wheel_speeds(0.05, 0.0, steering, PARAMS)
    assert (left, right) == pytest.approx((50.0, 50.0))


def test_wheel_speeds_rotate_in_place_when_target_behind():
    # full-rate rotation: wheel speed = 2.0 rad/s * track/2 = 117 mm/s
    for target, speeds in (((-1.0, 0.5), (-117, 117)), ((-1.0, -0.5), (117, -117))):
        controller = make_controller(path=[target], turn_rate=2.0)
        cmd = controller.run_cycle().commands[0].cmd
        assert (cmd.left_mms, cmd.right_mms) == speeds
        assert controller.lanes[1].turning


@given(st.floats(0.03, 2.0), st.floats(-2.0, 2.0))
def test_curvature_sign_matches_lateral_offset(x_t, y_t):
    steering = SteeringParams(cruise_speed_mms=100.0)
    left, right = wheel_speeds(x_t, y_t, steering, PARAMS)
    if abs(y_t) > 1e-9:
        assert math.copysign(1, right - left) == math.copysign(1, y_t)
    else:
        assert right == pytest.approx(left)


@given(st.floats(0.03, 1.0), st.floats(-1.0, 1.0))
def test_wheel_clamp_preserves_curvature(x_t, y_t):
    fast = SteeringParams(cruise_speed_mms=290.0, max_curvature=40.0)
    left, right = wheel_speeds(x_t, y_t, fast, PARAMS)
    limit = PARAMS.max_wheel_speed_mms
    assert max(abs(left), abs(right)) <= limit + 1e-9
    if max(abs(left), abs(right)) >= limit - 1e-9 and abs(left + right) > 1e-6:
        # compare the implied curvature with the unclamped construction
        slow = SteeringParams(cruise_speed_mms=1.0, max_curvature=40.0)
        sl, sr = wheel_speeds(x_t, y_t, slow, PARAMS)
        if abs(sl + sr) > 1e-9:
            kappa_clamped = 2 * (right - left) / ((right + left) * PARAMS.track_width_m)
            kappa_free = 2 * (sr - sl) / ((sr + sl) * PARAMS.track_width_m)
            assert kappa_clamped == pytest.approx(kappa_free, rel=1e-6, abs=1e-9)


def test_an_unknown_curve_mode_is_rejected():
    # the curve law would read it as "parabola"
    with pytest.raises(ConfigError, match=r"^controller\.curve_mode: unknown curve mode 'arcs'$"):
        SteeringParams(curve_mode="arcs")


def test_path_cursor_advances_within_tolerance():
    refs = RefPoints([(0.5, 0.0), (1.0, 0.0)])
    assert refs.advance(Pose(0.0, 0.0, 0), 0.02) == 0      # 0.5 m away
    assert refs.index == 0
    assert refs.advance(Pose(0.49, 0.0, 0), 0.02) == 1     # 0.01 m < tolerance
    assert refs.index == 1
    assert refs.index < len(refs.points)
    assert refs.advance(Pose(0.995, 0.0, 0), 0.02) == 1
    assert refs.index == len(refs.points)
    assert refs.in_frame is None


def test_path_cursor_index_monotone():
    refs = RefPoints([(0.1, 0), (0.2, 0), (0.3, 0)])
    last = refs.index
    for x in (0.0, 0.1, 0.05, 0.2, 0.12, 0.3):
        refs.advance(Pose(x, 0, 0), 0.02)
        assert refs.index >= last
        last = refs.index


def test_follower_queue_spacing():
    refs = RefPoints()
    assert refs.extend(Pose(0, 0, 0), 0.05)        # seeds the first point
    assert not refs.extend(Pose(0.01, 0, 0), 0.05)  # moved 0.01 < 0.05
    assert refs.extend(Pose(0.06, 0, 0), 0.05)      # moved 0.06
    assert refs.points == [(0.0, 0.0), (0.06, 0.0)]


def test_follower_queue_fifo_pop():
    refs = RefPoints()
    for x in (0.0, 0.05, 0.10, 0.15):
        refs.extend(Pose(x, 0, 0), 0.05)
    assert refs.advance(Pose(0.005, 0.0, 0), 0.02) == 1
    assert refs.points[refs.index] == (0.05, 0.0)
    assert refs.advance(Pose(0.06, 0.0, 0), 0.02) == 1
    assert refs.index == 2
    assert refs.points[refs.index] == (0.10, 0.0)


def test_refs_extend_at_once_when_every_point_is_reached():
    refs = RefPoints()
    refs.extend(Pose(0, 0, 0), 0.05)
    assert refs.advance(Pose(0, 0, 0), 0.02) == 1
    # the leader moved less than the spacing from the reached point: a new
    # reference appears at once, as a queue that popped its last point does
    assert refs.extend(Pose(0.01, 0, 0), 0.05)
    assert refs.points[refs.index:] == [(0.01, 0.0)]


coordinate = st.floats(-0.2, 0.2)
pose = st.builds(Pose, coordinate, coordinate, st.floats(-math.pi, math.pi))
steps = st.lists(st.tuples(pose, pose), min_size=1, max_size=30)  # (leader, follower) poses


@given(steps, st.floats(0.005, 0.1), st.floats(0.005, 0.1))
@example([(Pose(0, 0, 0), Pose(0, 0, 0)), (Pose(0.01, 0, 0), Pose(-0.5, 0, 0))], 0.05, 0.02)
def test_refs_trace_like_the_popping_follower_queue(poses, spacing, tolerance):
    queue, refs = FollowerQueue(min_spacing_m=spacing), RefPoints()
    for leader, follower in poses:
        assert refs.extend(leader, spacing) == queue.extend_from_leader(leader)
        assert refs.advance(follower, tolerance) == queue.pop_reached(follower, tolerance)
        assert refs.in_frame == queue.in_frame
        assert queue.points == refs.points[refs.index:]


@given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8),
       st.lists(pose, min_size=1, max_size=30), st.floats(0.005, 0.1))
def test_refs_follow_a_path_like_the_path_cursor(path, poses, tolerance):
    cursor, refs = PathCursor(points=list(path), tolerance_m=tolerance), RefPoints(list(path))
    for p in poses:
        assert refs.advance(p, tolerance) == cursor.advance(p)
        assert (refs.index, refs.in_frame) == (cursor.index, cursor.in_frame)


def make_controller(path=((1.0, 0.0),), **steering_kwargs):
    controller = PathController(0, SteeringParams(**steering_kwargs))
    controller.add_path_lane(1, PARAMS, Pose(0, 0, 0), list(path))
    return controller


def fb(seq, left, right, distance=None):
    return FbFrame(src=1, dst=0, seq=seq, left_ticks=left, right_ticks=right,
                   distance_mm=distance)


def test_dead_reckon_zero_delta_keeps_pose():
    controller = make_controller()
    controller.ingest_feedback(fb(1, 0, 0))
    controller.run_cycle()
    assert controller.lanes[1].est_pose == Pose(0, 0, 0)


def test_dead_reckon_straight_segment():
    controller = make_controller()
    ticks = 191  # about 0.1 m at default geometry
    meters = ticks / PARAMS.ticks_per_meter
    controller.ingest_feedback(fb(1, ticks, ticks))
    controller.run_cycle()
    est = controller.lanes[1].est_pose
    assert est.x == pytest.approx(meters)
    assert (est.y, est.theta) == pytest.approx((0.0, 0.0))


def test_dead_reckon_wrap_safe_tick_delta():
    controller = make_controller()
    lane = controller.lanes[1]
    lane.last_ticks = (2**31 - 10, 2**31 - 10)
    wrapped = -(2**31) + 10   # +20 ticks across the i32 boundary
    controller.ingest_feedback(fb(1, wrapped, wrapped))
    controller.run_cycle()
    assert lane.est_pose.x == pytest.approx(20 / PARAMS.ticks_per_meter)


def test_zero_order_hold_on_missing_feedback():
    controller = make_controller()
    controller.ingest_feedback(fb(1, 191, 191))
    first = controller.run_cycle()
    est_before = controller.lanes[1].est_pose
    second = controller.run_cycle()  # no feedback ingested
    assert controller.lanes[1].est_pose == est_before
    assert second.commands[0].cmd.seq == first.commands[0].cmd.seq + 1
    assert second.commands[0].informing_fb_seq == 1


def test_feedback_after_a_seq_jump_of_40000_is_consumed():
    # a controller that hears nothing for 40,000 cycles sees the robot's count
    # 40,000 ahead, more than half the u16 ring; the loop must close again
    controller = make_controller()
    controller.ingest_feedback(fb(50, 0, 0))
    controller.run_cycle()
    assert controller.ingest_feedback(fb(50 + 40_000, 191, 191)) is True
    decisions = controller.run_cycle()
    assert controller.lanes[1].last_fb_seq == 50 + 40_000
    assert decisions.commands[0].informing_fb_seq == 50 + 40_000
    assert controller.lanes[1].est_pose.x == pytest.approx(191 / PARAMS.ticks_per_meter)


def test_feedback_from_an_unknown_robot_is_rejected():
    controller = make_controller()
    stranger = FbFrame(src=9, dst=0, seq=1, left_ticks=0, right_ticks=0, distance_mm=None)
    assert controller.ingest_feedback(stranger) is False
    assert controller.lanes[1].pending_fb is None


def test_feedback_sequence_wraps_from_0xffff_to_0():
    controller = make_controller()
    assert controller.ingest_feedback(fb(0xFFFF, 0, 0)) is True
    assert controller.ingest_feedback(fb(0, 191, 191)) is True  # replaces the pending frame
    controller.run_cycle()
    assert controller.lanes[1].last_fb_seq == 0

    controller = make_controller()
    controller.ingest_feedback(fb(0xFFFF, 0, 0))
    controller.run_cycle()
    assert controller.ingest_feedback(fb(0, 191, 191)) is True


def test_commands_stop_after_path_complete():
    controller = make_controller(path=[(0.01, 0.0)])
    controller.ingest_feedback(fb(1, 0, 0))
    decisions = controller.run_cycle()
    assert decisions.commands[0].completed
    assert (decisions.commands[0].cmd.left_mms, decisions.commands[0].cmd.right_mms) == (0, 0)
    again = controller.run_cycle()
    assert again.commands[0].cmd.left_mms == 0
    assert not again.commands[0].completed  # completed in one cycle only


def test_completed_is_true_in_exactly_one_cycle_per_path_lane():
    controller = PathController(0, SteeringParams())
    controller.add_path_lane(1, PARAMS, Pose(0, 0, 0), [(0.01, 0.0)])  # reached at once
    controller.add_path_lane(2, PARAMS, Pose(0, 1, 0), [(0.01, 1.0), (0.5, 1.0)])
    completed = {1: 0, 2: 0}
    for cycle in range(6):
        if cycle == 1:
            controller.lanes[2].est_pose = Pose(0.5, 1.0, 0)  # at its last point
        if cycle == 3:  # an estop latches after both paths are complete
            controller.ingest_feedback(fb(1, 0, 0, distance=120))
        decisions = controller.run_cycle()
        for decision in decisions.commands:
            completed[decision.robot] += decision.completed
    assert controller.estop_latched
    assert completed == {1: 1, 2: 1}


def test_finished_waits_for_the_follower_to_hold_or_stop():
    controller = PathController(0, SteeringParams(follower=FollowerParams(standoff_m=0.25)))
    controller.add_path_lane(1, PARAMS, Pose(0, 0, 0), [(0.01, 0.0)])  # complete at once
    follower = controller.add_follower_lane(2, PARAMS, Pose(-1.0, 0, 0), leader=1)
    controller.run_cycle()
    assert not follower.settled and not controller.finished()  # 1 m behind: moving
    follower.est_pose = Pose(-0.1, 0, 0)  # inside the standoff: holds
    controller.run_cycle()
    assert follower.settled and controller.finished()

    controller = PathController(
        0, SteeringParams(follower=FollowerParams(min_spacing_m=0.5, standoff_m=0.05)))
    leader = controller.add_path_lane(1, PARAMS, Pose(0, 0, 0), [(0.01, 0.0)])
    follower = controller.add_follower_lane(2, PARAMS, Pose(-1.0, 0, 0), leader=1)
    controller.run_cycle()  # traces (0, 0)
    assert not controller.finished()
    leader.est_pose = Pose(0.3, 0, 0)      # less than the spacing: nothing traced
    follower.est_pose = Pose(0.005, 0, 0)  # outside the standoff, every point reached
    controller.run_cycle()
    assert follower.refs.in_frame is None
    assert follower.settled and controller.finished()


def test_estop_triggers_below_threshold_and_latches():
    controller = make_controller()
    controller.ingest_feedback(fb(1, 0, 0, distance=None))
    ok = controller.run_cycle()
    assert not ok.estop_triggered and not ok.commands[0].cmd.estop

    controller.ingest_feedback(fb(2, 0, 0, distance=120))  # below 150 mm
    tripped = controller.run_cycle()
    assert tripped.estop_triggered and tripped.estop_source == 1
    assert tripped.commands[0].cmd.estop
    assert (tripped.commands[0].cmd.left_mms, tripped.commands[0].cmd.right_mms) == (0, 0)

    # estop dominance: every later command is a flagged stop
    controller.ingest_feedback(fb(3, 500, 500, distance=None))
    later = controller.run_cycle()
    assert later.commands[0].cmd.estop
    assert (later.commands[0].cmd.left_mms, later.commands[0].cmd.right_mms) == (0, 0)
    assert not later.estop_triggered  # already latched, no new trigger event


def test_estop_reading_at_threshold_does_not_trigger():
    controller = make_controller()
    controller.ingest_feedback(fb(1, 0, 0, distance=150))
    assert not controller.run_cycle().estop_triggered


def test_plant_and_dead_reckoning_agree_without_loss():
    # closed-loop co-simulation at the unit level: the controller's estimate
    # tracks the true pose within the encoder quantization budget
    robot = Robot(1, PARAMS, Pose(0, 0, 0))
    controller = make_controller(path=[(0.5, 0.0), (0.5, 0.5), (0.0, 0.5), (0.0, 0.0)])
    lane = controller.lanes[1]
    dt = 0.002
    seq = 0
    for cycle in range(1, 3501):
        left, right, _ = robot.sample_feedback([])
        controller.ingest_feedback(fb(cycle & 0xFFFF, left, right))
        decisions = controller.run_cycle()
        cmd = decisions.commands[0].cmd
        robot.apply_command(cmd)
        robot.end_cycle(dt)
    err = math.hypot(lane.est_pose.x - robot.pose.x, lane.est_pose.y - robot.pose.y)
    assert err < 0.005  # < 5 mm over a ~2 m run


def test_advance_keeps_the_next_point_in_the_robot_frame():
    refs = RefPoints([(0.5, 0.0), (1.0, 0.5)])
    pose = Pose(0.49, 0.01, 0.3)
    assert refs.advance(pose, 0.02) == 1
    assert refs.in_frame == target_in_robot_frame(pose, (1.0, 0.5))
    assert refs.advance(Pose(1.0, 0.5, 0), 0.02) == 1
    assert refs.in_frame is None and refs.index == len(refs.points)


def test_pop_reached_keeps_the_next_point_in_the_robot_frame():
    refs = RefPoints()
    for leader in (Pose(0.0, 0.0, 0), Pose(0.3, 0.1, 0)):
        refs.extend(leader, 0.05)
    pose = Pose(0.001, 0.0, -0.2)
    assert refs.advance(pose, 0.02) == 1
    assert refs.in_frame == target_in_robot_frame(pose, (0.3, 0.1))
    assert refs.advance(Pose(0.3, 0.1, 0), 0.02) == 1
    assert refs.in_frame is None


def test_decisions_come_in_robot_order_with_followers_last():
    controller = PathController(0, SteeringParams())
    controller.add_path_lane(3, PARAMS, Pose(0, 0, 0), [(1.0, 0.0)])
    controller.add_follower_lane(2, PARAMS, Pose(-0.5, 0, 0), leader=3)
    controller.add_path_lane(1, PARAMS, Pose(0, 1, 0), [(1.0, 1.0)])
    decisions = controller.run_cycle()
    assert [d.robot for d in decisions.commands] == [1, 3, 2]
    assert [d.cmd.dst for d in decisions.commands] == [1, 3, 2]


def test_decision_records_are_immutable():
    decisions = make_controller().run_cycle()
    assert type(decisions) is CycleDecisions
    assert type(decisions.commands[0]) is LaneDecision
    for record, name in ((decisions, "estop_source"), (decisions.commands[0], "cmd"),
                         (decisions.commands[0].cmd, "estop")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
