import math
import weakref

from hypothesis import given, settings, strategies as st

from conftest import make_remote_config
from wctrlsim.channel import Cause
from wctrlsim import cli
from wctrlsim.cli import run_sweep
from wctrlsim.mac import Direction
from wctrlsim.metrics import TraceView
from wctrlsim.scenario import config_from_dict
from wctrlsim.simulation import Simulation, run_scenario

# trace column indices
TIME, CYCLE, SLOT, NODE, KIND, FRAME, SRC, DST, SEQ, CAUSE = range(10)
V1, V2, V3, V4, V5 = 10, 11, 12, 13, 14


def rows_of(result, kind):
    return [r for r in result.trace if r[KIND] == kind]


def desync_windows(result, node):
    """[(desync_time, resync_time or inf)] intervals reconstructed from the trace."""
    windows = []
    open_at = None
    for row in result.trace:
        if row[NODE] != node:
            continue
        if row[KIND] == "desync" and open_at is None:
            open_at = int(row[TIME])
        elif row[KIND] == "sync" and open_at is not None:
            windows.append((open_at, int(row[TIME])))
            open_at = None
    if open_at is not None:
        windows.append((open_at, math.inf))
    return windows


def test_trace_is_byte_identical_across_reruns():
    config = make_remote_config(duration_s=2.0, seed=77,
                                channel={"default_per": 0.2})
    a = run_scenario(config)
    b = run_scenario(config)
    assert a.trace.to_csv() == b.trace.to_csv()
    assert a.metrics == b.metrics


def test_different_seed_changes_lossy_trace():
    base = make_remote_config(duration_s=1.0, seed=1, channel={"default_per": 0.3})
    other = make_remote_config(duration_s=1.0, seed=2, channel={"default_per": 0.3})
    assert run_scenario(base).trace.to_csv() != run_scenario(other).trace.to_csv()


def test_lossless_latency_is_one_constant_schedule_value():
    config = make_remote_config(duration_s=1.0)
    result = run_scenario(config)
    sched = result.schedule
    fb_offset = sched.slots[1].offset_us
    cmd_offset = sched.slots[3].offset_us
    expected = cmd_offset + 104 - fb_offset  # FB->CMD separation plus airtime
    values = TraceView(result.trace).latencies[:, 2].tolist()
    assert values and set(values) == {expected}


def test_zero_order_hold_keeps_commands_flowing_without_feedback():
    config = make_remote_config(
        duration_s=0.5,
        channel={"default_per": 0.0, "links": [{"from": 1, "to": 0, "per": 1.0}]})
    result = run_scenario(config)
    emits = rows_of(result, "cmd-emit")
    assert len(emits) == result.cycle
    assert all(r[V3] == -1 for r in emits)  # no feedback ever informed a command
    seqs = [int(r[SEQ]) for r in emits]
    assert seqs == list(range(1, len(seqs) + 1))


def test_watchdog_stops_robot_during_command_blackout():
    # reception blackout at the robot that spares the sync slot: feedback keeps
    # flowing, commands never arrive, the local watchdog must stop the wheels
    cycle = 2000
    first, last = 20, 80
    blackouts = [{"node": 1, "from_us": k * cycle + 400, "until_us": (k + 1) * cycle}
                 for k in range(first, last)]
    config = make_remote_config(
        duration_s=0.22,
        controller={"cruise_speed_mms": 100.0},
        nodes=[{"id": 0, "role": "controller"},
               {"id": 1, "role": "robot", "start_pose": [0, 0, 0], "path": [[9.0, 0.0]],
                "params": {"actuation_rate_limit_mms2": 2000.0}}],
        channel={"default_per": 0.0, "blackouts": blackouts})
    result = run_scenario(config)
    # no desync: beacons got through the gaps
    assert not rows_of(result, "desync")
    poses = {int(r[CYCLE]): (float(r[V4]), float(r[V5]))
             for r in rows_of(result, "pose")}
    # watchdog fires after 10 command-less cycles; slew-down takes 25 more
    stop_deadline = first + 10 + 25 + 1
    for c in range(stop_deadline, last):
        assert poses[c] == (0.0, 0.0)
    # and motion resumes after the blackout clears
    assert any(poses[c] != (0.0, 0.0) for c in range(last + 1, max(poses)))


def test_desynced_node_never_transmits():
    cycle = 2000
    config = make_remote_config(
        duration_s=0.3,
        channel={"default_per": 0.0,
                 "blackouts": [{"node": 1, "from_us": 20 * cycle,
                                "until_us": 40 * cycle}]})
    result = run_scenario(config)
    windows = desync_windows(result, 1)
    assert windows, "the blackout should have desynced the robot"
    tx_times = [int(r[TIME]) for r in rows_of(result, "tx") if r[NODE] == 1]
    for start, end in windows:
        assert not any(start <= t < end for t in tx_times)
    # it resumed transmitting after re-syncing
    assert any(t >= windows[-1][1] for t in tx_times)
    # desynced listener outcomes appear while desynced
    causes = {r[CAUSE] for r in rows_of(result, "rx") if r[NODE] == 1
              and windows[0][0] <= int(r[TIME]) < windows[0][1]}
    assert "desynced-listener" in causes


def test_relay_rescues_broken_direct_link():
    config = config_from_dict({
        "kind": "remote-control", "seed": 5, "duration_s": 0.2,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0, 0, 0], "path": [[5.0, 0.0]]},
            {"id": 2, "role": "relay"},
        ],
        "channel": {"default_per": 0.0,
                    "links": [{"from": 0, "to": 1, "per": 1.0}]},
        "run_to_completion": False,
    })
    result = run_scenario(config)
    applies = [r for r in rows_of(result, "cmd-apply") if r[CAUSE] == "applied"]
    assert applies, "commands must reach the robot through the relay"
    # every delivery needed a retransmission flood (direct link is dead)
    sched = result.schedule
    retx_positions = {s.position for s in sched.slots if s.direction is Direction.RETX}
    assert all(r[SLOT] in retx_positions for r in applies)
    assert result.metrics["delivery"]["cmd"]["ratio"] == 1.0


def test_estop_stops_both_robots_and_dominates():
    cycle_len = 2500  # two loops -> 8 slots
    config = config_from_dict({
        "kind": "remote-control", "seed": 3, "duration_s": 2.0,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0, 0, 0], "path": [[5.0, 0.0]],
             "params": {"actuation_rate_limit_mms2": 2000.0}},
            {"id": 2, "role": "robot", "start_pose": [0, 1.0, 0], "path": [[5.0, 1.0]],
             "params": {"actuation_rate_limit_mms2": 2000.0}},
        ],
        "controller": {"cruise_speed_mms": 100.0},
        "obstacles": [{"segment": [0.1, -0.2, 0.1, 0.2], "appears_at_us": 30 * cycle_len}],
        "run_to_completion": False,
    })
    result = run_scenario(config)
    assert result.end_reason == "estopped"
    estop = result.metrics["estop"]
    latch = estop["latch_time_us"]
    assert latch == 30 * cycle_len + 750  # compute gap offset of the trigger cycle
    slew_us = int(100.0 / 2000.0 * 1e6)
    for robot in ("1", "2"):
        assert estop["per_robot"][robot]["latency_us"] <= 2 * cycle_len + slew_us
    # estop dominance: every command emitted after the latch is a flagged stop
    for r in rows_of(result, "cmd-emit"):
        if int(r[TIME]) >= latch:
            assert r[CAUSE] == "estop"
            assert (r[V1], r[V2]) == (0, 0)
    # both plants latched
    latches = {r[NODE] for r in rows_of(result, "estop") if r[CAUSE] == "plant-latch"}
    assert latches == {1, 2}


def test_estop_in_platoon_stops_leader_locally_and_follower_over_radio():
    config = config_from_dict({
        "kind": "leader-follower", "seed": 9, "duration_s": 5.0,
        "nodes": [
            {"id": 1, "role": "leader", "start_pose": [0, 0, 0], "path": [[3.0, 0.0]],
             "params": {"actuation_rate_limit_mms2": 2000.0}},
            {"id": 2, "role": "follower", "start_pose": [-0.3, 0, 0],
             "params": {"actuation_rate_limit_mms2": 2000.0}},
        ],
        "controller": {"cruise_speed_mms": 100.0},
        "obstacles": [{"segment": [0.15, -0.2, 0.15, 0.2], "appears_at_us": 200_000}],
    })
    result = run_scenario(config)
    assert result.end_reason == "estopped"
    estop = result.metrics["estop"]
    assert estop["latch_time_us"] >= 200_000
    for robot in ("1", "2"):
        assert estop["per_robot"][robot]["latency_us"] is not None
    latches = {r[NODE] for r in rows_of(result, "estop") if r[CAUSE] == "plant-latch"}
    assert latches == {1, 2}
    # the leader's local stop is immediate; latency samples stay radio-only
    values = TraceView(result.trace).latencies[:, 2].tolist()
    assert values and min(values) >= 104  # at least one airtime


def test_timeout_when_path_cannot_complete():
    config = make_remote_config(duration_s=0.05)  # 25 cycles, path is 5 m away
    result = run_scenario(config)
    assert result.end_reason == "timeout"
    assert result.end_time_us <= 50_000


def test_bundled_runs_write_one_complete_row_per_path(square_result, platoon_result):
    for result in (square_result, platoon_result):
        complete = [r[NODE] for r in rows_of(result, "waypoint") if r[CAUSE] == "complete"]
        with_path = [spec.node_id for spec in result.config.robots() if spec.path]
        assert sorted(complete) == sorted(with_path)
        assert result.end_reason == "completed"


def test_a_path_completes_once_when_an_estop_latches_afterwards():
    config = make_remote_config(
        duration_s=4.0,
        nodes=[{"id": 0, "role": "controller"},
               {"id": 1, "role": "robot", "start_pose": [0.0, 0.0, 0.0],
                "path": [[0.1, 0.0]]}],
        obstacles=[{"segment": [0.2, -0.5, 0.2, 0.5], "appears_at_us": 3_000_000}])
    sim = Simulation(config)
    run_cycle, completed = sim.controller.run_cycle, []

    def recording_run_cycle():
        decisions = run_cycle()
        completed.extend(d.robot for d in decisions.commands if d.completed)
        return decisions

    sim.controller.run_cycle = recording_run_cycle
    result = sim.run()
    assert result.end_reason == "estopped"
    assert completed == [1]
    assert [r[CAUSE] for r in rows_of(result, "waypoint")] == ["complete"]


def test_simulation_exposes_estimate_for_agreement_checks(square_config):
    sim = Simulation(square_config)
    result = sim.run()
    assert result.end_reason == "completed"
    lane = sim.controller.lanes[1]
    robot = sim.robots[1]
    err = math.hypot(lane.est_pose.x - robot.pose.x, lane.est_pose.y - robot.pose.y)
    assert err < 0.005  # dead reckoning agrees with ground truth within 5 mm


def test_sweep_cardinality_and_monotonicity():
    raw = {
        "kind": "remote-control", "seed": 1, "duration_s": 1.0,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0, 0, 0], "path": [[5.0, 0.0]]},
        ],
        "run_to_completion": False,
    }
    grid = {"parameters": {"channel.default_per": [0.0, 0.3, 0.6]}, "seeds": [1, 2]}
    rows = run_sweep(raw, grid)
    assert len(rows) == 6
    by_per = {}
    for row in rows:
        by_per.setdefault(row["channel.default_per"], []).append(row["cmd_delivery_ratio"])
    means = [sum(v) / len(v) for _, v in sorted(by_per.items())]
    assert means == sorted(means, reverse=True)
    assert means[0] == 1.0


def test_single_point_grid_equals_single_run():
    raw = {
        "kind": "remote-control", "seed": 4, "duration_s": 0.5,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0, 0, 0], "path": [[5.0, 0.0]]},
        ],
        "run_to_completion": False,
    }
    rows = run_sweep(raw, {"parameters": {}, "seeds": [4]})
    single = run_scenario(config_from_dict(raw))
    assert len(rows) == 1
    assert rows[0]["cycles"] == single.cycle
    assert rows[0]["latency_mean_us"] == single.metrics["cycle_time"]["mean_us"]


def test_a_sweep_frees_each_run_before_the_next_starts(monkeypatch):
    # a finished run holds its whole trace, so two of them must never be alive at once
    finished = []

    def tracked_run(config):
        assert all(ref() is None for ref in finished)
        run = run_scenario(config)
        finished.append(weakref.ref(run))
        return run

    monkeypatch.setattr(cli, "run_scenario", tracked_run)
    raw = {
        "kind": "remote-control", "seed": 4, "duration_s": 0.2,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0, 0, 0], "path": [[5.0, 0.0]]},
        ],
        "run_to_completion": False,
    }
    assert len(run_sweep(raw, {"parameters": {}, "seeds": [4, 5, 6]})) == 3
    assert len(finished) == 3

@st.composite
def configs_with_a_deaf_relay(draw):
    """A short lossy remote-control run, and the same run with one more node: a
    relay whose links in both directions all have per = 1."""
    robots = draw(st.sets(st.sampled_from([10, 20, 30]), min_size=1))
    nodes = [{"id": 0, "role": "controller"}]
    for r in sorted(robots):
        nodes.append({"id": r, "role": "robot", "start_pose": [0.0, 0.01 * r, 0.0],
                      "path": [[1.0, 0.01 * r]]})
    links = []
    if draw(st.booleans()):
        links.append({"from": 0, "to": min(robots),
                      "burst": {"p_good_to_bad": 0.1, "p_bad_to_good": 0.3,
                                "per_good": 0.1, "per_bad": 0.9}})
    raw = {"kind": "remote-control", "seed": draw(st.integers(0, 2**32)),
           "duration_s": draw(st.floats(0.02, 0.2)), "nodes": nodes,
           "channel": {"default_per": draw(st.sampled_from([0.0, 0.1, 0.3])),
                       "links": links},
           "run_to_completion": False}
    relay = draw(st.integers(1, 40).filter(lambda n: n not in robots))
    deaf = [{"from": a, "to": b, "per": 1.0}
            for n in [0, *robots] for a, b in ((relay, n), (n, relay))]
    with_relay = {**raw, "nodes": [*nodes, {"id": relay, "role": "relay"}],
                  "channel": {**raw["channel"], "links": links + deaf}}
    return raw, with_relay, relay


@settings(max_examples=25, deadline=None)
@given(configs_with_a_deaf_relay())
def test_a_new_node_never_shifts_another_nodes_draws(case):
    # every stream is keyed by its own (node, purpose), so a node that never
    # receives leaves every row that does not name it unchanged
    raw, with_relay, relay = case
    alone = list(run_scenario(config_from_dict(raw)).trace)
    joined = list(run_scenario(config_from_dict(with_relay)).trace)
    assert len(joined) > len(alone)
    assert [r for r in joined if relay not in (r[NODE], r[SRC], r[DST])] == alone


def test_every_transmission_uses_the_hop_channel_of_its_slot(lossy_result, fleet_result):
    # slot i of cycle c is on its band's channel hop[(c + i) % len(hop)]
    for result in (lossy_result, fleet_result):
        sched = result.schedule
        rows = [r for r in result.trace
                if r[KIND] in ("tx", "rx") and r[CAUSE] != Cause.NO_TRANSMITTER]
        hops = [slot.hop for slot in sched.slots]
        wrong = [r for r in rows
                 if r[V1] != hops[r[SLOT]][(r[CYCLE] + r[SLOT]) % len(hops[r[SLOT]])]]
        assert {r[V1] for r in rows} == set(sched.slots[0].hop) and not wrong
