"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Statistical criteria use 3-sigma binomial tolerances at the stated
sample sizes; tracking criteria use the bundled scenario configs at their
default parameters.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_remote_config
from oracles import rk4_unicycle
from test_frames import _boundary_frames
from test_retx_rules import delivery_probabilities, one_cycle_config, one_loop_pers
from wctrlsim.channel import Medium
from wctrlsim.engine import Engine
from wctrlsim.frames import CmdFrame, FrameError, decode_frame, encode_frame
from wctrlsim.mac import Direction
from wctrlsim.metrics import TraceView
from wctrlsim.robot import Pose, step_kinematics
from wctrlsim.scenario import config_from_dict
from wctrlsim.simulation import Simulation, run_scenario
from wctrlsim.trace import CMD_APPLY, Trace

TIME, CYCLE, SLOT, NODE, KIND, FRAME, SRC, DST, SEQ, CAUSE = range(10)
V1 = 10


def report(criterion, label, ok, detail):
    import conftest

    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion:>2} [{label}]: {status} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {criterion} ({label}): {detail}"


# -- 1: determinism ------------------------------------------------------------


def test_criterion_01_determinism(square_config, square_result,
                                  platoon_config, platoon_result):
    import json

    square_again = run_scenario(square_config)
    platoon_again = run_scenario(platoon_config)
    same_square = (square_again.trace.to_csv() == square_result.trace.to_csv()
                   and json.dumps(square_again.metrics, sort_keys=True)
                   == json.dumps(square_result.metrics, sort_keys=True))
    same_platoon = (platoon_again.trace.to_csv() == platoon_result.trace.to_csv()
                    and json.dumps(platoon_again.metrics, sort_keys=True)
                    == json.dumps(platoon_result.metrics, sort_keys=True))
    report(1, "determinism", same_square and same_platoon,
           f"square rows={len(square_result.trace)}, "
           f"platoon rows={len(platoon_result.trace)}, byte-identical reruns")


# -- 2: reliability closed form -------------------------------------------------


class _CommandCount(Trace):
    """Counts emitted commands and commands applied over the radio; keeps no rows."""

    def __init__(self):
        super().__init__()
        self.emitted = self.applied = 0

    def add(self, time_us, kind, *cells):
        if kind == "cmd-emit":
            self.emitted += 1
        elif kind is CMD_APPLY and cells[7] == "applied":  # cycle slot node frame src dst seq cause
            self.applied += 1


def test_criterion_02_reliability_closed_form():
    n = 100_000
    details = []
    ok = True
    for p in (Fraction(1, 10), Fraction(3, 10)):
        expect = 1 - p ** 3
        # exact: one cycle of the simulator for every erasure pattern
        pers = one_loop_pers(p)
        with pytest.MonkeyPatch.context() as mp:
            exact = delivery_probabilities(mp, one_cycle_config([1], pers), pers)[1]
        ok &= exact == expect
        # sampled: n cycles of one run.  The sync miss limit is out of reach,
        # because beacon losses on the same link would otherwise desync the
        # robot, and a desynced robot's missed commands break 1 - p^3.
        config = make_remote_config(
            seed=123, duration_s=n * 0.002,
            protocol={"n_channels": 1, "sync": {"miss_limit": 10 * n}},
            channel={"default_per": 0.0, "links": [{"from": 0, "to": 1, "per": float(p)}]})
        sim = Simulation(config)
        sim.trace = count = _CommandCount()
        sim.run()
        ratio = count.applied / count.emitted
        sigma = math.sqrt(expect * (1 - expect) / n)
        ok &= count.emitted == n and abs(ratio - expect) <= 3 * sigma
        details.append(f"p={p}: exact {exact} = 1-p^3 over every erasure pattern; "
                       f"sampled {ratio:.5f} vs {float(expect):.5f} +/- {3 * sigma:.5f} "
                       f"over {count.emitted} cycles")
    report(2, "reliability 1-p^3", ok, "; ".join(details))


# -- 3: flood diversity ---------------------------------------------------------


def test_criterion_03_flood_diversity():
    engine = Engine(seed=7)
    medium = Medium(engine, n_channels=1)
    medium.add_link(0, 2, per=0.5)
    medium.add_link(1, 2, per=0.5)
    frame = CmdFrame(src=0, dst=2, seq=1, left_mms=0, right_mms=0)
    n = 100_000
    delivered = 0
    for _ in range(n):
        slot = medium.begin_slot()
        txs = [medium.make_transmission(s, frame, slot, 0, 0) for s in (0, 1)]
        delivered += medium.deliver_flood(txs, 2).received
    ratio = delivered / n
    sigma = math.sqrt(0.75 * 0.25 / n)
    report(3, "flood diversity", abs(ratio - 0.75) <= 3 * sigma,
           f"two senders per=0.5: {ratio:.5f} vs 0.75 +/- {3 * sigma:.5f}")


# -- 4: kinematics oracle --------------------------------------------------------


def test_criterion_04_kinematics_oracle():
    rng = np.random.default_rng(0)
    track = 0.117
    worst = 0.0
    for _ in range(100):
        v_left, v_right = rng.uniform(-0.3, 0.3, size=2)
        dt = rng.uniform(0.05, 1.0)
        pose = step_kinematics(Pose(0, 0, 0), v_left, v_right, dt, track)
        ox, oy, _ = rk4_unicycle(0, 0, 0, v_left, v_right, dt, track)
        worst = max(worst, math.hypot(pose.x - ox, pose.y - oy))
    report(4, "kinematics vs RK4", worst <= 1e-6,
           f"max position error {worst:.2e} m over 100 random triples")


# -- 5: frame codec ---------------------------------------------------------------


def test_criterion_05_frame_codec():
    count = 0
    ok = True
    for frame in _boundary_frames():
        ok &= decode_frame(encode_frame(frame)) == frame
        count += 1
    rejected = 0
    for bad in (bytes([9] + [0] * 15), bytes(15), bytes(17),
                bytes([1, 0, 1, 0, 0, 0, 0, 0, 0, 0x02] + [0] * 6),
                bytes([0, 0, 1] + [0] * 13)):
        try:
            decode_frame(bad)
        except FrameError:
            rejected += 1
    ok &= rejected == 5
    report(5, "frame codec", ok,
           f"{count} boundary frames round-tripped, {rejected}/5 malformed rejected")


# -- 6: schedule properties --------------------------------------------------------


def _hop_period_config(n_robots):
    """n robots over exactly one hop period (8 cycles of 8 channels).  Every
    controller->robot link is dead and sync never lapses, so every non-gap slot
    carries a frame in every cycle: the beacon, each feedback frame, each
    command and the retx floods of the undelivered commands."""
    cycle_us = (2 * n_robots + 4) * 250 + 500  # sync, FB and CMD per loop, gap, two retx
    return config_from_dict({
        "kind": "remote-control", "seed": 6, "duration_s": 8 * cycle_us / 1e6,
        "nodes": [{"id": 0, "role": "controller"}]
                 + [{"id": r, "role": "robot", "start_pose": [0.0, float(r), 0.0],
                     "path": [[5.0, float(r)]]} for r in range(1, n_robots + 1)],
        "protocol": {"n_channels": 8, "sync": {"miss_limit": 100}},
        "channel": {"default_per": 0.0,
                    "links": [{"from": 0, "to": r, "per": 1.0}
                              for r in range(1, n_robots + 1)]},
        "run_to_completion": False,
    })


def test_criterion_06_schedule_properties():
    ok = True
    for n in range(1, 9):
        result = run_scenario(_hop_period_config(n))
        sched = result.schedule
        ok &= result.cycle == 8
        # conflict freedom: every owned slot has exactly one owner; plants unique
        uplinks = [s for s in sched.slots if s.direction is Direction.UPLINK]
        ok &= len({s.owner for s in uplinks}) == n
        # control-awareness: FB strictly before CMD within the cycle, per plant
        for plant in {s.owner for s in uplinks}:
            fb = [s.position for s in sched.slots
                  if s.direction is Direction.UPLINK and s.plant == plant]
            cmd = [s.position for s in sched.slots
                   if s.direction is Direction.DOWNLINK and s.plant == plant]
            ok &= bool(fb and cmd and max(fb) < min(cmd))
        # hop coverage, read from the run's tx rows: over one period every slot
        # puts a frame on its hop channel in every cycle and so uses every channel
        used = {slot.position: set() for slot in sched.slots}
        for row in result.trace:
            if row[KIND] == "tx":
                used[row[SLOT]].add((row[CYCLE], row[V1]))
        for slot in sched.slots:
            expected = (set() if slot.direction is Direction.GAP else
                        {(c, slot.hop[(c + slot.position) % 8]) for c in range(8)})
            ok &= used[slot.position] == expected
            ok &= slot.direction is Direction.GAP or (
                sorted(channel for _, channel in used[slot.position]) == list(range(8)))
    report(6, "schedule properties", ok,
           "conflict-freedom, FB-before-CMD, hop coverage on the tx rows of one "
           "hop period for 1..8 loops")


# -- 7: closed-loop tracking -------------------------------------------------------


def test_criterion_07_closed_loop_tracking(square_result):
    rms = square_result.metrics["tracking"]["1"]["rms_m"]
    completed = square_result.end_reason == "completed"
    report(7, "square-path tracking", completed and rms < 0.02,
           f"end={square_result.end_reason}, RMS cross-track {rms:.4f} m < 0.02")


# -- 8: platooning ------------------------------------------------------------------


def test_criterion_08_platooning(platoon_result, platoon_config):
    platoon = platoon_result.metrics["platoon"]
    standoff = platoon_config.steering.follower.standoff_m
    rms = platoon.get("follower_rms_vs_leader_m")
    gap_min = platoon.get("gap_min_post_convergence_m")
    completed = platoon_result.end_reason == "completed"
    ok = (completed and rms is not None and rms < 0.04
          and gap_min is not None and gap_min >= standoff - 0.02)
    report(8, "platooning", ok,
           f"end={platoon_result.end_reason}, follower RMS {rms:.4f} m < 0.04, "
           f"min gap {gap_min:.4f} m >= {standoff - 0.02:.2f}")


# -- 9: cycle-time distribution ------------------------------------------------------


def test_criterion_09_cycle_time_distribution(square_result):
    config = config_from_dict({
        "kind": "remote-control", "seed": 99, "duration_s": 21.0,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0, 0, 0],
             "path": [[0.5, 0], [0.5, 0.5], [0, 0.5], [0, 0]]},
        ],
        # loss on the command direction only, so the CDF mass at the three
        # delivery offsets is the pure retransmission mixture; the sync miss
        # limit is raised so beacon losses on the same link cannot desync the
        # robot and distort the count
        "protocol": {"sync": {"miss_limit": 15}},
        "channel": {"default_per": 0.0, "links": [{"from": 0, "to": 1, "per": 0.3}]},
        "run_to_completion": False,
    })
    result = run_scenario(config)
    n = result.cycle
    counts = dict(result.metrics["cycle_time"]["counts"])
    sched = result.schedule
    airtime = 104
    fb = sched.slots[1].offset_us
    offsets = [sched.slots[p].offset_us + airtime - fb for p in (3, 4, 5)]
    ok = n >= 10_000
    details = [f"cycles={n}"]
    for offset, expect in zip(offsets, (0.7, 0.21, 0.063)):
        mass = counts.get(float(offset), 0) / n
        sigma = math.sqrt(expect * (1 - expect) / n)
        ok &= abs(mass - expect) <= 3 * sigma
        details.append(f"{offset}us: {mass:.4f} vs {expect} +/- {3 * sigma:.4f}")
    # per = 0: the latency is one constant value
    lossless = set(TraceView(square_result.trace).latencies[:, 2].tolist())
    ok &= len(lossless) == 1
    details.append(f"lossless latency constant {sorted(lossless)}")
    report(9, "cycle-time mixture", ok, "; ".join(details))


# -- 10: emergency stop -----------------------------------------------------------------


def _estop_config(seed, per, robots, miss_limit=15):
    cycle_len = 2000 if robots == 1 else 2500
    nodes = [{"id": 0, "role": "controller"}]
    links = []
    for i in range(robots):
        rid = i + 1
        nodes.append({"id": rid, "role": "robot",
                      "start_pose": [0.0, float(i), 0.0],
                      "path": [[5.0, float(i)]],
                      "params": {"actuation_rate_limit_mms2": 2000.0}})
        links.append({"from": 0, "to": rid, "per": per})  # command direction only
    return config_from_dict({
        "kind": "remote-control", "seed": seed, "duration_s": 2.0,
        "nodes": nodes,
        "controller": {"cruise_speed_mms": 100.0},
        "protocol": {"sync": {"miss_limit": miss_limit}},
        "channel": {"default_per": 0.0, "links": links},
        "obstacles": [{"segment": [0.1, -0.2, 0.1, 0.2],
                       "appears_at_us": 30 * cycle_len}],
        "run_to_completion": False,
    })


def test_criterion_10_emergency_stop():
    events = 1000
    # (a) perfect channel, two robots: stationary within 2 cycles + slew, always
    cycle_len = 2500
    slew_us = int(100.0 / 2000.0 * 1e6)
    bound = 2 * cycle_len + slew_us
    within = 0
    for seed in range(events):
        result = run_scenario(_estop_config(seed, per=0.0, robots=2))
        estop = result.metrics["estop"]
        latencies = [estop["per_robot"][r]["latency_us"] for r in ("1", "2")]
        if all(lat is not None and lat <= bound for lat in latencies):
            within += 1
    ok_a = within == events

    # (b) per=0.3 on the command links, single robot: the rate of stops needing
    # an extra cycle matches the all-attempts-lost probability p^(R+1)
    latencies = []
    for seed in range(events):
        result = run_scenario(_estop_config(seed, per=0.3, robots=1))
        latencies.append(result.metrics["estop"]["per_robot"]["1"]["latency_us"])
    baseline = min(latencies)
    exceed = sum(1 for lat in latencies if lat > baseline + 1000) / events
    expect = 0.3 ** 3
    sigma = math.sqrt(expect * (1 - expect) / events)
    ok_b = abs(exceed - expect) <= 3 * sigma
    report(10, "emergency stop", ok_a and ok_b,
           f"per=0: {within}/{events} within {bound} us; "
           f"per=0.3: exceedance {exceed:.4f} vs {expect:.4f} +/- {3 * sigma:.4f}")


# -- 11: desync safety ---------------------------------------------------------------


def test_criterion_11_desync_safety():
    cycle_len = 2000
    config = config_from_dict({
        "kind": "remote-control", "seed": 31, "duration_s": 0.3,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0, 0, 0], "path": [[5.0, 0.0]]},
        ],
        "channel": {"default_per": 0.0,
                    "blackouts": [{"node": 1, "from_us": 20 * cycle_len,
                                   "until_us": 40 * cycle_len}]},
        "run_to_completion": False,
    })
    result = run_scenario(config)
    desync_at = [int(r[TIME]) for r in result.trace
                 if r[KIND] == "desync" and r[NODE] == 1]
    resync_at = [int(r[TIME]) for r in result.trace
                 if r[KIND] == "sync" and r[NODE] == 1 and int(r[TIME]) > 20 * cycle_len]
    ok = bool(desync_at and resync_at)
    if ok:
        # desync after exactly miss_limit missed beacons
        ok &= desync_at[0] == (20 + config.protocol.sync.miss_limit - 1) * cycle_len
        ok &= resync_at[0] == 40 * cycle_len
        tx_times = [int(r[TIME]) for r in result.trace
                    if r[KIND] == "tx" and r[NODE] == 1]
        silent = [t for t in tx_times if desync_at[0] <= t < resync_at[0]]
        resumed = [t for t in tx_times if t >= resync_at[0]]
        ok &= not silent and bool(resumed)
    report(11, "desync safety", ok,
           f"desync at {desync_at[:1]}, resync at {resync_at[:1]}, "
           f"zero transmissions in between")
