"""Branch corpus: short runs that reach branches no golden case reaches.

Each case is one robot, or a leader and its follower, driven for 0.5 s of
virtual time at PER 0, changed in one or two places: a boundary value that the
declared config ranges must keep accepting, a steering setting, a path, an
obstacle (with a blackout, parallel to the heading, or on its line), where the
follower starts, a link that loses every frame, or a chain of two relays that
carries every frame between the controller and its robot.  A case is pinned by the
sha256 of `trace.csv` and `metrics.json` as `wctrlsim run` writes them, and
checked by the trace rows that show its branch ran.
"""

import copy
import hashlib
import io
import json
import math
from contextlib import redirect_stdout

from wctrlsim.cli import main
from wctrlsim.controller import SteeringParams, wheel_speeds
from wctrlsim.robot import RobotParams
from wctrlsim.trace import COLUMNS, load_trace

TIME, CYCLE, KIND, NODE, SLOT, FRAME, DST, SEQ, CAUSE, V1, V2, V3 = (
    COLUMNS.index(c) for c in ("time_us", "cycle", "kind", "node", "slot", "frame", "dst", "seq",
                               "cause", "v1", "v2", "v3"))
DEAD_CHANNEL = 3
LATCH_CYCLE_US = 200_000  # the obstacle appears as this cycle starts; cycles are 2,000 us
TWIN = [0.01, 0.0]  # within the waypoint tolerance of the start, and on the robot's way out
PARALLEL_WALL = [0.0, -0.2, 2.0, -0.2]
LAST_RELAY = 3
# controller 0 - relay 2 - relay 3 - robot 1: every other link loses every frame
RELAY_CHAIN_DEAD = [{"from": a, "to": b, "per": 1.0}
                    for x, y in ((0, 1), (0, LAST_RELAY), (1, 2)) for a, b in ((x, y), (y, x))]
ON_LINE_AHEAD = [0.5, 0.0, 1.0, 0.0]

BASE = {
    "kind": "remote-control",
    "seed": 3,
    "duration_s": 0.5,
    "nodes": [
        {"id": 0, "role": "controller"},
        {"id": 1, "role": "robot", "start_pose": [0.0, 0.0, 0.0], "path": [[2.0, 0.5]]},
    ],
    "channel": {"default_per": 0.0},
    "run_to_completion": False,
}


def _robot_path(path):
    return {"nodes": [{"id": 0, "role": "controller"},
                      {"id": 1, "role": "robot", "start_pose": [0.0, 0.0, 0.0], "path": path}]}


# name -> (change to BASE, sha256 of trace.csv, sha256 of metrics.json)
CASES = {
    "one-hop-channel": (
        {"protocol": {"n_channels": 1}},
        "2a8cfac5f28e7057e31fc8a9316f5c217ee3312c4eca4ee35ae22e5e8a26f2c9",
        "9a94d6f723237fed703465ab284a12655e7c5a88c47a193c137601dc673f738e"),
    "no-retx-slots": (
        {"protocol": {"retx_slots": 0}},
        "0857bc9d19b117b4704a2f6ad6b26035c3b6e4e79de0d7334c1accb90438b3ea",
        "3935d0894a52c7e066f42393086ea0f1ee1f0cf60ad37d3657c6179068df785b"),
    "a-dead-channel": (
        {"channel": {"default_per": 0.0, "links": [
            {"from": 0, "to": 1,
             "per_by_channel": [1.0 if c == DEAD_CHANNEL else 0.0 for c in range(8)]}]}},
        "3a369862b2f1d4315037a7d3f664236e6a3394552df883658bf03b1c6d0574b2",
        "1a37ec68d1c72866a4c2a6b2236f5ecded5d1e24acd879488090b31ab3474a02"),
    # a target 45 degrees off the heading, where the arc and parabola curves part
    "arc-curve": (
        {"controller": {"curve_mode": "arc"}, **_robot_path([[0.5, 0.5]])},
        "ad4951f8705135b6048a72ad856869394dbcacce95c897e5d9ce5844b0d3c1fc",
        "e5dfae4ed76bd338c7cf6371a93ef50afa5ff5ae5c7b7fc1e34399f535ad383a"),
    # a zero-length reference segment in the cross-track search
    "repeated-point": (
        _robot_path([TWIN, TWIN, [2.0, 0.5]]),
        "769c6b7b652852c61f119ec939040a4512af7b6f0e42ba2b090752008168e51b",
        "f23fc11f06a875b52d854030cfd426e53b88a3d73debb1ece13f9f14a90e44d0"),
    "clamped-cruise": (
        {"controller": {"cruise_speed_mms": 1000.0}},
        "965e770d0df6a7007d252676511b8fc3a9c8195870e212acd4d4584a46e30585",
        "ef05a7b0eb6fe9291b3e6941573805e1fbe2ccfd930b482a2eced6408097faee"),
    # the robot is deaf for the latch cycle's command slot, so the stop
    # broadcast in the first retx slot is what latches it
    "stop-broadcast-latch": (
        {"obstacles": [{"segment": [0.15, -1.0, 0.15, 1.0], "appears_at_us": LATCH_CYCLE_US}],
         "channel": {"default_per": 0.0, "blackouts": [
             {"node": 1, "from_us": LATCH_CYCLE_US + 1250, "until_us": LATCH_CYCLE_US + 1500}]}},
        "c10d40d9c94ce6d4b7ceda506845587c86ff0b96fa33aa7b260dec6f1e292dc7",
        "90176c9c8c19b93eee77103d17f16283e54a44766e6b1a6780cd41b9b020f123"),
    # a wall 0.2 m to the right of the start, along the starting heading: the
    # first ray runs parallel to it, and the robot turns left, away from it
    "parallel-wall": (
        {"obstacles": [{"segment": PARALLEL_WALL}]},
        "9bd15926c4029fe081fb0146d54f532221d71836c6be610f11c5d79b0e6f3953",
        "7da6a2861280aab7c82af0400d7d4f1c900cdf79120a3a4e0389e6ae6784e1f7"),
    # the follower starts 0.1 m behind the leader, well inside the 0.25 m standoff
    "follower-inside-standoff": (
        {"kind": "leader-follower",
         "nodes": [{"id": 1, "role": "leader", "start_pose": [0.0, 0.0, 0.0], "path": [[2.0, 0.0]]},
                   {"id": 2, "role": "follower", "start_pose": [-0.1, 0.0, 0.0]}]},
        "84dd748ca3669fd928fdbcfcb55edb13053e4f5b6315e4ae800a7f98e15a404a",
        "91ce1c8fa05f7f35df163d88c17ce22a6feb19fdb23969d31743e8ca8787d3c1"),
    # two walls on the starting heading line, one ahead and one behind: the first
    # rays run along both, and read the nearer end of the one ahead
    "walls-on-the-heading-line": (
        {"obstacles": [{"segment": ON_LINE_AHEAD}, {"segment": [-1.0, 0.0, -0.5, 0.0]}]},
        "86fd3970a2d815ee4849ba8292d6232c3dc4a63b356e7751e15dbead1a7a8f48",
        "33dd6464f56fbde5d6cbe9cafe9aaeeb3aeabc10637ae3daf5d9ef20b72040d0"),
    # every feedback frame is lost: commands still flow, but none closes a loop,
    # so the run has no cycle-time sample
    "dead-uplink": (
        {"channel": {"default_per": 0.0, "links": [{"from": 1, "to": 0, "per": 1.0}]}},
        "8f50027704046162c1706b9fb84ad54f1bf26aa42348f497efde54c188b38978",
        "cf885caf027dad22c245b86a8552fe06dc0d2eb8339bba2fac39e59e7512f33d"),
    # a beacon reaches the robot in the third wave, and each frame in the third of four
    # retx slots (a command first, its robot's feedback after it); slots fit three waves
    "relay-chain": (
        {"protocol": {"slot_duration_us": 400, "retx_slots": 4, "sync": {"max_waves": 3}},
         "nodes": [*_robot_path([[2.0, 0.5]])["nodes"], {"id": 2, "role": "relay"},
                   {"id": LAST_RELAY, "role": "relay"}],
         "channel": {"default_per": 0.0, "links": RELAY_CHAIN_DEAD}},
        "b1f697b6289584bcced3686cb3760c7a1554bb16177056e9cc86c12c4d240060",
        "53d7814322335f8dc3cf5e62fec795c24efc0c88566a8c1364e460f1f4d34770"),
}


def _run(name, tmp_path):
    change, trace_digest, metrics_digest = CASES[name]
    raw = {**copy.deepcopy(BASE), **change}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    with redirect_stdout(io.StringIO()):
        assert main(["run", str(config), "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("trace.csv", "metrics.json"))
    assert digests == (trace_digest, metrics_digest)
    rows = load_trace(out / "trace.csv")
    assert rows.to_csv() == (out / "trace.csv").read_text(encoding="utf-8")  # a round trip
    return rows


def test_one_hop_channel_puts_every_frame_on_channel_0(tmp_path):
    rows = _run("one-hop-channel", tmp_path)
    tx = [r for r in rows if r[KIND] == "tx"]
    assert tx and all(r[V1] == 0 for r in tx)


def test_no_retx_slots_end_the_cycle_at_the_last_downlink_slot(tmp_path):
    rows = _run("no-retx-slots", tmp_path)
    n_loops = 1
    (meta,) = [r for r in rows if r[KIND] == "meta"]
    assert meta[V3] == 2 + 2 * n_loops  # sync, uplinks, gap, downlinks
    last_downlink = 1 + 2 * n_loops
    tx = [r for r in rows if r[KIND] == "tx"]
    assert tx and max(r[SLOT] for r in tx) == last_downlink


def test_a_dead_channel_erases_every_frame_of_its_link(tmp_path):
    rows = _run("a-dead-channel", tmp_path)
    on_dead = [r for r in rows
               if r[KIND] == "rx" and r[NODE] == 1 and r[DST] == 1 and r[V1] == DEAD_CHANNEL]
    assert on_dead and all(r[CAUSE] == "erased" for r in on_dead)


def test_the_arc_curve_steers_through_its_own_law(tmp_path):
    rows = _run("arc-curve", tmp_path)
    first = next(r for r in rows if r[KIND] == "cmd-emit")
    speeds = {mode: tuple(round(v) for v in wheel_speeds(0.5, 0.5, SteeringParams(curve_mode=mode),
                                                        RobotParams()))
              for mode in ("arc", "parabola")}
    assert (first[V1], first[V2]) == speeds["arc"] != speeds["parabola"]


def test_a_repeated_point_is_passed_with_its_twin(tmp_path):
    rows = _run("repeated-point", tmp_path)
    refs = [[r[V1], r[V2]] for r in rows if r[KIND] == "ref-point"]
    assert refs[:2] == [TWIN, TWIN]
    first = next(r for r in rows if r[KIND] == "waypoint")
    assert first[V1] == 2  # both copies in one cycle


def test_a_cruise_speed_beyond_the_wheel_limit_is_scaled_to_it(tmp_path):
    rows = _run("clamped-cruise", tmp_path)
    limit = RobotParams().max_wheel_speed_mms
    emitted = [(r[V1], r[V2]) for r in rows if r[KIND] == "cmd-emit"]
    assert emitted and all(max(abs(left), abs(right)) == limit for left, right in emitted)


def test_a_stop_broadcast_latches_a_plant_whose_stop_command_was_erased(tmp_path):
    rows = _run("stop-broadcast-latch", tmp_path)
    (trip,) = [r for r in rows if r[KIND] == "estop" and r[CAUSE] == "controller-latch"]
    cycle = trip[CYCLE]
    (stop_cmd,) = [r for r in rows if r[KIND] == "rx" and r[CYCLE] == cycle
                   and r[FRAME] == "CMD" and r[NODE] == 1]
    assert stop_cmd[CAUSE] == "erased"
    (latch,) = [r for r in rows if r[KIND] == "estop" and r[CAUSE] == "plant-latch"]
    (heard,) = [r for r in rows if r[KIND] == "rx" and r[CYCLE] == cycle
                and r[FRAME] == "ESTOP" and r[NODE] == 1]
    assert heard[CAUSE] == "delivered" and heard[SLOT] == 4  # the first retx slot
    assert latch[CYCLE] == cycle and latch[NODE] == 1 and latch[TIME] > heard[TIME]
    assert not [r for r in rows if r[KIND] == "cmd-apply" and r[SEQ] == stop_cmd[SEQ]]


def test_a_follower_inside_its_standoff_is_held(tmp_path):
    rows = _run("follower-inside-standoff", tmp_path)
    emitted = {node: [(r[V1], r[V2]) for r in rows if r[KIND] == "cmd-emit" and r[DST] == node]
               for node in (1, 2)}
    assert emitted[1] and all(speeds != (0, 0) for speeds in emitted[1])
    assert emitted[2] and all(speeds == (0, 0) for speeds in emitted[2])
    poses = [r for r in rows if r[KIND] == "pose"]
    leader = {r[CYCLE]: r for r in poses if r[NODE] == 1}
    follower = {r[CYCLE]: r for r in poses if r[NODE] == 2}
    gaps = [math.dist(leader[c][V1:V3], follower[c][V1:V3]) for c in leader]
    assert max(gaps) < 0.25  # FollowerParams().standoff_m


def test_a_wall_parallel_to_the_heading_gives_no_reading(tmp_path):
    rows = _run("parallel-wall", tmp_path)
    samples = [r[V3] for r in rows if r[KIND] == "fb-sample"]
    assert samples and set(samples) == {-1}  # -1: no reading
    poses = [r for r in rows if r[KIND] == "pose"]
    assert poses and min(r[V2] for r in poses) > PARALLEL_WALL[1]  # never reached


def test_a_wall_on_the_heading_line_reads_its_nearer_end(tmp_path):
    rows = _run("walls-on-the-heading-line", tmp_path)
    first = next(r for r in rows if r[KIND] == "fb-sample")
    assert first[V3] == round(ON_LINE_AHEAD[0] * 1000)  # mm; the wall behind gives none


def test_a_dead_uplink_leaves_every_command_uninformed(tmp_path):
    rows = _run("dead-uplink", tmp_path)
    fb = [r for r in rows if r[KIND] == "rx" and r[FRAME] == "FB" and r[NODE] == 0]
    assert fb and all(r[CAUSE] == "erased" for r in fb)
    informing = [r[V3] for r in rows if r[KIND] == "cmd-emit"]
    assert informing and set(informing) == {-1}  # -1: no feedback yet
    assert [r for r in rows if r[KIND] == "cmd-apply" and r[CAUSE] == "applied"]


def test_a_relay_chain_carries_the_beacon_and_every_command_three_hops(tmp_path):
    rows = _run("relay-chain", tmp_path)
    waves = [r[V2] for r in rows if r[KIND] == "sync" and r[NODE] == 1]
    assert waves and set(waves) == {3}  # the robot hears only the third wave
    last_hop = {(r[CYCLE], r[SLOT]) for r in rows
                if r[KIND] == "tx" and r[FRAME] == "CMD" and r[NODE] == LAST_RELAY}
    applied = [r for r in rows if r[KIND] == "cmd-apply" and r[CAUSE] == "applied"]
    assert applied and all((r[CYCLE], r[SLOT]) in last_hop for r in applied)
