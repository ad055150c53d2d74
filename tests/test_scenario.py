import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wctrlsim.scenario import (ConfigError, apply_overrides, config_from_dict,
                               load_config)
from wctrlsim.simulation import Simulation, run_scenario

README = Path(__file__).parent.parent / "README.md"
END_REASONS = ("completed", "estopped", "timeout")


def minimal_remote(**extra):
    raw = {
        "kind": "remote-control",
        "seed": 1,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0, 0, 0], "path": [[1.0, 0.0]]},
        ],
    }
    raw.update(extra)
    return raw


def test_bundled_configs_load(square_config, platoon_config):
    assert square_config.kind == "remote-control"
    assert square_config.controller_node().node_id == 0
    assert [r.node_id for r in square_config.robots()] == [1]
    assert platoon_config.kind == "leader-follower"
    assert platoon_config.controller_node().node_id == 1  # hosted on the leader
    # one radio loop, to the follower: the leader's own loop closes locally
    schedule = Simulation(platoon_config).schedule
    assert [(s.owner, s.plant) for s in schedule.slots if s.plant is not None] == [(2, 2), (1, 2)]


def test_minimal_config_valid():
    config = config_from_dict(minimal_remote())
    assert config.protocol.slot_duration_us == 250
    assert config.steering.cruise_speed_mms == 150.0


def test_duplicate_node_ids_rejected():
    raw = minimal_remote()
    raw["nodes"].append({"id": 1, "role": "robot", "start_pose": [0, 0, 0],
                         "path": [[1, 0]]})
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_unknown_role_rejected():
    raw = minimal_remote()
    raw["nodes"][0]["role"] = "overlord"
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(minimal_remote(kind="teleport"))


def test_robot_without_path_rejected():
    raw = minimal_remote()
    del raw["nodes"][1]["path"]
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_link_referencing_unknown_node_rejected():
    raw = minimal_remote(channel={"links": [{"from": 0, "to": 9, "per": 0.1}]})
    with pytest.raises(ConfigError, match="unknown node"):
        config_from_dict(raw)


def test_self_link_rejected():
    raw = minimal_remote(channel={"links": [{"from": 1, "to": 1, "per": 1.0}]})
    with pytest.raises(ConfigError, match="link 1->1"):
        config_from_dict(raw)


def test_a_directed_link_given_twice_is_rejected():
    # the medium would keep only the last entry; the reverse direction is its own link
    links = [{"from": 0, "to": 1, "per": 0.1}, {"from": 1, "to": 0, "per": 0.1}]
    config_from_dict(minimal_remote(channel={"links": links}))
    raw = minimal_remote(channel={"links": [*links, {"from": 0, "to": 1, "per": 0.5}]})
    with pytest.raises(ConfigError, match="link 0->1 is given twice"):
        config_from_dict(raw)


@pytest.mark.parametrize("link", [
    {"per": 0.1, "per_by_channel": [0.2] * 8},
    {"per": 0.1, "burst": {"p_good_to_bad": 0.1, "p_bad_to_good": 0.1, "per_good": 0.0,
                           "per_bad": 1.0}},
    {"per_by_channel": [0.2] * 8, "burst": {"p_good_to_bad": 0.1, "p_bad_to_good": 0.1,
                                            "per_good": 0.0, "per_bad": 1.0}},
])
def test_a_link_with_two_erasure_models_is_rejected(link):
    # a run would read only one of them: per_by_channel over per, burst over both
    raw = minimal_remote(channel={"links": [{"from": 0, "to": 1, **link}]})
    with pytest.raises(ConfigError, match="link 0->1: set at most one of per, per_by_channel"):
        config_from_dict(raw)


@pytest.mark.parametrize("role", ["controller", "relay"])
@pytest.mark.parametrize("key, value", [("start_pose", [0, 0, 0]), ("path", [[1, 0]])])
def test_a_pose_or_path_on_a_node_that_is_no_robot_is_rejected(role, key, value):
    # a run reads start poses and paths of robots only
    raw = minimal_remote()
    raw["nodes"].append({"id": 2, "role": "relay"})
    node = raw["nodes"][0 if role == "controller" else 2]
    node[key] = value
    with pytest.raises(ConfigError, match=f"node {node['id']}: a {role} takes no start_pose"):
        config_from_dict(raw)


def test_blackout_referencing_unknown_node_rejected():
    raw = minimal_remote(channel={"blackouts": [{"node": 9, "from_us": 0, "until_us": 10}]})
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_bad_probability_rejected():
    raw = minimal_remote(channel={"default_per": 1.5})
    with pytest.raises(ConfigError):
        config_from_dict(raw)
    raw = minimal_remote(channel={"links": [{"from": 0, "to": 1, "per": -0.2}]})
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_leader_follower_requires_exactly_two_robots():
    raw = {
        "kind": "leader-follower",
        "seed": 1,
        "nodes": [
            {"id": 1, "role": "leader", "start_pose": [0, 0, 0], "path": [[1, 0]]},
        ],
    }
    with pytest.raises(ConfigError):
        config_from_dict(raw)
    raw["nodes"].append({"id": 2, "role": "follower", "start_pose": [-0.3, 0, 0]})
    config_from_dict(raw)  # now valid
    raw["nodes"].append({"id": 3, "role": "follower", "start_pose": [-0.6, 0, 0]})
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_remote_control_rejects_platoon_roles():
    raw = minimal_remote()
    raw["nodes"][1]["role"] = "follower"
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_negative_duration_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(minimal_remote(duration_s=-1.0))


def test_per_by_channel_length_must_match():
    raw = minimal_remote(channel={"links": [{"from": 0, "to": 1,
                                             "per_by_channel": [0.1, 0.2]}]})
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_apply_overrides_dotted_paths():
    raw = minimal_remote()
    patched = apply_overrides(raw, {"channel.default_per": 0.3, "seed": 9})
    assert patched["channel"]["default_per"] == 0.3
    assert patched["seed"] == 9
    assert raw.get("channel") is None or "default_per" not in raw.get("channel", {})


def test_digest_tracks_content():
    a = config_from_dict(minimal_remote())
    b = config_from_dict(minimal_remote())
    c = config_from_dict(minimal_remote(seed=2))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_a_replaced_config_reports_the_digest_of_its_own_content():
    config = config_from_dict(minimal_remote())
    short = dataclasses.replace(config, duration_s=0.01)
    reseeded = dataclasses.replace(short, seed=7)
    assert short.raw is None  # the JSON document describes the original only
    assert len({config.digest(), short.digest(), reseeded.digest()}) == 3
    assert dataclasses.replace(reseeded).digest() == reseeded.digest()
    assert run_scenario(reseeded).metrics["config_digest"] == reseeded.digest()


@pytest.mark.parametrize("text", [b"{not json", b'{"seed": "\xff"}'])  # the second: not UTF-8
def test_load_config_rejects_bad_json(text, tmp_path):
    path = tmp_path / "broken.json"
    path.write_bytes(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not valid JSON"):
        load_config(path)


def test_obstacle_parsing():
    raw = minimal_remote(obstacles=[{"segment": [0.5, -0.1, 0.5, 0.1],
                                     "appears_at_us": 1000}])
    config = config_from_dict(raw)
    assert config.obstacles[0].appears_at_us == 1000
    assert config.obstacles[0].segment.x1 == 0.5
    with pytest.raises(ConfigError):
        config_from_dict(minimal_remote(obstacles=[{"segment": [1, 2, 3]}]))


# (key, values inside its valid range, values outside it).  A slow PHY rate can
# also make an in-range config fail: its frames overrun the slot.
PROTOCOL_RANGES = [
    ("slot_duration_us", st.integers(250, 600), st.integers(-10, 0)),
    ("compute_gap_us", st.integers(0, 600), st.integers(-10, -1)),
    ("retx_slots", st.integers(0, 4), st.just(-1)),
    ("n_channels", st.integers(1, 16), st.just(0)),
    ("watchdog_cycles", st.integers(1, 12), st.just(0)),
    ("phy_overhead_bytes", st.integers(0, 40), st.integers(-40, -1)),
    ("phy_rate_mbps", st.floats(1.0, 8.0), st.just(0.0) | st.floats(-1.0, 0.01)),
]
SYNC_RANGES = [
    ("jitter_us", st.floats(0.0, 200.0), st.floats(-5.0, -0.1)),
    ("max_waves", st.integers(1, 3), st.just(0)),
    ("miss_limit", st.integers(1, 4), st.just(0)),
]


def _values(draw, ranges):
    """One value per key; at most one of them drawn from outside its range."""
    broken = draw(st.sets(st.sampled_from([key for key, _, _ in ranges]), max_size=1))
    return {key: draw(outside if key in broken else inside) for key, inside, outside in ranges}


@st.composite
def remote_configs(draw):
    """Short remote-control configs with 1-4 robots and drawn protocol and PHY values."""
    robots = draw(st.integers(1, 4))
    nodes = [{"id": 0, "role": "controller"}]
    for i in range(1, robots + 1):
        nodes.append({"id": i, "role": "robot", "start_pose": [0.0, 0.5 * i, 0.0],
                      "path": [[draw(st.floats(-1.0, 1.0)), 0.5 * i]]})
    return {
        "kind": "remote-control",
        "seed": draw(st.integers(0, 2**32)),
        "duration_s": draw(st.floats(0.001, 0.05)),
        "nodes": nodes,
        "protocol": {**_values(draw, PROTOCOL_RANGES), "sync": _values(draw, SYNC_RANGES)},
        "channel": {"default_per": draw(st.floats(0.0, 1.0))},
    }


@settings(max_examples=50, deadline=None)
@given(remote_configs())
def test_a_config_that_validates_runs_to_an_end_reason(raw):
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    assert run_scenario(config).end_reason in END_REASONS


def test_readme_config_example_is_valid():
    block = re.search(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    raw = json.loads(re.sub(r"\s*//.*", "", block))
    raw["duration_s"] = 0.1
    assert run_scenario(config_from_dict(raw)).end_reason in END_REASONS
