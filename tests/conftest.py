import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # tests/oracles.py

from wctrlsim.scenario import config_from_dict, load_config
from wctrlsim.simulation import run_scenario

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_remote_config(**overrides):
    """One controller driving one robot on a long straight path; knobs via overrides."""
    raw = {
        "kind": "remote-control",
        "seed": 1,
        "duration_s": 5.0,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0.0, 0.0, 0.0],
             "path": [[5.0, 0.0]]},
        ],
        "channel": {"default_per": 0.0},
        "run_to_completion": False,
    }
    raw.update(overrides)
    return config_from_dict(raw)


def lossy_raw():
    """Three robots over lossy links: a burst link, a blackout, an obstacle that
    trips the emergency stop.  Exercises the erased, desynced-listener, flood,
    sync-miss, desync and estop rows that the PER-0 bundled scenarios never write."""
    return {
        "kind": "remote-control",
        "seed": 5,
        "duration_s": 1.5,
        "nodes": [{"id": 0, "role": "controller"}] + [
            {"id": r, "role": "robot", "start_pose": [0.0, 0.5 * r, 0.0],
             "path": [[2.0, 0.5 * r]]}
            for r in (1, 2, 3)],
        "channel": {
            "default_per": 0.3,
            "links": [{"from": 0, "to": 3,
                       "burst": {"p_good_to_bad": 0.05, "p_bad_to_good": 0.3,
                                 "per_good": 0.1, "per_bad": 0.8}}],
            "blackouts": [{"node": 1, "from_us": 100_000, "until_us": 160_000}],
        },
        "obstacles": [{"segment": [0.3, 0.3, 0.3, 1.7], "appears_at_us": 900_000}],
        "run_to_completion": False,
    }


@pytest.fixture(scope="session")
def lossy_result():
    return run_scenario(config_from_dict(lossy_raw()))


def fleet_raw():
    """Eight robots on disjoint 0.5 m squares, 1 m apart, under 10% loss, with a
    burst chain on every fourth command link.  Exercises the many-holder retx
    floods and burst-chain draws that the smaller cases barely reach."""
    raw = json.loads((SCENARIO_DIR / "remote_control_square.json").read_text(encoding="utf-8"))
    path = raw["nodes"][1]["path"]
    nodes = [{"id": 0, "role": "controller"}]
    links = []
    for robot in range(1, 9):
        x0 = float(robot - 1)
        nodes.append({"id": robot, "role": "robot", "start_pose": [x0, 0.0, 0.0],
                      "path": [[x0 + x, y] for x, y in path]})
        if robot % 4 == 0:
            links.append({"from": 0, "to": robot,
                          "burst": {"p_good_to_bad": 0.05, "p_bad_to_good": 0.3,
                                    "per_good": 0.1, "per_bad": 0.8}})
    raw.update(seed=8, duration_s=1.0, nodes=nodes,
               channel={"default_per": 0.1, "links": links})
    return raw


@pytest.fixture(scope="session")
def fleet_result():
    return run_scenario(config_from_dict(fleet_raw()))


@pytest.fixture(scope="session")
def square_config():
    return load_config(SCENARIO_DIR / "remote_control_square.json")


@pytest.fixture(scope="session")
def square_result(square_config):
    return run_scenario(square_config)


@pytest.fixture(scope="session")
def platoon_config():
    return load_config(SCENARIO_DIR / "leader_follower_l.json")


@pytest.fixture(scope="session")
def platoon_result(platoon_config):
    return run_scenario(platoon_config)
