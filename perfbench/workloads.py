"""The benchmark's workloads: configs generated from a workload seed, plus the
pinned output digests that gate every timing.

Every random choice in a generated config is the bundled value plus the
workload seed, so workload seed 0 (DEFAULT_SEED) reproduces the bundled
scenarios exactly and the outputs must match the pinned digests.  Any other
seed is checked by replay instead: every execution of a run must write the
same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# Full sha256 of every output file at DEFAULT_SEED, as the CLI writes them.
# square and platoon are the golden digests whose prefixes ROADMAP records.
PINNED = {
    "square": {
        "trace.csv": "0e01381b5410a2be702239a1f8a656e4231d9b415e3b73bc93c350e692454b9a",
        "metrics.json": "645c9270695336f5af824e2c45f215a694ce78baf72f26d462786a55919bf43e",
    },
    "platoon": {
        "trace.csv": "9aa9e7a858c0fff0dc5fb1c54ef680c26bba58a9d7c080640be4711ab3618074",
        "metrics.json": "350afa952cb2c1fa4a75c2c11094918b3e3b37cfa3be474c2b4a49a19d469834",
    },
    "fleet16": {
        "trace.csv": "26e3aaca7c705d644ac3f73bfa8acf9ed19942fcd58a6a9c11a206d7e0307de2",
        "metrics.json": "52266935eb66e469c0593c8080cf1edc75a8e87c2ec62e43acfac30947a8e4c1",
    },
    "sweep": {
        "sweep.csv": "e662ba449f3a3501497bb1b4e9f50811a2d709f444bba5094d3adb3f4cc90930",
    },
}

FLEET_ROBOTS = 16
FLEET_DURATION_S = 2.0    # 210 cycles of 9.5 ms, short enough for ~14 executions a run
FLEET_BASE_SEED = 16
SWEEP_DURATION_S = 2.0    # 1,000 cycles of 2 ms per grid point


@dataclass(frozen=True)
class Inputs:
    """What the program receives for one execution: a config and, for a sweep, a grid."""

    config: dict
    grid: dict | None
    outputs: tuple[str, ...]    # files the CLI writes, in digest order
    runs: int                   # simulations one execution performs
    end_reason: str             # the end reason every one of them must report


def _load(scenarios: Path, name: str) -> dict:
    return json.loads((scenarios / name).read_text(encoding="utf-8"))


def _square(scenarios: Path, seed: int) -> dict:
    raw = _load(scenarios, "remote_control_square.json")
    raw["seed"] += seed
    return raw


def _fleet(scenarios: Path, seed: int) -> dict:
    """16 robots on disjoint 0.5 m squares, 1 m apart, under 10% loss.

    Every fourth robot's command link runs a two-state burst chain, so retx
    floods see both independent and correlated losses.
    """
    raw = _square(scenarios, 0)
    path = raw["nodes"][1]["path"]
    nodes = [{"id": 0, "role": "controller"}]
    links = []
    for robot in range(1, FLEET_ROBOTS + 1):
        x0 = float(robot - 1)
        nodes.append({"id": robot, "role": "robot", "start_pose": [x0, 0.0, 0.0],
                      "path": [[x0 + x, y] for x, y in path]})
        if robot % 4 == 0:
            links.append({"from": 0, "to": robot,
                          "burst": {"p_good_to_bad": 0.05, "p_bad_to_good": 0.3,
                                    "per_good": 0.1, "per_bad": 0.8}})
    raw.update(seed=FLEET_BASE_SEED + seed, duration_s=FLEET_DURATION_S, nodes=nodes,
               channel={"default_per": 0.1, "links": links})
    return raw


def make_inputs(workload: str, seed: int, scenarios: Path) -> Inputs:
    """Generate the program's inputs for `workload` at workload seed `seed`."""
    if workload == "square":
        return Inputs(_square(scenarios, seed), None, ("trace.csv", "metrics.json"), 1,
                      "completed")
    if workload == "platoon":
        raw = _load(scenarios, "leader_follower_l.json")
        raw["seed"] += seed
        return Inputs(raw, None, ("trace.csv", "metrics.json"), 1, "completed")
    if workload == "fleet16":
        return Inputs(_fleet(scenarios, seed), None, ("trace.csv", "metrics.json"), 1,
                      "timeout")
    if workload == "sweep":
        template = _square(scenarios, seed)
        template["duration_s"] = SWEEP_DURATION_S
        grid = _load(scenarios, "sweep_per_grid.json")
        grid["seeds"] = [s + seed for s in grid["seeds"]]
        runs = len(grid["seeds"])
        for values in grid["parameters"].values():
            runs *= len(values)
        return Inputs(template, grid, ("sweep.csv",), runs, "timeout")
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(PINNED)
