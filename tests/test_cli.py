import csv
import json
from pathlib import Path

import pytest

from wctrlsim.cli import main
from wctrlsim.scenario import config_from_dict
from wctrlsim.simulation import run_scenario

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


@pytest.fixture()
def tiny_config(tmp_path):
    raw = {
        "kind": "remote-control",
        "seed": 11,
        "duration_s": 0.5,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0, 0, 0], "path": [[5.0, 0.0]]},
        ],
        "channel": {"default_per": 0.1},
        "run_to_completion": False,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_run_writes_trace_and_metrics(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["kind"] == "remote-control"
    assert 0.0 <= metrics["delivery"]["cmd"]["ratio"] <= 1.0
    assert "completed" not in capsys.readouterr().err


def test_run_outputs_are_deterministic(tiny_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(tiny_config), "--out", str(out_a)]) == 0
    assert main(["run", str(tiny_config), "--out", str(out_b)]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()


def test_seed_override_changes_output(tiny_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", str(tiny_config), "--out", str(out_a)])
    main(["run", str(tiny_config), "--out", str(out_b), "--seed", "999"])
    assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()


def _square_with(patch):
    raw = json.loads((SCENARIO_DIR / "remote_control_square.json").read_text())
    patch(raw)
    return raw


def _fast_wheels(raw):
    # commands are clipped to max_wheel_speed_mms, which must fit the CMD frame's i16
    raw["nodes"][1]["params"] = {"max_wheel_speed_mms": 40000}
    raw["nodes"][1]["path"] = [[100, 0]]
    raw["controller"]["cruise_speed_mms"] = 40000
    raw["duration_s"] = 1


# name -> (config, text the single error line must contain: the path and the fault)
BAD_CONFIGS = {
    "missing-robot": ({"kind": "remote-control", "seed": 1,
                       "nodes": [{"id": 0, "role": "controller"}]},
                      "remote-control needs at least one robot"),
    "negative-cruise-speed": (_square_with(
        lambda raw: raw["controller"].update(cruise_speed_mms=-1)),
        "controller.cruise_speed_mms: must be > 0, got -1.0"),
    "unknown-curve-mode": (_square_with(lambda raw: raw["controller"].update(curve_mode="arcs")),
                           "controller.curve_mode: unknown curve mode 'arcs'"),
    "non-numeric-retx-slots": (_square_with(
        lambda raw: raw["protocol"].update(retx_slots="two")),
        'protocol.retx_slots: expected an integer, got "two"'),
    "null-duration": (_square_with(lambda raw: raw.update(duration_s=None)),
                      "duration_s: expected a finite number, got null"),
    "wheel-speed-beyond-i16": (_square_with(_fast_wheels),
                               "nodes[1].params.max_wheel_speed_mms: must be <= 32767, got 40000"),
    "unknown-key": (_square_with(
        lambda raw: raw["nodes"][1].update(params={"max_wheel_speed": 200})),
        "nodes[1].params: unknown key 'max_wheel_speed' (did you mean 'max_wheel_speed_mms'?)"),
    "removed-key-max-drift-ppm": (_square_with(
        lambda raw: raw["protocol"].update(max_drift_ppm=40)),
        "protocol: unknown key 'max_drift_ppm'"),
    "string-for-bool": (_square_with(lambda raw: raw.update(run_to_completion="false")),
                        'run_to_completion: expected a boolean, got "false"'),
    "fractional-retx-slots": (_square_with(
        lambda raw: raw["protocol"].update(retx_slots=2.7)),
        "protocol.retx_slots: expected an integer, got 2.7"),
    "bool-seed": (_square_with(lambda raw: raw.update(seed=True)),
                  "seed: expected an integer, got true"),
    "protocol-not-an-object": (_square_with(lambda raw: raw.update(protocol=[1])),
                               "protocol: expected an object, got an array"),
    "zero-phy-rate": (_square_with(lambda raw: raw["protocol"].update(phy_rate_mbps=0)),
                      "protocol.phy_rate_mbps: must be > 0, got 0.0"),
    "negative-phy-overhead": (_square_with(
        lambda raw: raw["protocol"].update(phy_overhead_bytes=-100)),
        "protocol.phy_overhead_bytes: must be >= 0, got -100"),
    "slot-shorter-than-sync-waves": (_square_with(
        lambda raw: raw["protocol"].update(slot_duration_us=50)),
        "protocol.slot_duration_us: 50 us cannot hold protocol.sync.max_waves=2 frames of 104 us"),
    "too-many-channels": (_square_with(
        lambda raw: raw["protocol"].update(n_channels=2_000_000)),
        "protocol.n_channels: must be <= 256, got 2000000"),
}


@pytest.mark.parametrize("name", list(BAD_CONFIGS))
def test_invalid_config_is_rejected_with_exit_code_2(name, tmp_path, capsys):
    config, expected = BAD_CONFIGS[name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert expected in err[0]
    assert not out.exists()


def _array_config_with_seed(tiny_config, tmp_path):
    bad = tmp_path / "array.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    return ["run", str(bad), "--seed", "3", "--out", str(tmp_path / "out")]


def _out_is_a_file(command, below=""):
    def build(tiny_config, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        out = str(taken / below)
        if command == "run":
            return ["run", str(tiny_config), "--out", out]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"seeds": [1, 2]}), encoding="utf-8")
        return ["sweep", str(tiny_config), "--grid", str(grid), "--out", out]
    return build


def _duplicate_link(tiny_config, tmp_path):
    raw = json.loads(tiny_config.read_text())
    raw["channel"]["links"] = [{"from": 0, "to": 1, "per": 0.2}, {"from": 0, "to": 1, "per": 0.9}]
    bad = tmp_path / "twice.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    return ["run", str(bad), "--out", str(tmp_path / "out")]


def _not_json(command):
    """A run config, or a sweep grid, that is not valid JSON."""
    def build(tiny_config, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"seeds": [1, 2}', encoding="utf-8")
        if command == "run":
            return ["run", str(bad), "--out", str(tmp_path / "out")]
        return ["sweep", str(tiny_config), "--grid", str(bad), "--out", str(tmp_path / "out")]
    return build


def _tiny_trace(tiny_config):
    return run_scenario(config_from_dict(json.loads(tiny_config.read_text()))).trace


def _truncated_trace(tiny_config, tmp_path):
    text = _tiny_trace(tiny_config).to_csv()
    cut = tmp_path / "cut.csv"
    # cut after the first cell of a row half way through the file
    cut.write_text(text[:text.index(",", text.index("\n", len(text) // 2))], encoding="utf-8")
    return ["plot-data", str(cut), "--metric", "cycle-cdf"]


def _empty_trace(tiny_config, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    return ["plot-data", str(empty), "--metric", "cycle-cdf"]


def _bad_row(row):
    """A trace as a run writes it, with line 3 replaced by `row`."""
    def build(tiny_config, tmp_path):
        lines = _tiny_trace(tiny_config).to_csv().splitlines(keepends=True)
        lines[2] = row + "\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        return ["plot-data", str(bad), "--metric", "cycle-cdf"]
    return build


def _plot_data_out(out):
    def build(tiny_config, tmp_path):
        trace = tmp_path / "trace.csv"
        _tiny_trace(tiny_config).write_csv(trace)
        (tmp_path / "plots").mkdir()
        return ["plot-data", str(trace), "--metric", "cycle-cdf", "--out", str(tmp_path / out)]
    return build


# name -> (argv builder, text the single error line must contain)
BAD_INPUTS = {
    "run-config-not-an-object-with-seed": (_array_config_with_seed,
                                           "scenario config must be a JSON object"),
    "run-config-not-json": (_not_json("run"), "broken.json: not valid JSON (Expecting"),
    "run-config-with-a-link-given-twice": (_duplicate_link, "link 0->1 is given twice"),
    "sweep-grid-not-json": (_not_json("sweep"), "broken.json: not valid JSON (Expecting"),
    "run-out-is-a-file": (_out_is_a_file("run"), "taken is not a directory"),
    "sweep-out-is-a-file": (_out_is_a_file("sweep"), "taken is not a directory"),
    "run-out-below-a-file": (_out_is_a_file("run", below="sub"), "taken is not a directory"),
    "plot-data-truncated-trace": (_truncated_trace, "has 1 cells, expected 15"),
    "plot-data-empty-trace": (_empty_trace, "not a trace file"),
    # an empty slot's reception outcome with a wave, which only sync floods have
    "plot-data-rx-row-with-a-v2-cell": (_bad_row("0,0,3,1,rx,,,,,no-transmitter,,1,,,"),
                                        "line 3: no declared layout reads this 'rx' row"),
    "plot-data-row-of-an-unknown-kind": (_bad_row("0,0,3,1,hop,,,,,,,,,,"),
                                         "line 3: no declared layout reads this 'hop' row"),
    "plot-data-out-is-a-directory": (_plot_data_out("plots"), "Is a directory"),
    "plot-data-out-below-a-missing-directory": (_plot_data_out("missing/cdf.csv"),
                                                "No such file or directory"),
}


def _tree(root):
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_bad_input_exits_2_and_writes_nothing(name, tiny_config, tmp_path, capsys):
    build, expected = BAD_INPUTS[name]
    argv = build(tiny_config, tmp_path)
    before = _tree(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert expected in err[0]
    assert captured.out == ""
    assert _tree(tmp_path) == before


def test_unknown_node_in_link_is_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "remote-control", "seed": 1,
        "nodes": [
            {"id": 0, "role": "controller"},
            {"id": 1, "role": "robot", "start_pose": [0, 0, 0], "path": [[1, 0]]},
        ],
        "channel": {"links": [{"from": 0, "to": 7, "per": 0.5}]},
    }), encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "unknown node" in capsys.readouterr().err


def test_plot_data_cycle_cdf(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", str(tiny_config), "--out", str(out)])
    capsys.readouterr()  # drop the run summary line
    assert main(["plot-data", str(out / "trace.csv"), "--metric", "cycle-cdf"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "latency_us,fraction"
    fractions = [float(line.split(",")[1]) for line in lines[1:]]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)


def test_plot_data_path(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", str(tiny_config), "--out", str(out)])
    capsys.readouterr()  # drop the run summary line
    assert main(["plot-data", str(out / "trace.csv"), "--metric", "path"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "time_us,node,x,y,cross_track_m"
    assert len(lines) > 10


def test_plot_data_gap(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(SCENARIO_DIR / "leader_follower_l.json"), "--out", str(out),
                 "--seed", "13"]) == 0
    assert main(["plot-data", str(out / "trace.csv"), "--metric", "gap",
                 "--out", str(tmp_path / "gap.csv")]) == 0
    lines = (tmp_path / "gap.csv").read_text().strip().splitlines()
    assert lines[0] == "time_us,gap_m"
    gaps = [float(line.split(",")[1]) for line in lines[1:]]
    assert min(gaps) > 0.2


def test_sweep_grid(tiny_config, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "parameters": {"channel.default_per": [0.0, 0.5]},
        "seeds": [1, 2],
    }), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", str(tiny_config), "--grid", str(grid), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2 pers x 2 seeds
    header = lines[0].split(",")
    assert "cmd_delivery_ratio" in header


def test_sweep_csv_quotes_array_and_object_cells(tiny_config, tmp_path):
    links = [[], [{"from": 0, "to": 1, "per": 0.5}]]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"parameters": {"channel.links": links}}), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", str(tiny_config), "--grid", str(grid), "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
    assert [row[header.index("channel.links")] for row in rows] == [str(v) for v in links]


# name -> (grid, text the single error line must contain)
BAD_GRIDS = {
    "misspelled-path": ({"parameters": {"channel.defualt_per": [0.5]}},
                        "channel: unknown key 'defualt_per' (did you mean 'default_per'?)"),
    "value-out-of-range": ({"parameters": {"channel.default_per": [0.1, 1.5]}},
                           "sweep point channel.default_per=1.5, seed=11: "
                           "channel.default_per: must be <= 1.0, got 1.5"),
    "unknown-grid-key": ({"seed": [1, 2, 3]},
                         "grid: unknown key 'seed'; a grid takes \"parameters\" and \"seeds\""),
    "seed-as-parameter": ({"parameters": {"seed": [1, 2]}}, '"seeds"'),
    "array-on-path": ({"parameters": {"nodes.1.path": [[[1, 0]]]}},
                      "nodes.1.path: nodes is not an object"),
}


@pytest.mark.parametrize("name", list(BAD_GRIDS))
def test_invalid_sweep_grid_is_rejected_before_any_run(name, tiny_config, tmp_path, capsys):
    grid_raw, expected = BAD_GRIDS[name]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(grid_raw), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", str(tiny_config), "--grid", str(grid), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert expected in err[0]
    assert not out.exists()
