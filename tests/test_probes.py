"""The contract between the simulator and the benchmark's layer probes.

`perfbench/tracer.py` patches functions by name and reads some of their
arguments and results (the kind of a `Trace.add` row as `args[2]`, the
`.received` of a delivery, ...).  This runs the golden `fleet` case, and a
two-point sweep, through the CLI with every probe installed, as a traced
benchmark execution does, and checks that the probes still see each layer.
The benchmark is only read here.
"""

import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from conftest import fleet_raw
from test_corpus import BASE
from test_golden_digests import GOLDEN, _sha256
from wctrlsim import cli
from wctrlsim.trace import COLUMNS, load_trace

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"

# the calls one `wctrlsim run` of the fleet case makes through each probe: one
# per (transmission, listener) pair, flood listener, encoded frame and row
CALLS = {"channel.deliver": 23_168, "channel.deliver_flood": 2_078,
         "frames.encode_frame": 3_495, "trace.add": 39_661}

COUNTERS = ("channel.deliver.ok", "channel.deliver_flood.ok", "mac.sync.reached",
            "mac.sync.targets", "controller.fb.accepted", "robot.cmd.applied",
            "engine.events", "trace.rx_rows")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_sees_the_golden_fleet_run(tmp_path):
    tracer = _load_tracer()
    config = tmp_path / "fleet.json"
    config.write_text(json.dumps(fleet_raw()), encoding="utf-8")
    out = tmp_path / "out"
    rec = tracer.Recorder()
    with tracer.installed(rec, full=True):
        rec.begin(1)
        with redirect_stdout(io.StringIO()):
            assert cli.main(["run", str(config), "--out", str(out)]) == 0

    # the probes leave the bytes alone
    trace_digest, metrics_digest = GOLDEN["fleet"]
    assert _sha256((out / "trace.csv").read_text(encoding="utf-8")) == trace_digest
    assert _sha256((out / "metrics.json").read_text(encoding="utf-8")) == metrics_digest

    spans = rec.self_times()[1]
    single_run = {name for name, *_ in tracer.probes(full=True)} - {"simulation.run_sweep"}
    for name in sorted(single_run):
        self_ns, calls = spans.get(name, (0, 0))
        assert calls > 0 and self_ns > 0, name
    for key in COUNTERS:
        assert rec.counts[key] > 0, key

    rows = load_trace(out / "trace.csv")
    kind = COLUMNS.index("kind")
    assert rec.counts["trace.rx_rows"] == sum(row[kind] == "rx" for row in rows)
    assert {name: spans[name][1] for name in CALLS} == CALLS
    assert CALLS["trace.add"] == len(rows)


def test_the_sweep_probe_times_the_sweep_the_cli_runs(tmp_path):
    tracer = _load_tracer()
    config, grid = tmp_path / "config.json", tmp_path / "grid.json"
    config.write_text(json.dumps(BASE), encoding="utf-8")
    grid.write_text(json.dumps({"seeds": [1, 2]}), encoding="utf-8")
    rec = tracer.Recorder()
    outputs = []
    for traced in (True, False):
        out = tmp_path / f"traced-{traced}"
        argv = ["sweep", str(config), "--grid", str(grid), "--out", str(out)]
        with tracer.installed(rec, full=traced), redirect_stdout(io.StringIO()):
            rec.begin(int(traced))
            assert cli.main(argv) == 0
        outputs.append((out / "sweep.csv").read_bytes())

    spans = rec.self_times()[1]
    self_ns, calls = spans["simulation.run_sweep"]
    assert calls == 1 and self_ns > 0
    assert spans["cli.write"][1] == 1  # sweep.csv
    assert spans["simulation.run"][1] == 2
    assert outputs[0] == outputs[1]  # the probes leave the bytes alone
