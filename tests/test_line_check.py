"""Line check: the branch corpus and the golden runs together run every
statement of the cycle path.

The scope is every method of `Simulation` and every function of `mac.py`,
`controller.py`, `trace.py`, `robot.py`, `channel.py` and `metrics.py`, `raise`
statements left out.  Each run is built from its JSON document while lines are
collected, so config checks count too, and the first run is written, read back
and iterated; two rows that break their layouts are written too.  The corpus
goes first, then the short lossy and fleet goldens, then platoon, which reaches
every statement they leave, and last square.  Once every statement has run, the
remaining runs are skipped, because tracing slows every call.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

import wctrlsim
from conftest import SCENARIO_DIR, fleet_raw, lossy_raw
from oracles import LineCollector, function_lines
from test_corpus import BASE, CASES
from wctrlsim.scenario import config_from_dict
from wctrlsim.simulation import run_scenario
from wctrlsim.trace import Trace, declare_kind, load_trace

SRC = Path(wctrlsim.__file__).parent
SCOPE = {"simulation.py": "Simulation.", "mac.py": "", "controller.py": "", "trace.py": "",
         "robot.py": "", "channel.py": "", "metrics.py": ""}

# (file, function, statement) of each statement no config reaches; a comment gives why
UNREACHABLE = {
    # every feedback frame comes from a robot, and every robot has a lane
    ("controller.py", "PathController.ingest_feedback", "return False"),
    # a run writes only rows of declared kinds, each in its own layout
    ("trace.py", "load_trace", "except (KeyError, ValueError):"),
    # once the controller latches, every command it emits carries the stop flag,
    # and the retx queue that could carry an older command is emptied every cycle
    ("robot.py", "Robot.apply_command", 'return "latched"'),
    # add_links links every ordered pair of nodes, so every listener has a link
    ("channel.py", "Medium.deliver", "except KeyError:"),
    # a measured node has poses, and its polyline holds its first pose and at least
    # one reference point; a leader path is measured only with two points or more
    ("metrics.py", "polyline_distances", "return best  # a one-point polyline, or no points"),
}


def _runs():
    yield from ({**copy.deepcopy(BASE), **change} for change, *_ in CASES.values())
    yield lossy_raw()
    yield fleet_raw()
    for name in ("leader_follower_l.json", "remote_control_square.json"):
        yield json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="reads code.co_qualname, new in 3.11")
def test_the_corpus_and_the_goldens_run_every_statement(tmp_path):
    statements = {}
    for name, qualname in SCOPE.items():
        path = SRC / name
        lines = function_lines(path, qualname)
        source = path.read_text(encoding="utf-8").splitlines()
        statements[str(path)] = {
            line: (name, function, source[line - 1].strip()) for line, function in lines.items()}
    named = [where for lines in statements.values() for where in lines.values()
             if where in UNREACHABLE]
    assert sorted(named) == sorted(UNREACHABLE), "each exception names one statement"

    missed = {path: {line for line, where in lines.items() if where not in UNREACHABLE}
              for path, lines in statements.items()}
    written = tmp_path / "trace.csv"
    with LineCollector(missed) as collector:
        # the simulator's kinds are declared at import, before lines are collected
        checked = declare_kind("line-check", "d--- ----- d----")
        for kind, cells in ((checked, ()), ("line-check", (1,))):  # no v1; an undeclared kind
            broken = Trace()
            broken.add(0, kind, *cells)
            with pytest.raises(ValueError, match="trace row 0"):
                broken.to_csv()
        for raw in _runs():
            if collector.done:
                break
            trace = run_scenario(config_from_dict(raw)).trace
            if not written.exists():
                trace.write_csv(written)
                loaded = load_trace(written)
                assert len(loaded) == len(trace) and loaded.to_csv() == written.read_text("utf-8")
                assert [row[:5] for row in loaded] == [row[:5] for row in trace]
    assert sorted(statements[path][line] + (line,)
                  for path, lines in collector.missed.items() for line in lines) == []
