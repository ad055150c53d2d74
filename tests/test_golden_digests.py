"""Golden digests: the bundled scenarios must keep producing the same bytes.

The values are the full sha256 of `trace.csv` and `metrics.json` as the CLI
writes them (the trace both as text and as the file `write_csv` streams, which
`load_trace` reads back into a trace that writes the same text) for
the bundled configs at their own seeds, for the lossy three-robot run of
`conftest.lossy_raw` (PER 0.3, a burst link, a blackout and an obstacle that
ends the run in an emergency stop), and for the eight-robot run of
`conftest.fleet_raw` (PER 0.1, burst chains, many-holder retx floods).  A
refactor that claims to keep behaviour must leave both unchanged.  The
benchmark pins the same values for square and platoon, and a test keeps the two
tables equal.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from wctrlsim.trace import load_trace

GOLDEN = {
    "square": ("0e01381b5410a2be702239a1f8a656e4231d9b415e3b73bc93c350e692454b9a",
               "645c9270695336f5af824e2c45f215a694ce78baf72f26d462786a55919bf43e"),
    "platoon": ("9aa9e7a858c0fff0dc5fb1c54ef680c26bba58a9d7c080640be4711ab3618074",
                "350afa952cb2c1fa4a75c2c11094918b3e3b37cfa3be474c2b4a49a19d469834"),
    "lossy": ("a19dda6614fce446d3b445ced6060432a6106a4f39b99e8c1b7f512ad4697e43",
              "8bf94d945044f2548039ba8e6b7481d71dbf38c41b06cf144de39c654068a9d9"),
    "fleet": ("c1e4b1ac4d9f94fa98dea20986abfc4d04c097bc3c228afb86b87c5fd2f9d88f",
              "19c0f1d8597d4ac496a9e36ae2fbf8621235aece4e442cb98f1b61d906960ce5"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_bundled_scenario_outputs_match_golden_digests(scenario, request, tmp_path):
    result = request.getfixturevalue(f"{scenario}_result")
    trace_digest, metrics_digest = GOLDEN[scenario]
    assert _sha256(result.trace.to_csv()) == trace_digest
    written = tmp_path / "trace.csv"
    result.trace.write_csv(written)
    assert hashlib.sha256(written.read_bytes()).hexdigest() == trace_digest
    assert load_trace(written).to_csv() == written.read_text(encoding="utf-8")
    assert _sha256(json.dumps(result.metrics, sort_keys=True, indent=2) + "\n") == metrics_digest


WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


def test_benchmark_pins_equal_the_golden_digests():
    # the benchmark's table is read from its source, never imported or changed here
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    (pinned,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(target, "id", None) for target in node.targets] == ["PINNED"]]
    for case in ("square", "platoon"):
        assert pinned[case] == dict(zip(("trace.csv", "metrics.json"), GOLDEN[case])), case
