import tracemalloc

import numpy as np
from hypothesis import given, strategies as st

from wctrlsim.metrics import TraceView
from wctrlsim.trace import COLUMNS, Trace, load_trace


def test_to_csv_formats_each_cell_by_type():
    trace = Trace()
    trace.add(7, "x", cycle=True, slot=False, node=np.float64(0.1), frame="CMD",
              v1=1.0, v2=-0.0, v3=2.5e-7, v4=-1, v5=None)
    trace.add(8, "x", cycle=False, slot=True, node=np.float64(-3.0), frame="FB",
              v1=1 / 3, v2=1e9, v3=-2.5e-7, v4=12, v5=None)
    assert trace.to_csv().splitlines() == [
        ",".join(COLUMNS),
        "7,1,0,0.100000,x,CMD,,,,,1.000000,-0.000000,0.000000,-1,",
        "8,0,1,-3.000000,x,FB,,,,,0.333333,1000000000.000000,-0.000000,12,",
    ]


def test_rows_keep_native_values():
    trace = Trace()
    trace.add(5, "pose", cycle=0, node=1, v1=0.1234567, v2=0.0, v3=0.0, v4=1.0, v5=2.0)
    assert trace.rows == [(5, 0, None, 1, "pose", None, None, None, None, None,
                           0.1234567, 0.0, 0.0, 1.0, 2.0)]


_CELL = st.one_of(st.integers(), st.text(max_size=8), st.floats(), st.booleans(), st.none())


@given(st.lists(_CELL, min_size=15, max_size=15))
def test_positional_and_keyword_rows_are_equal(cells):
    time_us, kind, *rest = cells
    by_keyword, by_position = Trace(), Trace()
    names = [c for c in COLUMNS if c not in ("time_us", "kind")]
    by_keyword.add(time_us, kind, **dict(zip(names, rest)))
    by_position.add(time_us, kind, *rest)
    assert by_position.rows == by_keyword.rows
    assert by_position.rows == [(time_us, *rest[:3], kind, *rest[3:])]  # COLUMNS order
    assert by_position.to_csv() == by_keyword.to_csv()


def test_loaded_trace_gives_the_same_view_as_the_in_memory_rows(lossy_result, tmp_path):
    # the plot-data path: write the CSV, parse it once, build the same TraceView
    path = tmp_path / "trace.csv"
    lossy_result.trace.write_csv(path)
    loaded = load_trace(path)
    assert len(loaded) == len(lossy_result.trace.rows)
    assert loaded[0][:5] == (0, None, None, None, "meta")
    a, b = TraceView(lossy_result.trace.rows), TraceView(loaded)
    assert a.latencies and a.latencies == b.latencies
    assert a.poses and a.poses == b.poses
    assert a.refpoints == b.refpoints
    assert a.attempted["CMD"] and a.attempted == b.attempted
    assert a.delivered["FB"] and a.delivered == b.delivered
    assert (a.controller_latch_us, a.plant_latch_us) == (b.controller_latch_us, b.plant_latch_us)
    assert (a.end_reason, a.cycles) == (b.end_reason, b.cycles) == ("estopped", 484)


def test_write_csv_streams_the_file_in_bounded_memory(fleet_result, tmp_path):
    path = tmp_path / "trace.csv"
    fleet_result.trace.write_csv(path)  # first use: codec and io set-up
    tracemalloc.start()
    try:
        fleet_result.trace.write_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 10
