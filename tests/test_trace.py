import copy
import gc
import itertools
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fleet_raw
from oracles import FlatTrace, flat_copy, shape_keyed_csv
from test_scenario import remote_configs
from wctrlsim.cli import _plot_rows
from wctrlsim.metrics import TraceView
from wctrlsim.scenario import ConfigError, config_from_dict
from wctrlsim.simulation import run_scenario
from test_corpus import BASE, CASES
from wctrlsim.trace import (_KINDS, COLUMNS, META, POSE, RX_EMPTY, Trace, declare_kind,
                            load_trace)


def test_an_undeclared_kind_raises_where_the_trace_is_read():
    # a library caller's "pose" is a plain str: only a kind made by declare_kind is read
    for kind in ("pose", "x"):
        trace = Trace()
        trace.add(0, META, 2000, 104, 6, 1)
        trace.add(5, kind, 0, 1, 0.1, 0.0, 0.0, 1.0, 2.0)
        for read in (trace.to_csv, lambda: list(trace)):
            with pytest.raises(ValueError, match=f"trace row 1: kind {kind!r} is not"):
                read()


@pytest.mark.parametrize("cells", [
    (0, 1, 2, "CMD", 0, 1, 5, "no-transmitter"),  # a frame, src, dst and seq in empty columns
    (0, 1),  # cycle and slot only: no node, no cause
])
def test_a_row_that_breaks_its_layout_raises_where_the_trace_is_read(cells):
    trace = Trace()
    trace.add(0, META, 2000, 104, 6, 1)
    trace.add(0, RX_EMPTY, *cells)
    for read in (trace.to_csv, lambda: list(trace)):
        with pytest.raises(ValueError, match=f"trace row 1: kind 'rx' has {2 + len(cells)} "
                                             r"cells.* fills 6"):
            read()


def test_rows_keep_native_values():
    trace = Trace()
    trace.add(5, POSE, 0, 1, 0.1234567, 0.0, 0.0, 1.0, 2.0)
    assert list(trace) == [(5, 0, None, 1, "pose", None, None, None, None, None,
                           0.1234567, 0.0, 0.0, 1.0, 2.0)]


_CELL = st.one_of(st.integers(), st.text(max_size=8), st.floats(), st.booleans(), st.none())
_ANY_CELLS = declare_kind("any-cells", "ssss sssss sssss")  # "%s" formats any cell


@given(st.lists(_CELL, min_size=14, max_size=14))
def test_a_row_iterates_and_writes_as_in_the_flat_store(cells):
    time_us, *rest = cells
    trace, flat = Trace(), FlatTrace()
    trace.add(time_us, _ANY_CELLS, *rest)
    flat.add(time_us, _ANY_CELLS, *rest)
    assert list(trace) == list(flat) == [(time_us, *rest[:3], _ANY_CELLS, *rest[3:])]
    assert trace.to_csv() == flat.to_csv()


def test_loaded_trace_gives_the_same_view_as_the_in_memory_rows(lossy_result, tmp_path):
    # the plot-data path: write the CSV, parse it once, build the same TraceView
    path = tmp_path / "trace.csv"
    lossy_result.trace.write_csv(path)
    loaded = load_trace(path)
    assert len(loaded) == len(lossy_result.trace)
    assert next(iter(loaded))[:5] == (0, None, None, None, "meta")
    a, b = TraceView(lossy_result.trace), TraceView(loaded)
    assert a.latencies.size and a.latencies.tobytes() == b.latencies.tobytes()

    def pose_bytes(view):
        return {node: (t.tobytes(), xylr.tobytes()) for node, (t, xylr) in view.poses.items()}

    assert a.poses and pose_bytes(a) == pose_bytes(b)
    assert a.refpoints == b.refpoints
    for frames in ("attempted", "delivered"):
        for frame in ("CMD", "FB"):
            ids, loaded_ids = getattr(a, frames)[frame], getattr(b, frames)[frame]
            assert ids.size and ids.tobytes() == loaded_ids.tobytes()
    assert (a.controller_latch_us, a.plant_latch_us) == (b.controller_latch_us, b.plant_latch_us)


@pytest.mark.parametrize("scenario, metrics", [
    ("lossy", ("cycle-cdf", "path")),
    ("fleet", ("cycle-cdf", "path")),
    ("platoon", ("cycle-cdf", "path", "gap")),
])
def test_plot_data_reads_the_loaded_file_as_the_in_memory_trace(scenario, metrics, request,
                                                              tmp_path):
    trace = request.getfixturevalue(f"{scenario}_result").trace
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    loaded = load_trace(path)
    for metric in metrics:
        lines = _plot_rows(trace, metric)
        assert len(lines) > 1 and lines == _plot_rows(loaded, metric), metric


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


def test_a_declared_kind_is_a_new_str_that_writes_its_layout():
    pose = declare_kind("pose", "dd-d ----- fffff")
    assert type(pose) is str and pose == "pose" and pose is not sys.intern("pose")
    cells = (3, 1, 0.1, -2.0, 1 / 3, 0.0, -0.0)  # cycle node x y theta left right
    trace = Trace()
    trace.add(9, pose, *cells)
    trace.add(9, declare_kind("a%b", "d--- ----- -----"))
    assert trace.to_csv().splitlines()[1:] == [
        "9,3,,1,pose,,,,,,0.100000,-2.000000,0.333333,0.000000,-0.000000",
        "9,,,,a%b" + "," * 10]
    # a short layout, an unknown letter, a short name, an empty time, and a second pose
    # layout with the empty cells of the first, which a row read back could not tell apart
    for name, layout in (("pose", "dd-d ----- ffff"), ("pose", "dd-d ----- ffffx"),
                         ("x", "dddd ----- -----"), ("pose", "-d-d ----- fffff"),
                         ("pose", "dd-d ----- ffffd")):
        with pytest.raises(ValueError):
            declare_kind(name, layout)


_DECLARED = {"d": lambda v: type(v) is int,
             "s": lambda v: type(v) is str,
             "f": lambda v: type(v) is float,
             "-": lambda v: v is None}


def _assert_rows_keep_their_layouts(trace: Trace) -> set[str]:
    """Every row has a declared kind, every cell has exactly its declared type (so
    a bool in an int cell fails), and the text equals the shape-keyed writer's;
    returns the kinds seen."""
    declared = set()
    for row in trace:
        assert id(row[4]) in _KINDS, row
        kind, layout = _KINDS[id(row[4])][:2]
        declared.add(kind)
        cells = zip(COLUMNS[:4] + COLUMNS[5:], layout, row[:4] + row[5:])
        for column, letter, value in cells:
            assert _DECLARED[letter](value), (kind, layout, column, row)
    assert trace.to_csv() == shape_keyed_csv(trace)
    return declared


@pytest.mark.parametrize("scenario", ["square", "platoon", "lossy", "fleet"])
def test_per_cycle_rows_keep_their_declared_layouts(scenario, request):
    trace = request.getfixturevalue(f"{scenario}_result").trace
    declared = _assert_rows_keep_their_layouts(trace)
    assert declared >= {"meta", "ref-point", "tx", "rx", "sync", "fb-sample", "cmd-emit",
                        "cmd-apply", "pose", "end"}
    gc.collect()  # cells of exact strs and numbers are left to no collection
    assert not any(map(gc.is_tracked, itertools.chain.from_iterable(trace)))


def test_a_run_starts_few_collections():
    # a row adds no object for the collector to track, so the rx rows that grow
    # as N^2 do not start collections as they are stored
    config = config_from_dict(fleet_raw())
    started = []

    def count(phase, info):
        started.append(phase == "start")

    gc.collect()
    gc.callbacks.append(count)
    try:
        trace = run_scenario(config).trace
    finally:
        gc.callbacks.remove(count)
    assert len(trace) == 39_661
    assert sum(started) < len(trace) / 2_000


def assert_same_as_the_flat_store(trace: Trace) -> None:
    """The trace writes the bytes and iterates the rows of the flat store of the rows
    it was given, and a file written, loaded and written again keeps its bytes."""
    flat, text = flat_copy(trace), trace.to_csv()
    assert text == flat.to_csv()
    assert list(trace) == list(flat)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        trace.write_csv(path)
        assert path.read_text(encoding="utf-8") == text
        loaded = load_trace(path)
        assert len(loaded) == len(trace) and loaded.to_csv() == text


@pytest.mark.parametrize("golden", ["square", "platoon", "lossy", "fleet"])
def test_the_goldens_write_and_iterate_as_in_the_flat_store(golden, request):
    assert_same_as_the_flat_store(request.getfixturevalue(f"{golden}_result").trace)


def test_the_corpus_writes_and_iterates_as_in_the_flat_store():
    for change, *_ in CASES.values():
        config = config_from_dict({**copy.deepcopy(BASE), **change})
        assert_same_as_the_flat_store(run_scenario(config).trace)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(remote_configs())
def test_any_valid_config_keeps_the_declared_layouts(raw):
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    trace = run_scenario(config).trace
    _assert_rows_keep_their_layouts(trace)
    assert_same_as_the_flat_store(trace)


def test_the_golden_fleet_trace_holds_only_its_filled_cells():
    # a row holds its time, its kind and the cells its layout fills, plus one byte that
    # counts them: dropping the fleet trace frees about 3.82 MB, 96 bytes a row, where
    # 15 cells a row, None for each empty one, freed about 5.29 MB, 133 a row
    config = config_from_dict(fleet_raw())
    gc.collect()
    tracemalloc.start()
    try:
        run = run_scenario(config)
        rows = len(run.trace)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        run.trace = None
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows == 39_661 and freed < 115 * rows
