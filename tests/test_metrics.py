import copy
import gc
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import RowWalkTraceView, brute_point_to_polyline, scan_polyline_distances
from test_corpus import BASE, CASES
from test_scenario import remote_configs
from wctrlsim.metrics import (TraceView, _ratio, _round6, cdf_pairs, compute_metrics,
                              polyline_distances, thin_polyline)
from wctrlsim.scenario import ConfigError, config_from_dict
from wctrlsim.simulation import run_scenario
from wctrlsim.cli import main
from wctrlsim.trace import (CMD_APPLY, CMD_EMIT, FB_SAMPLE, META, POSE, REF_POINT, RX, TX,
                            Trace)


def test_points_on_polyline_have_zero_distance():
    poly = [(0, 0), (1, 0), (1, 1)]
    pts = [(0.5, 0.0), (1.0, 0.5), (1.0, 1.0)]
    assert polyline_distances(pts, poly).max() == pytest.approx(0.0)


def test_constant_lateral_offset_gives_that_rms():
    poly = [(0, 0), (2, 0)]
    pts = [(x, 0.05) for x in np.linspace(0.1, 1.9, 50)]
    d = polyline_distances(pts, poly)
    assert np.sqrt(np.mean(d * d)) == pytest.approx(0.05)


def test_polyline_distance_matches_brute_force():
    rng = np.random.default_rng(8)
    poly = [(0, 0), (0.7, 0.1), (0.9, 0.8), (0.2, 1.0)]
    pts = rng.uniform(-0.5, 1.5, size=(20, 2))
    fast = polyline_distances(pts, poly)
    for (px, py), expected in zip(pts, fast):
        brute = brute_point_to_polyline(px, py, poly)
        assert expected == pytest.approx(brute, abs=1e-3)


def test_single_point_polyline():
    d = polyline_distances([(1.0, 1.0)], [(0.0, 0.0)])
    assert d[0] == pytest.approx(math.sqrt(2))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(0, 600),
       n_vertices=st.integers(1, 30), repeats=st.integers(0, 4),
       step=st.sampled_from([0.001, 0.05, 1.0]), offset=st.sampled_from([0.0, 3.0, 1e3]))
def test_pruned_distances_equal_a_scan_of_every_segment(seed, n_points, n_vertices, repeats,
                                                        step, offset):
    # a random-walk trajectory (point counts on and off the block size, near and
    # far from the path) against a polyline with repeated vertices, that is
    # zero-length segments; one vertex is a one-point polyline
    rng = np.random.default_rng(seed)
    poly = rng.uniform(-2.0, 2.0, (n_vertices, 2))
    at = np.sort(rng.integers(0, n_vertices, repeats))
    poly = np.insert(poly, at, poly[at], axis=0)
    walk = np.cumsum(rng.normal(0.0, step, (n_points, 2)), axis=0) + rng.uniform(-2.0, 2.0, 2)
    walk += offset
    pruned = polyline_distances(walk, poly)
    assert pruned.tobytes() == scan_polyline_distances(walk, poly).tobytes()


def test_cdf_pairs_sorted_and_bounded():
    pairs = cdf_pairs([3, 1, 2, 2, 5])
    values = [v for v, _ in pairs]
    fracs = [f for _, f in pairs]
    assert values == sorted(values)
    assert fracs == sorted(fracs)
    assert fracs[-1] == pytest.approx(1.0)
    assert all(0 < f <= 1 for f in fracs)
    assert pairs[1] == (2.0, pytest.approx(0.6))


def test_cdf_of_empty_is_empty():
    assert cdf_pairs([]) == []


def test_thin_polyline_spacing():
    points = [(0, 0), (0.0005, 0), (0.001, 0), (0.01, 0), (0.02, 0)]
    kept = thin_polyline(points, min_spacing_m=0.002)
    assert kept.tolist() == [[0, 0], [0.01, 0], [0.02, 0]]
    assert all(math.hypot(b[0] - a[0], b[1] - a[1]) >= 0.002
               for a, b in zip(kept, kept[1:]))


def test_thin_polyline_keeps_the_first_point():
    assert thin_polyline([]).tolist() == []
    assert thin_polyline([(0.5, -1.0)]).tolist() == [[0.5, -1.0]]
    assert thin_polyline(np.array([[0.5, -1.0], [0.5, -1.0]])).tolist() == [[0.5, -1.0]]


def synthetic_trace():
    trace = Trace()
    trace.add(0, META, 2000, 104, 6, 1)
    trace.add(0, REF_POINT, 1, 0, 0.5, 0.0)  # node seq x y
    # cycle 0: feedback sampled at 250, command applied at 1354
    trace.add(250, FB_SAMPLE, 0, 1, 1, 1, 0, 0, -1)  # cycle slot node seq, ticks and distance
    # cycle node frame src dst seq, wheel speeds and the informing feedback seq
    trace.add(500, CMD_EMIT, 0, 0, "CMD", 0, 1, 1, 100, 100, 1)
    trace.add(1354, CMD_APPLY, 0, 3, 1, "CMD", 0, 1, 1, "applied", 100, 100)
    trace.add(2000, POSE, 0, 1, 0.0, 0.05, 0.0, 100.0, 100.0)  # cycle node x y theta left right
    return trace


def test_latency_join_through_informing_sequence():
    view = TraceView(synthetic_trace())
    assert view.latencies.tolist() == [[1354, 1, 1104]]


def test_latency_ignores_uninformed_commands():
    trace = synthetic_trace()
    trace.add(2500, CMD_EMIT, 1, 0, "CMD", 0, 1, 2, 0, 0, -1)
    trace.add(3354, CMD_APPLY, 1, 3, 1, "CMD", 0, 1, 2, "applied", 0, 0)
    view = TraceView(trace)
    assert len(view.latencies) == 1


def test_latency_join_takes_the_latest_emit_and_sample_before_each_apply():
    # seq 1 comes round again (as after a wrap): the second apply joins the second
    # emit and the sample before it, and the first apply nothing that follows it
    trace = synthetic_trace()
    trace.add(2250, FB_SAMPLE, 1, 1, 1, 1, 0, 0, -1)
    trace.add(2500, CMD_EMIT, 1, 0, "CMD", 0, 1, 1, 0, 0, 1)
    trace.add(3000, FB_SAMPLE, 1, 1, 1, 1, 0, 0, -1)
    trace.add(3354, CMD_APPLY, 1, 3, 1, "CMD", 0, 1, 1, "applied", 0, 0)
    trace.add(4000, FB_SAMPLE, 2, 1, 1, 1, 0, 0, -1)
    view = TraceView(trace)
    assert view.latencies.tolist() == [[1354, 1, 1104], [3354, 1, 354]]
    assert view.latencies.tolist() == [list(row) for row in RowWalkTraceView(trace).latencies]


def test_empty_trace_is_not_an_error():
    view = TraceView(Trace())
    assert view.latencies.shape == (0, 3)
    assert cdf_pairs(view.latencies[:, 2]) == []
    assert view.poses == {} and view.gap_series(1, 2)[1].size == 0
    assert view.stationary_time_us(1, after_us=0) is None


def test_reference_polyline_prepends_first_pose():
    view = TraceView(synthetic_trace())
    assert view.reference_polyline(1).tolist() == [[0.0, 0.05], [0.5, 0.0]]


def test_stationary_time_scan():
    trace = synthetic_trace()
    trace.add(4000, POSE, 1, 1, 0.0, 0.0, 0.0, 50.0, 50.0)
    trace.add(6000, POSE, 2, 1, 0.0, 0.0, 0.0, 0.0, 0.0)
    view = TraceView(trace)
    assert view.stationary_time_us(1, after_us=0) == 6000
    assert view.stationary_time_us(1, after_us=6001) is None


# integral floats (whole wheel speeds, most poses' y) and every other finite float
POSE_VALUES = st.one_of(st.floats(allow_nan=False),
                        st.integers(-2**62, 2**62).map(float),
                        st.integers(-10**12, 10**12).map(lambda n: n / 1e6),
                        st.sampled_from([0.0, -0.0, 2.0**52, 2.0**52 + 1, 2.0**53, 1e300, -1e300]))


@settings(max_examples=500, deadline=None)
@given(st.tuples(POSE_VALUES, POSE_VALUES, POSE_VALUES, POSE_VALUES))
def test_pose_values_equal_round_to_six_decimals_bit_for_bit(values):
    x, y, left, right = values
    trace = Trace()
    trace.add(2000, POSE, 0, 1, x, y, 0.0, left, right)
    t, xylr = TraceView(trace).poses[1]
    rounded = (2000, *(round(v, 6) for v in values))
    assert struct.pack("<q4d", *t.tolist(), *xylr[0].tolist()) == struct.pack("<q4d", *rounded)


def test_rounding_in_bulk_equals_round_bit_for_bit():
    # halves of the sixth decimal, where the product v * 1e6 can round across the
    # half, random doubles of every exponent (with inf and nan) and plain coordinates,
    # in arrays that span several of the chunks the rounding takes at a time
    rng = np.random.default_rng(26)
    for values in ((rng.integers(-10**9, 10**9, 10_000) + 0.5) / 1e6,
                   np.frombuffer(rng.bytes(8 * 10_000), np.float64),
                   rng.uniform(-5.0, 5.0, 10_001)):
        expected = [v if v.is_integer() else round(v, 6) for v in values.tolist()]
        assert _round6(values.copy()).tobytes() == struct.pack(f"={len(values)}d", *expected)


def test_delivery_counts_frames_whose_sequence_numbers_wrapped():
    # the 16-bit command sequence wraps between the two cycles of each pair, the
    # last two pairs beyond the cycles that fit in 31 and in 32 bits: all six
    # frames share (src, dst, seq), and only the first of each pair reached the robot
    trace = Trace()
    for first in (3, 2**31 + 3, 2**32 + 3):
        for cycle, cause in ((first, "delivered"), (first + 65_536, "erased")):
            trace.add(1250, TX, cycle, 3, 0, "CMD", 0, 1, 3, 0)  # cycle slot node frame src dst seq
            trace.add(1250, RX, cycle, 3, 1, "CMD", 0, 1, 3, cause, 0)  # ... seq cause channel
    assert _ratio(TraceView(trace), "CMD") == {"attempted": 6, "delivered": 3, "ratio": 0.5}


GAP_POSES = ((1, 0.0), (1, 0.5), (2, 1.0), (2, 2.0))  # (node, x), every pose at t = 1000


def test_each_follower_pose_is_paired_with_the_last_leader_pose_at_its_time():
    trace = Trace()
    for node, x in GAP_POSES:
        trace.add(1000, POSE, 0, node, x, 0.0, 0.0, 0.0, 0.0)
    t, gaps = TraceView(trace).gap_series(1, 2)
    assert list(zip(t.tolist(), gaps.tolist())) == RowWalkTraceView(trace).gap_series(1, 2)
    assert list(zip(t.tolist(), gaps.tolist())) == [(1000, 0.5), (1000, 1.5)]


def test_plot_data_gap_pairs_a_hand_written_trace_by_the_last_leader_pose(tmp_path):
    path, out = tmp_path / "trace.csv", tmp_path / "gap.csv"
    path.write_text("time_us,cycle,slot,node,kind,frame,src,dst,seq,cause,v1,v2,v3,v4,v5\n"
                    + "".join(f"1000,0,,{node},pose,,,,,,{x:.6f},0.000000,0.000000,0.000000,"
                              "0.000000\n" for node, x in GAP_POSES), encoding="utf-8")
    assert main(["plot-data", str(path), "--metric", "gap", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "time_us,gap_m\n1000,0.500000\n1000,1.500000\n"


# -- the typed columns against the row walk of tuples they replaced ----------------


def _packed(values) -> bytes:
    return struct.pack(f"={len(values)}d", *values)


def assert_same_view(trace):
    view, ref = TraceView(trace), RowWalkTraceView(trace)
    assert view.latencies.tolist() == [list(row) for row in ref.latencies]
    assert (view.refpoints, view.points_reached) == (ref.refpoints, ref.points_reached)
    assert (view.controller_latch_us, view.plant_latch_us, view.waypoint_complete_us) == (
        ref.controller_latch_us, ref.plant_latch_us, ref.waypoint_complete_us)
    for frame in ("CMD", "FB"):
        assert len(view.attempted[frame]) == len(ref.attempted[frame])
        assert len(view.delivered[frame]) == len(ref.delivered[frame])
        assert _ratio(view, frame)["delivered"] == ref.delivered_count(frame)
    assert sorted(view.poses) == sorted(ref.poses)
    for node, series in ref.poses.items():
        t, xylr = view.poses[node]
        assert t.tolist() == [pose[0] for pose in series]
        assert xylr.tobytes() == _packed([v for pose in series for v in pose[1:]])  # bit for bit
        d, ref_d = view.cross_track(node), ref.cross_track(node)
        assert (d is None and ref_d is None) or d.tobytes() == ref_d.tobytes()
        for after_us in (0, t[len(t) // 2], ref.controller_latch_us or 0):
            assert view.stationary_time_us(node, after_us) == ref.stationary_time_us(node, after_us)
        for other in ref.poses:
            gap_t, gaps = view.gap_series(other, node)
            ref_gaps = ref.gap_series(other, node)
            assert gap_t.tolist() == [time for time, _ in ref_gaps]
            assert gaps.tobytes() == _packed([gap for _, gap in ref_gaps])


@pytest.mark.parametrize("golden", ["square", "platoon", "lossy", "fleet"])
def test_the_typed_view_equals_the_row_walk_on_the_goldens(golden, request):
    assert_same_view(request.getfixturevalue(f"{golden}_result").trace)


def test_the_typed_view_equals_the_row_walk_on_the_corpus():
    for change, *_ in CASES.values():
        assert_same_view(run_scenario(config_from_dict({**copy.deepcopy(BASE), **change})).trace)


@settings(max_examples=100, deadline=None, derandomize=True)  # about a third validate
@given(remote_configs())
def test_the_typed_view_equals_the_row_walk_on_drawn_configs(raw):
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    assert_same_view(run_scenario(config).trace)


def test_the_metrics_pass_starts_no_collections_and_stays_small(platoon_result):
    # the rows land in typed arrays joined by packed int keys, so the pass allocates
    # no tracked object per row and nothing wakes the cyclic collector
    started = []

    def count(phase, info):
        started.append(phase == "start")

    gc.collect()
    gc.callbacks.append(count)
    tracemalloc.start()
    try:
        compute_metrics(platoon_result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.callbacks.remove(count)
    assert sum(started) <= 2
    assert peak < 5 * 2**20
