"""Independent reference implementations used to pin expected test values.

These deliberately avoid the library's own code paths: the RK4 integrator
checks the exact-arc kinematics, the brute-force polyline distance checks the
vectorized metric, the scan of every segment pins the pruned search's exact
bits, the wave-by-wave sync flood pins the one-pass flood draw for draw, the
encoder with a named range check per field pins the struct-checked one, the
writer that keys every row on its cell types pins the one that trusts a
declared layout, the store of 15 cells per row, None for each empty one, pins
the store of each row's filled cells and its blockwise writer, the walk of
trace rows into tuples, sets and tuple-keyed dicts pins the typed columns of
the metrics' view, the fixed-path cursor and the popping follower queue pin the
one reference-point list that serves both, and the slot layout recomputed from
each slot's position pins the offset and hop sequence the slot carries.
The line collector, stdlib only, records which statements a set of runs
reaches.
"""

from __future__ import annotations

import ast
import dis
import inspect
import math
import struct
import sys
import types
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from wctrlsim.controller import target_in_robot_frame
from wctrlsim.frames import (BROADCAST, NO_READING, CmdFrame, EstopFrame, FbFrame,
                             FrameError, MsgType, SyncFrame)
from wctrlsim.mac import BeaconReception, BeaconReport, Direction, ScheduleError
from wctrlsim.robot import Pose
from wctrlsim.trace import _KINDS, COLUMNS


def rk4_unicycle(x: float, y: float, theta: float, v_left: float, v_right: float,
                 dt: float, track_width: float, max_step: float = 1e-4) -> tuple[float, float, float]:
    """Integrate the unicycle ODE with classic RK4 at sub-steps <= max_step."""
    v = 0.5 * (v_left + v_right)
    omega = (v_right - v_left) / track_width

    def deriv(th: float) -> tuple[float, float, float]:
        return v * math.cos(th), v * math.sin(th), omega

    steps = max(1, int(math.ceil(dt / max_step)))
    h = dt / steps
    for _ in range(steps):
        k1 = deriv(theta)
        k2 = deriv(theta + 0.5 * h * k1[2])
        k3 = deriv(theta + 0.5 * h * k2[2])
        k4 = deriv(theta + h * k3[2])
        x += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        theta += h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return x, y, theta


def brute_point_to_polyline(px: float, py: float, polyline, samples_per_segment: int = 2000) -> float:
    """Distance to a polyline by dense sampling (slow, for small cases only)."""
    best = float("inf")
    for (x1, y1), (x2, y2) in zip(polyline, polyline[1:]):
        for i in range(samples_per_segment + 1):
            t = i / samples_per_segment
            qx = x1 + t * (x2 - x1)
            qy = y1 + t * (y2 - y1)
            best = min(best, math.hypot(px - qx, py - qy))
    if len(polyline) == 1:
        best = math.hypot(px - polyline[0][0], py - polyline[0][1])
    return best


def scan_polyline_distances(points, polyline) -> np.ndarray:
    """Distance from each point to a polyline by a scan of every segment over
    every point: the expression the pruned `polyline_distances` must match bit
    for bit."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    poly = np.asarray(polyline, dtype=float).reshape(-1, 2)
    best = np.hypot(pts[:, 0] - poly[0, 0], pts[:, 1] - poly[0, 1])
    for i in range(len(poly) - 1):
        a, b = poly[i], poly[i + 1]
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            d = np.hypot(pts[:, 0] - a[0], pts[:, 1] - a[1])
        else:
            t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
            proj = a + t[:, None] * ab
            d = np.hypot(pts[:, 0] - proj[:, 0], pts[:, 1] - proj[:, 1])
        best = np.minimum(best, d)
    return best


def wave_scan_sync_beacon(engine, medium, channel, cycle_index, originator, nodes, states,
                          params, cycle_start):
    """Flood one sync beacon wave by wave: each wave's senders are found by a
    scan of every holder, and every node is visited in every wave.  The same
    transmissions, draws, receptions and state changes as `run_sync_beacon`."""
    slot = medium.begin_slot()
    beacon_seq = cycle_index & 0xFFFF
    nodes = sorted(nodes)
    holders = {originator: 0}  # node -> wave it first held the beacon
    transmissions, outcomes, receptions = [], [], []

    for wave in range(1, params.max_waves + 1):
        senders = sorted(n for n, got in holders.items() if got == wave - 1)
        if not senders:
            break
        at = cycle_start + (wave - 1) * medium.airtime_us
        frame = SyncFrame(src=originator, seq=beacon_seq, cycle_index=cycle_index, wave=wave)
        txs = [medium.make_transmission(s, frame, slot, channel, at) for s in senders]
        transmissions.extend((wave, tx) for tx in txs)
        for node in nodes:
            if node in holders:
                continue
            outcome = medium.deliver_flood(txs, node)
            outcomes.append((wave, at, outcome))
            if outcome.received:
                holders[node] = wave
                draws = engine.draws(node, "sync", -params.jitter_us, params.jitter_us)
                residual = float(sum(islice(draws, wave)))
                state = states[node]
                state.synced = True
                state.missed_beacons = 0
                receptions.append(BeaconReception(node=node, wave=wave, residual_us=residual))

    desynced = []
    for node in nodes:
        if node == originator or node in holders:
            continue
        state = states[node]
        state.missed_beacons += 1
        if state.synced and state.missed_beacons >= params.miss_limit:
            state.synced = False
            desynced.append(node)
    return BeaconReport(transmissions=transmissions, outcomes=outcomes,
                        receptions=receptions, desynced=desynced)


# the wire layouts, written out again so that a wrong format code in the
# library does not also change the oracle
_SYNC = struct.Struct("<BBBHIB6s")
_CMD = struct.Struct("<BBBHhhB6s")
_FB = struct.Struct("<BBBHiiHB")
_ESTOP = struct.Struct("<BBBH11s")


def _check_u8(value: int, name: str) -> int:
    if not 0 <= value <= 0xFF:
        raise FrameError(f"{name} {value} outside u8 range")
    return value


def _check_u16(value: int, name: str) -> int:
    if not 0 <= value <= 0xFFFF:
        raise FrameError(f"{name} {value} outside u16 range")
    return value


def _check_i16(value: int, name: str) -> int:
    if not -0x8000 <= value <= 0x7FFF:
        raise FrameError(f"{name} {value} outside i16 range")
    return value


def checked_encode_frame(frame) -> bytes:
    """Encode a frame with a named range check on every field before packing.
    A value that passes the checks but is no integer (a float) still makes
    `struct.pack` raise `struct.error`."""
    if isinstance(frame, SyncFrame):
        if frame.dst != BROADCAST:
            raise FrameError("sync frames are broadcast only")
        if not 0 <= frame.cycle_index <= 0xFFFFFFFF:
            raise FrameError(f"cycle index {frame.cycle_index} outside u32 range")
        return _SYNC.pack(MsgType.SYNC, _check_u8(frame.src, "src"), BROADCAST,
                          _check_u16(frame.seq, "seq"), frame.cycle_index,
                          _check_u8(frame.wave, "wave"), bytes(6))
    if isinstance(frame, CmdFrame):
        return _CMD.pack(MsgType.CMD, _check_u8(frame.src, "src"), _check_u8(frame.dst, "dst"),
                         _check_u16(frame.seq, "seq"),
                         _check_i16(frame.left_mms, "left wheel speed"),
                         _check_i16(frame.right_mms, "right wheel speed"),
                         1 if frame.estop else 0, bytes(6))
    if isinstance(frame, FbFrame):
        distance = NO_READING if frame.distance_mm is None else frame.distance_mm
        if not 0 <= distance <= 0xFFFF:
            raise FrameError(f"distance {distance} outside u16 range")
        if not -0x80000000 <= frame.left_ticks <= 0x7FFFFFFF:
            raise FrameError(f"left ticks {frame.left_ticks} outside i32 range")
        if not -0x80000000 <= frame.right_ticks <= 0x7FFFFFFF:
            raise FrameError(f"right ticks {frame.right_ticks} outside i32 range")
        return _FB.pack(MsgType.FB, _check_u8(frame.src, "src"), _check_u8(frame.dst, "dst"),
                        _check_u16(frame.seq, "seq"), frame.left_ticks, frame.right_ticks,
                        distance, 0)
    if isinstance(frame, EstopFrame):
        if frame.dst != BROADCAST:
            raise FrameError("estop frames are broadcast only")
        return _ESTOP.pack(MsgType.ESTOP, _check_u8(frame.src, "src"), BROADCAST,
                           _check_u16(frame.seq, "seq"), bytes(11))
    raise FrameError(f"not a frame: {frame!r}")


def _cell_spec(value) -> str:
    if value is None:
        return "%.0s"
    if isinstance(value, bool):
        return "%d"
    if isinstance(value, float):
        return "%.6f"
    return "%s"


def shape_keyed_csv(rows) -> str:
    """The trace CSV with every row formatted by a pattern keyed on the types of
    its cells: None empty, a bool 1/0, a float six decimals, anything else str."""
    patterns: dict[tuple[type, ...], str] = {}
    lines = [",".join(COLUMNS) + "\n"]
    for row in rows:
        shape = tuple(map(type, row))
        pattern = patterns.get(shape)
        if pattern is None:
            pattern = patterns[shape] = ",".join(map(_cell_spec, row)) + "\n"
        lines.append(pattern % row)
    return "".join(lines)


_FORMATS = {"d": "%s", "s": "%s", "f": "%.6f"}


class FlatTrace:
    """A trace as one flat list of 15 cells per row, in COLUMNS order, None for each
    empty cell: a row is added by position or by keyword (omitted cells are None),
    iterated as a 15-tuple, and written one row at a time by its kind's layout, the
    empty cells dropped.  The store that each row's filled cells replaced."""

    def __init__(self) -> None:
        self.cells: list = []

    def add(self, time_us, kind, cycle=None, slot=None, node=None, frame=None, src=None,
            dst=None, seq=None, cause=None, v1=None, v2=None, v3=None, v4=None, v5=None) -> None:
        self.cells.extend((time_us, cycle, slot, node, kind, frame, src, dst, seq, cause,
                           v1, v2, v3, v4, v5))

    def add_filled(self, time_us, kind, *cells) -> None:
        """Add a row given as `Trace.add` takes it: the cells its kind's layout fills."""
        columns = _filled_columns(id(kind))
        assert len(columns) == len(cells), (kind, cells)
        self.add(time_us, kind, **dict(zip(columns, cells)))

    def __len__(self) -> int:
        return len(self.cells) // len(COLUMNS)

    def __iter__(self):
        return zip(*[iter(self.cells)] * len(COLUMNS))

    def to_csv(self) -> str:
        lines = [",".join(COLUMNS) + "\n"]
        for row in self:
            pattern, filled = _row_pattern(id(row[4]))
            lines.append(pattern % filled(row))
        return "".join(lines)


@lru_cache(maxsize=None)
def _filled_columns(kind_id: int) -> tuple[str, ...]:
    """The columns after time_us that a declared kind's layout fills, kind left out."""
    layout = _KINDS[kind_id][1]
    assert layout[0] != "-"
    return tuple(c for c, letter in zip(COLUMNS[1:4] + COLUMNS[5:], layout[1:]) if letter != "-")


@lru_cache(maxsize=None)
def _row_pattern(kind_id: int) -> tuple[str, itemgetter]:
    """A declared kind's row pattern, and the getter of the cells of a row it formats."""
    kind, layout = _KINDS[kind_id][:2]
    letters = layout[:4] + "k" + layout[4:]
    pattern = ",".join(kind.replace("%", "%%") if letter == "k" else _FORMATS.get(letter, "")
                       for letter in letters) + "\n"
    return pattern, itemgetter(*(i for i, letter in enumerate(letters) if letter not in "k-"))


def flat_copy(trace) -> FlatTrace:
    """The rows of a `Trace`, as `add` received them, in the flat store: read from the
    trace's cells and its count of cells per row, not through its own readers."""
    flat, cells = FlatTrace(), iter(trace._cells)
    for count in trace._counts:
        flat.add_filled(*islice(cells, count))
    return flat


def _frame_id(cycle: int, src: int, dst: int, seq: int) -> int:
    return cycle << 32 | src << 24 | dst << 16 | seq


class RowWalkTraceView:
    """The metrics' view of a trace as one walk of its rows into Python tuples,
    lists, sets and tuple-keyed dicts, with the series derived from them; the
    typed-column `TraceView` must give the same values."""

    def __init__(self, rows):
        self.latencies: list[tuple[int, int, int]] = []  # (apply time, robot, latency us)
        self.poses: dict[int, list[tuple[int, float, float, float, float]]] = {}  # t x y l r
        self.refpoints: dict[int, list[tuple[float, float]]] = {}
        self.attempted: dict[str, set[int]] = {"CMD": set(), "FB": set()}
        self.delivered: dict[str, set[int]] = {"CMD": set(), "FB": set()}
        self.controller_latch_us: int | None = None
        self.plant_latch_us: dict[int, int] = {}
        self.waypoint_complete_us: dict[int, int] = {}
        self.points_reached: list[tuple[int, int, int]] = []  # (time, node, count)

        fb_time: dict[tuple[int, int], int] = {}
        emit_informing: dict[tuple[int, int], int] = {}
        for t, cycle, slot, node, kind, frame, src, dst, seq, cause, v1, v2, v3, v4, v5 in rows:
            if kind == "rx":
                if cause == "delivered" and frame in ("CMD", "FB") and node == dst:
                    self.delivered[frame].add(_frame_id(cycle, src, dst, seq))
            elif kind == "tx":
                if frame in ("CMD", "FB"):
                    self.attempted[frame].add(_frame_id(cycle, src, dst, seq))
            elif kind == "pose":
                self.poses.setdefault(node, []).append(
                    (t, *(v if v.is_integer() else round(v, 6) for v in (v1, v2, v4, v5))))
            elif kind == "fb-sample":
                fb_time[(node, seq)] = t
            elif kind == "cmd-emit":
                emit_informing[(dst, seq)] = v3
            elif kind == "cmd-apply":
                if cause in ("applied", "estop") and slot is not None:
                    informing = emit_informing.get((node, seq))
                    if informing is not None and informing >= 0:
                        t_fb = fb_time.get((node, informing))
                        if t_fb is not None:
                            self.latencies.append((t, node, t - t_fb))
            elif kind == "ref-point":
                self.refpoints.setdefault(node, []).append((round(v1, 6), round(v2, 6)))
            elif kind == "estop":
                if cause == "controller-latch" and self.controller_latch_us is None:
                    self.controller_latch_us = t
                elif cause == "plant-latch":
                    self.plant_latch_us.setdefault(node, t)
            elif kind == "waypoint":
                if v1:
                    self.points_reached.append((t, node, v1))
                if cause == "complete":
                    self.waypoint_complete_us.setdefault(node, t)

    def delivered_count(self, frame: str) -> int:
        return len(self.delivered[frame] & self.attempted[frame])

    def cross_track(self, node: int) -> np.ndarray | None:
        refs = self.refpoints.get(node)
        if not refs:
            return None
        series = self.poses.get(node, [])
        head = [(series[0][1], series[0][2])] if series else []
        return scan_polyline_distances([(x, y) for _, x, y, _, _ in series], head + refs)

    def stationary_time_us(self, node: int, after_us: int) -> int | None:
        for t, _x, _y, vl, vr in self.poses.get(node, []):
            if t >= after_us and abs(vl) < 1e-9 and abs(vr) < 1e-9:
                return t
        return None

    def gap_series(self, leader: int, follower: int) -> list[tuple[int, float]]:
        lead = {t: (x, y) for t, x, y, _, _ in self.poses.get(leader, [])}
        return [(t, math.hypot(lead[t][0] - x, lead[t][1] - y))
                for t, x, y, _, _ in self.poses.get(follower, []) if t in lead]


@dataclass
class PathCursor:
    """Progress along a fixed reference path, by index."""

    points: list[tuple[float, float]]
    tolerance_m: float
    index: int = 0
    in_frame: tuple[float, float] | None = None

    def advance(self, pose: Pose) -> int:
        steps = 0
        self.in_frame = None
        while self.index < len(self.points):
            in_frame = target_in_robot_frame(pose, self.points[self.index])
            if math.hypot(*in_frame) >= self.tolerance_m:
                self.in_frame = in_frame
                break
            self.index += 1
            steps += 1
        return steps


@dataclass
class FollowerQueue:
    """Reference points traced from a leader, popped from the front once reached."""

    min_spacing_m: float
    points: list[tuple[float, float]] = field(default_factory=list)
    in_frame: tuple[float, float] | None = None

    def extend_from_leader(self, leader_pose: Pose) -> bool:
        p = (leader_pose.x, leader_pose.y)
        if not self.points:
            self.points.append(p)
            return True
        last = self.points[-1]
        if math.hypot(p[0] - last[0], p[1] - last[1]) >= self.min_spacing_m:
            self.points.append(p)
            return True
        return False

    def pop_reached(self, pose: Pose, tolerance_m: float) -> int:
        popped = 0
        self.in_frame = None
        while self.points:
            in_frame = target_in_robot_frame(pose, self.points[0])
            if math.hypot(*in_frame) >= tolerance_m:
                self.in_frame = in_frame
                break
            self.points.pop(0)
            popped += 1
        return popped


def gap_position(schedule) -> int:
    for slot in schedule.slots:
        if slot.direction is Direction.GAP:
            return slot.position
    raise ScheduleError("schedule has no compute gap")


def slot_offset_us(schedule, position: int) -> int:
    """Start of slot `position` relative to cycle start; the gap entry is one
    slot stretched by the compute gap."""
    offset = position * schedule.slot_duration_us
    if position > gap_position(schedule):
        offset += schedule.compute_gap_us
    return offset


def hop_of(slot, hop_forward, hop_feedback) -> tuple[int, ...]:
    """The hop sequence of the slot's band, from the sequences handed to
    `build_schedule`: feedback for uplink slots, forward for every other slot."""
    if slot.direction is Direction.GAP:
        raise ScheduleError("gap entry has no channel")
    return hop_feedback if slot.direction is Direction.UPLINK else hop_forward


def _line_starts(code: types.CodeType) -> set[int]:
    return {line for _, line in dis.findlinestarts(code) if line is not None}


def function_lines(path: str | Path, qualname: str = "") -> dict[int, str]:
    """Line -> function for every line of `path` that holds an instruction of a
    function whose qualified name starts with `qualname`, by the line table
    that trace events follow.  Module and class bodies run at import and are
    left out, and so are the lines of `raise` statements; a docstring holds
    no instruction."""
    source = Path(path).read_text(encoding="utf-8")
    raises = {line for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)
              for line in range(node.lineno, node.end_lineno + 1)}
    lines: dict[int, str] = {}
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED and code.co_qualname.startswith(qualname):
            for line in _line_starts(code) - raises:
                lines.setdefault(line, code.co_qualname.split(".<locals>")[0])
    return lines


class LineCollector:
    """Records, with `sys.settrace`, which of the `missed` lines (source file
    -> line numbers) run while the collector is active, taking each out of
    `missed`, and stops tracing once none is left: tracing slows every call,
    not only those in the given files.  A function's first line counts as run
    when it is called (its RESUME raises no line event), and a function with
    no missed line left is no longer traced."""

    def __init__(self, missed: dict[str, set[int]]):
        self.missed = {str(path): set(lines) for path, lines in missed.items()}
        self._missed_in: dict[types.CodeType, set[int]] = {}

    @property
    def done(self) -> bool:
        return not any(self.missed.values())

    def __enter__(self) -> "LineCollector":
        if not self.done:
            sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)

    def _call(self, frame, event, arg):
        code = frame.f_code
        missed = self.missed.get(code.co_filename)
        if missed is None:
            return None
        left = self._missed_in.get(code)
        if left is None:
            left = self._missed_in[code] = _line_starts(code)
        left &= missed
        if not left:
            return None
        self._ran(frame)
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self._ran(frame)
        return self._line

    def _ran(self, frame) -> None:
        missed = self.missed[frame.f_code.co_filename]
        if frame.f_lineno in missed:
            missed.discard(frame.f_lineno)
            if not missed and self.done:
                sys.settrace(None)
