"""Run metrics: closed-loop latency, delivery ratios, tracking error, estop timing.

Closed-loop latency is sampling-to-actuation: for every command a robot
applies, the time since the feedback sample that informed it (joined through
the informing-feedback sequence number logged at emit time).  The raw schedule
cycle length is reported alongside.

Cross-track error is the distance from each ground-truth pose to the nearest
point of the reference polyline (the robot's start position prepended to its
reference points).  In a platoon the follower is measured against the leader's
traced path, thinned to segments of at least 2 mm.  The search is pruned: each
block of consecutive poses skips the segments whose bounding boxes are provably
too far, and the result is bit-identical to a scan of every segment.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .trace import (CMD_APPLY, CMD_EMIT, CMD_EMIT_ESTOP, ESTOP_CONTROLLER, ESTOP_PLANT, FB_SAMPLE,
                    FB_SAMPLE_LOCAL, POSE, REF_POINT, RX, RX_EMPTY, SYNC_RX, SYNC_TX, TX, WAYPOINT,
                    WAYPOINT_COMPLETE, Trace)

_BLOCK = 128  # points per block at least; never more blocks than segments
_MARGIN_M = 1e-9  # slack on the box bound for the rounding of both distances
_NO_POSES = (np.empty(0, np.int64), np.empty((0, 4)))  # a node that has none: t, x y left right


def polyline_distances(points, polyline) -> np.ndarray:
    """Distance from each point to the nearest location on a polyline.

    The points are walked in blocks of consecutive points.  A segment whose
    bounding box lies farther from the block's box than the block's largest
    distance so far cannot lower any of them, so each block visits the
    segments nearest box first and stops at the first that is farther.  Every
    segment it visits gets the same per-point expression as a scan of all
    segments, and a minimum is exact, so the result is bit-identical to one.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    poly = np.asarray(polyline, dtype=float).reshape(-1, 2)
    if len(poly) == 0:
        raise ValueError("empty polyline")
    best = np.hypot(pts[:, 0] - poly[0, 0], pts[:, 1] - poly[0, 1])
    starts, ends = poly[:-1], poly[1:]
    if len(starts) == 0 or len(pts) == 0:
        return best  # a one-point polyline, or no points
    steps = ends - starts
    denoms = [float(ab @ ab) for ab in steps]
    lo, hi = np.minimum(starts, ends), np.maximum(starts, ends)
    size = max(_BLOCK, -(-len(pts) // len(starts)))
    # a lone last point joins the block before it: numpy takes a one-row
    # matrix-vector product through dot, not gemv, and the two can round apart
    firsts = list(range(0, max(len(pts) - 1, 1), size))
    for first, stop in zip(firsts, firsts[1:] + [len(pts)]):
        block = pts[first:stop]
        block_best = best[first:stop]  # a view: updated in place
        gap = np.maximum(np.maximum(lo - block.max(axis=0), block.min(axis=0) - hi), 0.0)
        bound = np.hypot(gap[:, 0], gap[:, 1])
        order = np.argsort(bound)
        for i, lower in zip(order.tolist(), bound[order].tolist()):
            if lower > block_best.max() + _MARGIN_M:
                break
            a, ab, denom = starts[i], steps[i], denoms[i]
            if denom == 0.0:
                d = np.hypot(block[:, 0] - a[0], block[:, 1] - a[1])
            else:
                t = np.clip(((block - a) @ ab) / denom, 0.0, 1.0)
                proj = a + t[:, None] * ab
                d = np.hypot(block[:, 0] - proj[:, 0], block[:, 1] - proj[:, 1])
            np.minimum(block_best, d, out=block_best)
    return best


def thin_polyline(points, min_spacing_m: float = 0.002) -> np.ndarray:
    """The (n, 2) points less each closer than min_spacing to the previous kept point."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    (xs, ys), kept = pts.T.tolist(), array("q")  # indices: a kept point leaves no object
    for i, (x, y) in enumerate(zip(xs, ys)):
        if not kept or math.hypot(x - xs[kept[-1]], y - ys[kept[-1]]) >= min_spacing_m:
            kept.append(i)
    return pts[np.frombuffer(kept, np.int64)]


def cdf_pairs(values) -> list[tuple[float, float]]:
    """Sorted (value, cumulative fraction) pairs over the samples."""
    arr = np.sort(np.asarray(values, dtype=float))
    uniq, counts = np.unique(arr, return_counts=True)
    fractions = np.cumsum(counts) / len(arr)
    return [(float(v), float(f)) for v, f in zip(uniq, fractions)]


def _distinct(ids) -> np.ndarray:
    """The sorted distinct rows of a buffer of (cycle, src << 24 | dst << 16 | seq) int64
    pairs: retx copies share their frame's cycle, which parts frames whose seq wrapped."""
    pairs = np.frombuffer(ids, np.int64).reshape(-1, 2)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return pairs[np.diff(pairs, axis=0, prepend=-1).any(axis=1)]  # the first of each run


def _latest(pairs, keys, before) -> np.ndarray:
    """Per key, the value of its last row among the first `before` (key, value) int64 rows,
    or -1: a join in trace order.  A first (-1, -1) row keeps them non-empty, matches key -1."""
    pairs = np.frombuffer(pairs, np.int64).reshape(-1, 2)
    n = len(pairs)  # a key < 2**24 (node <= 0xFE, 16-bit seq): key * n + row fits for n < 2**39
    ranks = np.sort(pairs[:, 0] * n + np.arange(n))  # by key, then trace order
    row = ranks[np.searchsorted(ranks, keys * n + before) - 1] % n
    return np.where(pairs[row, 0] == keys, pairs[row, 1], -1)


def _round6(values: np.ndarray) -> np.ndarray:
    """Each value in place as round(v, 6) == float(f"{v:.6f}"), bit for bit: k / 1e6 for the
    integer k nearest v * 1e6 wherever the product's rounding (2**-53 of it at most) cannot
    have moved k across a half, a whole value as it is, and round(v, 6) elsewhere."""
    for part in np.split(values, range(4096, len(values), 4096)):  # small temporaries
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan go to round
            scaled = part * 1e6
            k = np.rint(scaled)
            size = np.abs(scaled)
            sure = (0.5 - np.abs(scaled - k) > size * 2.0**-52) & (size < 2.0**52)
            whole = part == np.trunc(part)
        unsure = ~(sure | whole)
        rounded = [round(v, 6) for v in part[unsure].tolist()]
        np.divide(k, 1e6, out=part, where=~whole)
        part[unsure] = rounded
    return values


class TraceView:
    """Single-pass extraction of everything the metrics need from the rows of a
    `Trace`, as a run builds it or as `load_trace` reads it back, into typed arrays
    read through numpy views and joined by packed int keys: no Python object per row.
    The walk reads the trace's cells block by block, picks each row by its declared
    kind object and reads only the cells of the kinds that a metric uses."""

    def __init__(self, trace: Trace):
        applies = array("q")  # t, robot, seq, emits and samples before it per radio apply
        poses: dict[int, tuple[array, array]] = {}  # node -> t, (x y left right) per pose
        attempted = {"CMD": array("q"), "FB": array("q")}  # cycle, src dst seq per frame
        delivered = {"CMD": array("q"), "FB": array("q")}
        self.refpoints: dict[int, list[tuple[float, float]]] = {}
        self.controller_latch_us: int | None = None
        self.plant_latch_us: dict[int, int] = {}
        self.waypoint_complete_us: dict[int, int] = {}
        self.points_reached: list[tuple[int, int, int]] = []  # (time, node, count)

        samples = array("q", (-1, -1))  # node << 16 | seq, sample time per fb sample
        emits = array("q", (-1, -1))  # dst << 16 | seq, informing feedback seq per emit
        # c[p] is a row's kind, c[p - 1] its time and c[p + i] the i-th other cell that its
        # layout fills, named beside each kind below; the commonest kinds come first, as locals
        rx_empty, tx, sync_tx, rx, sync_rx, cmd_emit, pose = (
            RX_EMPTY, TX, SYNC_TX, RX, SYNC_RX, CMD_EMIT, POSE)
        for _, c, kinds_at in trace.blocks():
            for p in kinds_at:
                kind = c[p]
                if kind is rx_empty:
                    continue
                if kind is tx or kind is sync_tx:  # cycle slot node frame src dst seq
                    if c[p + 4] in attempted:
                        attempted[c[p + 4]].extend(
                            (c[p + 1], c[p + 5] << 24 | c[p + 6] << 16 | c[p + 7]))
                elif kind is rx or kind is sync_rx:  # cycle slot node frame src dst seq cause
                    if c[p + 3] == c[p + 6] and c[p + 8] == "delivered" and c[p + 4] in delivered:
                        delivered[c[p + 4]].extend(
                            (c[p + 1], c[p + 5] << 24 | c[p + 6] << 16 | c[p + 7]))
                elif kind is cmd_emit or kind is CMD_EMIT_ESTOP:
                    # cycle node frame src dst seq [cause] left right informing
                    emits.extend((c[p + 5] << 16 | c[p + 6], c[p + 9 + (kind is not cmd_emit)]))
                elif kind is pose:  # cycle node x y theta left right; no metric reads theta
                    node = c[p + 2]
                    ts, xylr = poses.get(node) or poses.setdefault(node, (array("q"), array("d")))
                    ts.append(c[p - 1])
                    x, y, _, left, right = c[p + 3:p + 8]
                    xylr.extend((x, y, left, right))  # rounded after the walk, as in trace.csv
                elif kind is FB_SAMPLE or kind is FB_SAMPLE_LOCAL:  # cycle [slot] node seq
                    at = p + (kind is FB_SAMPLE)
                    samples.extend((c[at + 2] << 16 | c[at + 3], c[p - 1]))
                elif kind is CMD_APPLY:  # cycle slot node frame src dst seq cause: radio only
                    if c[p + 8] in ("applied", "estop"):
                        applies.extend((c[p - 1], c[p + 3], c[p + 7], len(emits) // 2,
                                        len(samples) // 2))
                elif kind is REF_POINT:  # node seq x y
                    self.refpoints.setdefault(c[p + 1], []).append(
                        (round(c[p + 3], 6), round(c[p + 4], 6)))
                elif kind is ESTOP_CONTROLLER or kind is ESTOP_PLANT:  # cycle node cause
                    if c[p + 3] == "controller-latch" and self.controller_latch_us is None:
                        self.controller_latch_us = c[p - 1]
                    elif c[p + 3] == "plant-latch":
                        self.plant_latch_us.setdefault(c[p + 2], c[p - 1])
                elif kind is WAYPOINT or kind is WAYPOINT_COMPLETE:  # cycle node [cause] reached
                    reached = c[p + 3 + (kind is WAYPOINT_COMPLETE)]  # reference points, this cycle
                    if reached:
                        self.points_reached.append((c[p - 1], c[p + 2], reached))
                    if kind is WAYPOINT_COMPLETE and c[p + 3] == "complete":
                        self.waypoint_complete_us.setdefault(c[p + 2], c[p - 1])

        t, robot, seq, n_emits, n_samples = np.frombuffer(applies, np.int64).reshape(-1, 5).T
        informing = _latest(emits, robot << 16 | seq, n_emits)
        t_fb = _latest(samples, robot << 16 | informing, n_samples)  # -1: none joined
        self.latencies = np.stack((t, robot, t - t_fb), axis=1)[t_fb >= 0]  # t, robot, latency us
        del applies, samples, emits  # free them before the copies below, as pop does each id buffer
        self.attempted = {frame: _distinct(attempted.pop(frame)) for frame in ("CMD", "FB")}
        self.delivered = {frame: _distinct(delivered.pop(frame)) for frame in ("CMD", "FB")}
        self.poses = {node: (np.frombuffer(ts, np.int64),  # node -> t, (n, 4) x y left right
                             _round6(np.frombuffer(xylr)).reshape(-1, 4))
                      for node, (ts, xylr) in poses.items()}

    # -- derived series ------------------------------------------------------

    def reference_polyline(self, node: int) -> np.ndarray | None:
        """The node's first pose followed by its reference points, or None without any."""
        refs = self.refpoints.get(node)
        return np.concatenate((self.poses.get(node, _NO_POSES)[1][:1, :2], refs)) if refs else None

    def cross_track(self, node: int) -> np.ndarray | None:
        """Cross-track error of each of the node's poses, or None without reference points."""
        polyline, (_, xylr) = self.reference_polyline(node), self.poses.get(node, _NO_POSES)
        return None if polyline is None else polyline_distances(xylr[:, :2], polyline)

    def stationary_time_us(self, node: int, after_us: int) -> int | None:
        """Time of the node's first pose at or after `after_us` with both wheels still."""
        t, xylr = self.poses.get(node, _NO_POSES)
        still = np.flatnonzero((t >= after_us) & (np.abs(xylr[:, 2:]) < 1e-9).all(axis=1))
        return int(t[still[0]]) if still.size else None

    def gap_series(self, leader: int, follower: int) -> tuple[np.ndarray, np.ndarray]:
        """(time, gap) at each follower pose, in trace order, that has a leader pose at
        the same time, against the last such leader pose.  Each gap is math.hypot's,
        which numpy's hypot can differ from in the last bit."""
        lead_t, lead = self.poses.get(leader, _NO_POSES)
        follow_t, follow = self.poses.get(follower, _NO_POSES)
        times, from_end = np.unique(lead_t[::-1], return_index=True)  # the first from the end
        paired = np.isin(follow_t, times)
        t = follow_t[paired]
        i = len(lead_t) - 1 - from_end[np.searchsorted(times, t)]  # the last leader pose at t
        dx, dy = (lead[i, :2] - follow[paired, :2]).T.tolist()
        return t, np.fromiter(map(math.hypot, dx, dy), float, len(t))

    def convergence_time_us(self, follower: int, min_reached: int = 3) -> int | None:
        total = 0
        for t, node, count in self.points_reached:
            if node == follower:
                total += count
                if total >= min_reached:
                    return t
        return None


def _latency_stats(latencies: np.ndarray) -> dict:
    if not latencies.size:
        return {"count": 0, "min_us": None, "mean_us": None, "p99_us": None,
                "max_us": None, "cdf": [], "counts": []}
    arr = latencies.astype(float)
    uniq, counts = np.unique(arr, return_counts=True)
    return {
        "count": int(arr.size),
        "min_us": float(arr.min()),
        "mean_us": float(arr.mean()),
        "p99_us": float(np.percentile(arr, 99)),
        "max_us": float(arr.max()),
        "cdf": cdf_pairs(arr),
        "counts": [(float(v), int(c)) for v, c in zip(uniq, counts)],
    }


def _ratio(view: TraceView, frame: str) -> dict:
    attempted, delivered = view.attempted[frame], view.delivered[frame]
    both = len(attempted) + len(delivered) - len(_distinct(np.concatenate((attempted, delivered))))
    return {"attempted": len(attempted), "delivered": both,
            "ratio": both / len(attempted) if len(attempted) else None}


def compute_metrics(run) -> dict:
    """Build the metrics report of a finished `Simulation`."""
    view = TraceView(run.trace)
    config, schedule = run.config, run.schedule
    report: dict = {
        "config_digest": config.digest(),
        "kind": config.kind,
        "seed": config.seed,
        "end": {"reason": run.end_reason, "time_us": run.end_time_us, "cycles": run.cycle},
        "schedule": {
            "cycle_length_us": schedule.cycle_length_us,
            "n_slots": len(schedule.slots),
            "slot_duration_us": schedule.slot_duration_us,
            "compute_gap_us": schedule.compute_gap_us,
        },
        "cycle_time": _latency_stats(view.latencies[:, 2]),
        "delivery": {"cmd": _ratio(view, "CMD"), "fb": _ratio(view, "FB")},
        "tracking": {},
        "waypoints": {str(node): {"completion_time_us": t}
                      for node, t in sorted(view.waypoint_complete_us.items())},
    }

    for node in sorted(view.poses):
        d = view.cross_track(node)
        if d is None:
            continue
        report["tracking"][str(node)] = {
            "rms_m": float(np.sqrt(np.mean(d * d))),
            "max_m": float(d.max()),
            "samples": int(d.size),
        }

    if config.kind == "leader-follower":
        leader = config.by_role("leader")[0].node_id
        follower = config.by_role("follower")[0].node_id
        gap_t, gaps = view.gap_series(leader, follower)
        converged = view.convergence_time_us(follower)
        platoon: dict = {"converged_at_us": converged}
        if gaps.size:
            platoon["gap_min_m"] = float(gaps.min())
            platoon["gap_mean_m"] = float(np.mean(gaps))
        if converged is not None:
            post = gaps[gap_t >= converged]
            if post.size:
                platoon["gap_min_post_convergence_m"] = float(post.min())
            leader_path = thin_polyline(view.poses.get(leader, _NO_POSES)[1][:, :2])
            follow_t, follow = view.poses.get(follower, _NO_POSES)
            follower_xy = follow[follow_t >= converged, :2]
            if len(leader_path) >= 2 and follower_xy.size:
                d = polyline_distances(follower_xy, leader_path)
                platoon["follower_rms_vs_leader_m"] = float(np.sqrt(np.mean(d * d)))
                platoon["follower_max_vs_leader_m"] = float(d.max())
        report["platoon"] = platoon

    if view.controller_latch_us is not None:
        estop: dict = {"latch_time_us": view.controller_latch_us, "per_robot": {}}
        for node in sorted(view.poses):
            stationary = view.stationary_time_us(node, view.controller_latch_us)
            estop["per_robot"][str(node)] = {
                "stationary_time_us": stationary,
                "latency_us": None if stationary is None else stationary - view.controller_latch_us,
            }
        report["estop"] = estop
    return report
