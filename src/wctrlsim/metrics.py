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

import numpy as np

_BLOCK = 128  # points per block at least; never more blocks than segments
_MARGIN_M = 1e-9  # slack on the box bound for the rounding of both distances


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
        return best
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


def thin_polyline(points, min_spacing_m: float = 0.002) -> list[tuple[float, float]]:
    """Drop points closer than min_spacing to the previous kept point."""
    kept: list[tuple[float, float]] = []
    for x, y in points:
        if not kept or math.hypot(x - kept[-1][0], y - kept[-1][1]) >= min_spacing_m:
            kept.append((x, y))
    return kept


def cdf_pairs(values) -> list[tuple[float, float]]:
    """Sorted (value, cumulative fraction) pairs over the samples."""
    if len(values) == 0:
        return []
    arr = np.sort(np.asarray(values, dtype=float))
    uniq, counts = np.unique(arr, return_counts=True)
    fractions = np.cumsum(counts) / len(arr)
    return [(float(v), float(f)) for v, f in zip(uniq, fractions)]


def _frame_id(cycle: int, src: int, dst: int, seq: int) -> int:
    """(cycle, src, dst, seq) packed into an int, half a tuple's memory: the cycle
    parts frames whose 16-bit seq wrapped; retx copies share their frame's cycle."""
    return cycle << 32 | src << 24 | dst << 16 | seq


class TraceView:
    """Single-pass extraction of everything the metrics need from the rows of a
    `Trace`, as a run builds it or as `load_trace` reads it back."""

    def __init__(self, rows):
        self.latencies: list[tuple[int, int, int]] = []  # (apply time, robot, latency us)
        self.poses: dict[int, list[tuple[int, float, float, float, float]]] = {}  # t x y l r
        self.refpoints: dict[int, list[tuple[float, float]]] = {}
        self.attempted: dict[str, set[int]] = {"CMD": set(), "FB": set()}  # _frame_id
        self.delivered: dict[str, set[int]] = {"CMD": set(), "FB": set()}
        self.controller_latch_us: int | None = None
        self.plant_latch_us: dict[int, int] = {}
        self.waypoint_complete_us: dict[int, int] = {}
        self.points_reached: list[tuple[int, int, int]] = []  # (time, node, count)

        fb_time: dict[tuple[int, int], int] = {}
        emit_informing: dict[tuple[int, int], int] = {}
        for t, cycle, slot, node, kind, frame, src, dst, seq, cause, v1, v2, v3, v4, v5 in rows:
            if kind == "rx":  # the commonest kinds first
                if cause == "delivered" and frame in ("CMD", "FB") and node == dst:
                    self.delivered[frame].add(_frame_id(cycle, src, dst, seq))
            elif kind == "tx":
                if frame in ("CMD", "FB"):
                    self.attempted[frame].add(_frame_id(cycle, src, dst, seq))
            elif kind == "pose":  # v1..v5 = x y theta left right; no metric reads theta
                series = self.poses.get(node) or self.poses.setdefault(node, [])
                # as in trace.csv: round(v, 6) == float(f"{v:.6f}"), which a whole v equals
                series.append((t, v1 if v1.is_integer() else round(v1, 6),
                               v2 if v2.is_integer() else round(v2, 6),
                               v4 if v4.is_integer() else round(v4, 6),
                               v5 if v5.is_integer() else round(v5, 6)))
            elif kind == "fb-sample":
                fb_time[(node, seq)] = t
            elif kind == "cmd-emit":
                emit_informing[(dst, seq)] = v3
            elif kind == "cmd-apply":
                # radio applications only: local (co-located) loops have no slot
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
                if v1:  # reference points reached this cycle
                    self.points_reached.append((t, node, v1))
                if cause == "complete":
                    self.waypoint_complete_us.setdefault(node, t)

    # -- derived series ------------------------------------------------------

    def reference_polyline(self, node: int) -> list[tuple[float, float]] | None:
        refs = self.refpoints.get(node)
        if not refs:
            return None
        series = self.poses.get(node)
        head = [(series[0][1], series[0][2])] if series else []
        return head + refs

    def cross_track(self, node: int) -> np.ndarray | None:
        """Cross-track error of each of the node's poses, or None without reference points."""
        polyline = self.reference_polyline(node)
        if polyline is None:
            return None
        return polyline_distances([(x, y) for _, x, y, _, _ in self.poses.get(node, ())], polyline)

    def stationary_time_us(self, node: int, after_us: int) -> int | None:
        for t, _x, _y, vl, vr in self.poses.get(node, []):
            if t >= after_us and abs(vl) < 1e-9 and abs(vr) < 1e-9:
                return t
        return None

    def gap_series(self, leader: int, follower: int) -> list[tuple[int, float]]:
        lead = {t: (x, y) for t, x, y, _, _ in self.poses.get(leader, [])}
        out = []
        for t, x, y, _, _ in self.poses.get(follower, []):
            pos = lead.get(t)
            if pos is not None:
                out.append((t, math.hypot(pos[0] - x, pos[1] - y)))
        return out

    def convergence_time_us(self, follower: int, min_reached: int = 3) -> int | None:
        total = 0
        for t, node, count in self.points_reached:
            if node == follower:
                total += count
                if total >= min_reached:
                    return t
        return None


def _latency_stats(latencies: list[int]) -> dict:
    if not latencies:
        return {"count": 0, "min_us": None, "mean_us": None, "p99_us": None,
                "max_us": None, "cdf": [], "counts": []}
    arr = np.asarray(latencies, dtype=float)
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
    attempted = len(view.attempted[frame])
    delivered = len(view.delivered[frame] & view.attempted[frame])
    return {"attempted": attempted, "delivered": delivered,
            "ratio": delivered / attempted if attempted else None}


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
        "cycle_time": _latency_stats([lat for _, _, lat in view.latencies]),
        "delivery": {"cmd": _ratio(view, "CMD"), "fb": _ratio(view, "FB")},
        "tracking": {},
        "waypoints": {},
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
    for node, t in sorted(view.waypoint_complete_us.items()):
        report["waypoints"][str(node)] = {"completion_time_us": t}

    if config.kind == "leader-follower":
        leader = config.by_role("leader")[0].node_id
        follower = config.by_role("follower")[0].node_id
        gaps = view.gap_series(leader, follower)
        converged = view.convergence_time_us(follower)
        platoon: dict = {"converged_at_us": converged}
        if gaps:
            platoon["gap_min_m"] = float(min(g for _, g in gaps))
            platoon["gap_mean_m"] = float(np.mean([g for _, g in gaps]))
        if converged is not None:
            post = [g for t, g in gaps if t >= converged]
            if post:
                platoon["gap_min_post_convergence_m"] = float(min(post))
            leader_path = thin_polyline([(x, y) for _, x, y, _, _
                                         in view.poses.get(leader, [])])
            follower_xy = np.array([(x, y) for t, x, y, _, _
                                    in view.poses.get(follower, []) if t >= converged],
                                   dtype=float).reshape(-1, 2)
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
                "latency_us": (None if stationary is None
                               else stationary - view.controller_latch_us),
            }
        report["estop"] = estop
    return report
