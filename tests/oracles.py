"""Independent reference implementations used to pin expected test values.

These deliberately avoid the library's own code paths: the RK4 integrator
checks the exact-arc kinematics, the brute-force polyline distance checks the
vectorized metric, and the scan of every segment pins the pruned search's
exact bits.
"""

from __future__ import annotations

import math

import numpy as np


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
