"""Append-only run trace with a fixed CSV column set.

Every row is (time_us, cycle, slot, node, kind, frame, src, dst, seq, cause,
v1..v5); the meaning of v1..v5 depends on the kind:

    meta        v1=cycle_length_us v2=airtime_us v3=n_slots v4=seed
    ref-point   node=robot, seq=point index, v1=x v2=y
    tx          frame/src/dst/seq, v1=channel, v2=wave (sync floods)
    rx          frame/src/dst/seq, cause, v1=channel, v2=wave
    sync        node re-aligned: v1=residual_us v2=wave
    sync-miss   node missed a beacon: v1=missed count
    desync      node lost sync (miss limit reached)
    fb-sample   node=robot, seq=feedback seq, v1=left ticks v2=right ticks
                v3=distance mm (-1 = no reading)
    cmd-emit    src=controller dst=robot seq, v1=left v2=right
                v3=informing feedback seq (-1 = none yet), cause="estop" if flagged
    cmd-apply   node=robot, seq, cause=applied|estop|stale|latched|local,
                v1=left v2=right
    waypoint    node=robot, v1=points consumed, cause="complete" when done,
                "holding" while a follower holds its standoff
    estop       node, cause=controller-latch|plant-latch
    pose        node=robot, v1=x v2=y v3=theta v4=left actual v5=right actual
    end         cause=completed|estopped|timeout, v1=cycles run

Floats are formatted to six decimals at append time, so a rerun with the same
config reproduces the file byte for byte.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

COLUMNS = ("time_us", "cycle", "slot", "node", "kind", "frame", "src", "dst",
           "seq", "cause", "v1", "v2", "v3", "v4", "v5")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


class Trace:
    """In-memory rows plus CSV serialization; rows are plain string tuples."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, ...]] = []

    def add(self, time_us: int, kind: str, *, cycle=None, slot=None, node=None,
            frame=None, src=None, dst=None, seq=None, cause=None,
            v1=None, v2=None, v3=None, v4=None, v5=None) -> None:
        self.rows.append((_fmt(time_us), _fmt(cycle), _fmt(slot), _fmt(node),
                          kind, _fmt(frame), _fmt(src), _fmt(dst), _fmt(seq),
                          _fmt(cause), _fmt(v1), _fmt(v2), _fmt(v3), _fmt(v4),
                          _fmt(v5)))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(COLUMNS) + "\n")
        for row in self.rows:
            out.write(",".join(row) + "\n")
        return out.getvalue()

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")


def load_trace(path: str | Path) -> list[tuple[str, ...]]:
    """Read a trace CSV back into the in-memory row form (string tuples)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise ValueError(f"not a trace file: unexpected header {header}")
        return [tuple(row) for row in reader]
