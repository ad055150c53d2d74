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
    cmd-apply   node=robot, seq, cause=applied|estop|latched|local,
                v1=left v2=right
    waypoint    node=robot, v1=reference points reached, cause="complete" in
                the cycle a path's last point is reached
    estop       node, cause=controller-latch|plant-latch
    pose        node=robot, v1=x v2=y v3=theta v4=left actual v5=right actual
    end         cause=completed|estopped|timeout, v1=cycles run

`Trace.add(time_us, kind, cycle, slot, node, frame, src, dst, seq, cause,
v1, ..., v5)` takes the kind second and the other cells in column order, by
position or by keyword (omitted cells are None); the per-cycle rows of the
simulator pass them by position, which binds faster than keywords.  A trace
keeps the cells of every row in one flat list, in column order, exactly as
passed (ints, strs, floats, None): a stored row leaves no object of its own,
so the rows that grow as N^2 give the cyclic collector nothing to scan.
Iterating a trace rebuilds each row as a tuple in COLUMNS order, and cells are
formatted once, in `to_csv`.  The simulator's per-cycle rows (tx, rx, sync,
sync-miss, fb-sample, cmd-emit, cmd-apply, pose) pass a kind made by
`declare_kind`: `to_csv` knows it by identity and trusts its declared cell
types without inspecting the cells.  Other rows are formatted by the types of
their cells: None is an empty cell, a bool is 1/0, a float has six decimals,
anything else is `str`.  `write_csv` streams the rows to disk one at a time,
so the text of the whole file is never held in memory.  A rerun with the same
config reproduces the file byte for byte.  `load_trace` parses a CSV back into
the same typed form, with each float the six-decimal value.
"""

from __future__ import annotations

import csv
import io
import sys
from operator import itemgetter
from pathlib import Path
from typing import TextIO

COLUMNS = ("time_us", "cycle", "slot", "node", "kind", "frame", "src", "dst",
           "seq", "cause", "v1", "v2", "v3", "v4", "v5")
_WIDTH = len(COLUMNS)


def _spec(value) -> str:
    """The %-format of one cell: None -> "", bool -> 1/0, float -> six decimals."""
    if value is None:
        return "%.0s"
    if isinstance(value, bool):
        return "%d"
    if isinstance(value, float):
        return "%.6f"
    return "%s"


_KINDS: dict[int, tuple[str, str, str, itemgetter]] = {}  # id -> kind, layout, pattern, cells


def declare_kind(name: str, layout: str) -> str:
    """A new str equal to `name` (two letters or more: a shorter str is shared) for a call
    site whose rows always have `layout`: a letter per column but kind, in COLUMNS order
    ("s" int or str, "f" float, "-" empty).  An exact str, which compares, hashes and
    formats as `name` does."""
    layout = layout.replace(" ", "")
    kind = sys.intern(name).encode().decode()  # new; equal literals stay the interned one
    if len(name) < 2 or len(layout) != len(COLUMNS) - 1 or not set(layout) <= {"s", "f", "-"}:
        raise ValueError(f"cannot declare kind {name!r} with layout {layout!r}")
    formats = [{"s": "%s", "f": "%.6f", "-": ""}[c] for c in layout]
    formats.insert(4, name.replace("%", "%%"))  # the kind column
    cells = itemgetter(*(i + (i >= 4) for i, c in enumerate(layout) if c != "-"))
    _KINDS[id(kind)] = (kind, layout, ",".join(formats) + "\n", cells)  # kind keeps its id
    return kind


class Trace:
    """Rows of native values, kept as one flat list of cells, plus CSV serialization."""

    def __init__(self) -> None:
        self._cells: list = []  # _WIDTH cells per row, in COLUMNS order

    def add(self, time_us: int, kind: str, cycle=None, slot=None, node=None,
            frame=None, src=None, dst=None, seq=None, cause=None,
            v1=None, v2=None, v3=None, v4=None, v5=None) -> None:
        self._cells.extend((time_us, cycle, slot, node, kind, frame, src, dst, seq,
                            cause, v1, v2, v3, v4, v5))

    def __len__(self) -> int:
        return len(self._cells) // _WIDTH

    def __iter__(self):
        """Each row as a tuple in COLUMNS order, rebuilt from the cells."""
        return zip(*[iter(self._cells)] * _WIDTH)

    def to_csv(self, out: TextIO | None = None) -> str | None:
        """Write the header and every row to the text stream `out`, one row at
        a time; with no stream, return the whole text instead."""
        if out is None:
            text = io.StringIO()
            self.to_csv(text)
            return text.getvalue()
        # other kinds have only a dozen or so row type-shapes: one pattern per shape
        patterns: dict[tuple[type, ...], str] = {}
        write, kinds = out.write, _KINDS
        write(",".join(COLUMNS) + "\n")
        for row in self:
            declared = kinds.get(id(row[4]))
            if declared is not None:  # the layout is trusted, not checked
                write(declared[2] % declared[3](row))
                continue
            shape = tuple(map(type, row))
            pattern = patterns.get(shape)
            if pattern is None:
                pattern = patterns[shape] = ",".join(map(_spec, row)) + "\n"
            write(pattern % row)
        return None

    def write_csv(self, path: str | Path) -> None:
        """Stream the CSV to `path`: no copy of the whole text is ever held."""
        with open(path, "w", encoding="utf-8") as fh:
            self.to_csv(fh)


def _parse(cell: str):
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def load_trace(path: str | Path) -> list[tuple]:
    """Read a trace CSV back into the in-memory row form: "" -> None, integer
    text -> int, decimal text -> float, anything else stays a str.  A row
    without one cell per column (a truncated file) raises ValueError."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != COLUMNS:
            raise ValueError(f"not a trace file: unexpected header {header}")
        rows = []
        for row in reader:
            if len(row) != len(COLUMNS):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} cells, "
                                 f"expected {len(COLUMNS)}")
            rows.append(tuple(map(_parse, row)))
        return rows
