"""Append-only run trace with a fixed CSV column set, and the one table of row layouts.

Every row is (time_us, cycle, slot, node, kind, frame, src, dst, seq, cause,
v1..v5).  Each kind of row the simulator writes is declared below, once, with
its layout and beside it what its cells mean.  The layout drives both
directions: `to_csv` writes a row as its kind's pattern filled with its
non-empty cells, trusting the declared types without inspecting them, and
`load_trace` finds each row's kind by its name and which of its cells are
empty, then builds the row in one call: the kind, None for each empty cell and
each filled cell read by its letter.  So a written file loads back into a
`Trace` that writes the same bytes again.

`Trace.add(time_us, kind, cycle, slot, node, frame, src, dst, seq, cause,
v1, ..., v5)` takes a declared kind second and the other cells in column order,
by position or by keyword (omitted cells are None); the per-cycle rows of the
simulator pass them by position, which binds faster than keywords.  A trace
keeps the cells of every row in one flat list, in column order, exactly as
passed: a stored row leaves no object of its own, so the rows that grow as N^2
give the cyclic collector nothing to scan.  Iterating a trace rebuilds each row
as a tuple in COLUMNS order.  `write_csv` streams the rows to disk one at a
time, so the text of the whole file is never held in memory.  A rerun with the
same config reproduces the file byte for byte.
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

# layout letter -> (format, the expression that reads cell {0} of a row r read as text)
_LETTERS = {"d": ("%s", "int(r[{0}])"), "s": ("%s", "r[{0}]"), "f": ("%.6f", "float(r[{0}])"),
            "-": ("", "None")}
_KINDS: dict[int, tuple] = {}  # id -> kind, layout, pattern, cells, row builder
_LAYOUTS: dict[tuple[str, tuple[bool, ...]], tuple] = {}  # (name, filled cells) -> _KINDS entry


def declare_kind(name: str, layout: str) -> str:
    """A new str equal to `name` (two letters or more: a shorter str is shared) whose
    rows always have `layout`: a letter per column but kind, in COLUMNS order ("d" int,
    "s" str, "f" float, "-" empty).  An exact str, which compares, hashes and formats
    as `name` does.  Two layouts of one name must differ in which cells are empty, so
    that a row read back finds its kind."""
    layout = layout.replace(" ", "")
    if len(name) < 2 or len(layout) != _WIDTH - 1 or not set(layout) <= set(_LETTERS):
        raise ValueError(f"cannot declare kind {name!r} with layout {layout!r}")
    filled = (name, tuple(c != "-" for c in layout[:4] + "k" + layout[4:]))
    first = _LAYOUTS.get(filled)
    if first is not None and first[1] != layout:
        raise ValueError(f"kind {name!r}: layout {layout!r} has the empty cells of {first[1]!r}")
    kind = sys.intern(name).encode().decode()  # new; equal literals stay the interned one
    formats, reads = zip(*(_LETTERS[c] for c in layout))
    pattern = ",".join((*formats[:4], name.replace("%", "%%"), *formats[4:])) + "\n"
    cells = itemgetter(*(i + (i >= 4) for i, c in enumerate(layout) if c != "-"))
    # load_trace's reader of this layout: one expression per row, with a call per int or float
    reads = (*reads[:4], "kind", *reads[4:])
    build = eval(f"lambda r: ({', '.join(read.format(i) for i, read in enumerate(reads))})",
                 {"kind": kind})
    _KINDS[id(kind)] = entry = (kind, layout, pattern, cells, build)  # kind keeps its id
    _LAYOUTS.setdefault(filled, entry)
    return kind


# Every kind of row the simulator writes; layouts group the columns as
# (time_us, cycle, slot, node) (frame, src, dst, seq, cause) (v1..v5).
# run constants: v1=cycle_length_us v2=airtime_us v3=n_slots v4=seed
META = declare_kind("meta", "d--- ----- dddd-")
REF_POINT = declare_kind("ref-point", "d--d ---d- ff---")  # node=robot, seq=point index, v1=x v2=y
# a transmission, then one reception outcome (cause) per listening node: v1=channel
TX = declare_kind("tx", "dddd sddd- d----")
RX = declare_kind("rx", "dddd sddds d----")
RX_EMPTY = declare_kind("rx", "dddd ----s -----")  # cause=no-transmitter: an empty slot
SYNC_TX = declare_kind("tx", "dddd sddd- dd---")  # a sync flood: v1=channel v2=wave
SYNC_RX = declare_kind("rx", "dddd sddds dd---")
SYNC = declare_kind("sync", "dddd ----- fd---")  # node re-aligned: v1=residual_us v2=wave
SYNC_MISS = declare_kind("sync-miss", "dddd ----- d----")  # node missed a beacon: v1=missed count
DESYNC = declare_kind("desync", "dddd ----- -----")  # node lost sync (miss limit reached)
# node=robot, seq=feedback seq, v1=left ticks v2=right ticks v3=distance mm (-1 = no reading);
# cause="local" in the leader's own loop, which has no slot
FB_SAMPLE = declare_kind("fb-sample", "dddd ---d- ddd--")
FB_SAMPLE_LOCAL = declare_kind("fb-sample", "dd-d ---ds ddd--")
# node=controller, src=controller dst=robot seq, v1=left v2=right mm/s,
# v3=informing feedback seq (-1 = none yet), cause="estop" if flagged
CMD_EMIT = declare_kind("cmd-emit", "dd-d sddd- ddd--")
CMD_EMIT_ESTOP = declare_kind("cmd-emit", "dd-d sddds ddd--")
# node=robot, seq, cause=applied|estop|latched|local, v1=left v2=right; the leader's own
# loop applies with no slot
CMD_APPLY = declare_kind("cmd-apply", "dddd sddds dd---")
CMD_APPLY_LOCAL = declare_kind("cmd-apply", "dd-d sddds dd---")
# node=robot, v1=reference points reached; cause="complete" when a path's last point is reached
WAYPOINT = declare_kind("waypoint", "dd-d ----- d----")
WAYPOINT_COMPLETE = declare_kind("waypoint", "dd-d ----s d----")
ESTOP_CONTROLLER = declare_kind("estop", "dd-d ----s d----")  # controller-latch, v1=source robot
ESTOP_PLANT = declare_kind("estop", "dd-d ----s -----")  # node=robot, cause=plant-latch
# node=robot, v1=x v2=y v3=theta v4=left actual v5=right actual
POSE = declare_kind("pose", "dd-d ----- fffff")
END = declare_kind("end", "dd-- ----s d----")  # cause=completed|estopped|timeout, v1=cycles run


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
        a time; with no stream, return the whole text instead.  A row whose kind
        `declare_kind` did not make raises ValueError."""
        if out is None:
            text = io.StringIO()
            self.to_csv(text)
            return text.getvalue()
        write, kinds = out.write, _KINDS
        write(",".join(COLUMNS) + "\n")
        for row in self:
            declared = kinds.get(id(row[4]))
            if declared is None:
                raise ValueError(f"trace row of kind {row[4]!r}, which is not a declared kind")
            write(declared[2] % declared[3](row))  # the layout is trusted, not checked
        return None

    def write_csv(self, path: str | Path) -> None:
        """Stream the CSV to `path`: no copy of the whole text is ever held."""
        with open(path, "w", encoding="utf-8") as fh:
            self.to_csv(fh)


def load_trace(path: str | Path) -> Trace:
    """Read a trace CSV back into a `Trace`.  Each row takes the declared kind of
    its name whose empty cells are the row's, and each cell is read by its
    layout letter, so a float is the six-decimal value.  A file without the
    header, a row without one cell per column (a truncated file) and a row that
    no declared layout reads raise ValueError."""
    trace = Trace()
    cells, layouts = trace._cells, _LAYOUTS
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != COLUMNS:
            raise ValueError(f"not a trace file: unexpected header {header}")
        for row in reader:
            if len(row) != _WIDTH:
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} cells, "
                                 f"expected {_WIDTH}")
            try:
                cells.extend(layouts[row[4], tuple(map(bool, row))][4](row))
            except (KeyError, ValueError):
                raise ValueError(f"{path}: line {reader.line_num}: no declared layout "
                                 f"reads this {row[4]!r} row") from None
    return trace
