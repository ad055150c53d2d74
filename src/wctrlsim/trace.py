"""Append-only run trace with a fixed CSV column set, and the one table of row layouts.

Every row is (time_us, cycle, slot, node, kind, frame, src, dst, seq, cause,
v1..v5).  Each kind of row the simulator writes is declared below, once, with
its layout and beside it what its cells mean.  A layout says which cells of a
row are filled, and with what type, and it drives every reader of the rows:
`to_csv` writes a block of rows with one `%` over their cells, by a pattern
joined from each row's kind pattern, trusting the declared types without
inspecting them; iterating a trace rebuilds each row as a tuple in COLUMNS
order, None for each empty cell; and `load_trace` finds each row's kind by its
name and which of its cells are empty, then reads each filled cell by its
letter.  So a written file loads back into a `Trace` that writes the same
bytes again.

`Trace.add(time_us, kind, *cells)` takes a declared kind second and then only
the cells that its layout fills, in column order.  A trace keeps what each
call received, time and kind included, in one flat list, plus one byte per row
that counts those cells: a stored row leaves no object of its own, so the rows
that grow as N^2 give the cyclic collector nothing to scan, and an empty cell
costs nothing.  The count is checked against the kind's layout when the trace
is written or iterated, where a row that breaks its layout, or whose kind
`declare_kind` did not make, raises ValueError.  `write_csv` streams the file
one block of rows at a time, so the text of the whole file is never held in
memory.  A rerun with the same config reproduces the file byte for byte.
"""

from __future__ import annotations

import csv
import io
import sys
from itertools import accumulate
from pathlib import Path
from typing import TextIO

COLUMNS = ("time_us", "cycle", "slot", "node", "kind", "frame", "src", "dst",
           "seq", "cause", "v1", "v2", "v3", "v4", "v5")
_WIDTH = len(COLUMNS)
_BLOCK = 512  # rows formatted by one `%`

# layout letter -> (format, the expression that reads cell {0} of a row r read as text)
_LETTERS = {"d": ("%s", "int(r[{0}])"), "s": ("%s", "r[{0}]"), "f": ("%.6f", "float(r[{0}])"),
            "-": ("", None)}
_KINDS: dict[int, tuple] = {}  # id -> kind, layout, cells per row, row builder, reader
_PATTERNS: dict[tuple[int, int], str] = {}  # (id, cells per row) -> the kind's row pattern
_LAYOUTS: dict[tuple[str, tuple[bool, ...]], tuple] = {}  # (name, filled cells) -> _KINDS entry


def declare_kind(name: str, layout: str) -> str:
    """A new str equal to `name` (two letters or more: a shorter str is shared) whose
    rows always have `layout`: a letter per column but kind, in COLUMNS order ("d" int,
    "s" str, "f" float, "-" empty; time_us is never empty).  An exact str, which
    compares, hashes and formats as `name` does.  Two layouts of one name must differ in
    which cells are empty, so that a row read back finds its kind."""
    layout = layout.replace(" ", "")
    if (len(name) < 2 or len(layout) != _WIDTH - 1 or not set(layout) <= set(_LETTERS)
            or layout[0] == "-"):
        raise ValueError(f"cannot declare kind {name!r} with layout {layout!r}")
    letters = layout[:4] + "k" + layout[4:]  # in COLUMNS order
    filled = (name, tuple(c != "-" for c in letters))
    first = _LAYOUTS.get(filled)
    if first is not None and first[1] != layout:
        raise ValueError(f"kind {name!r}: layout {layout!r} has the empty cells of {first[1]!r}")
    kind = sys.intern(name).encode().decode()  # new; equal literals stay the interned one
    order = [0, 4, *(i for i, c in enumerate(letters) if c not in "k-" and i)]  # a row's cells
    formats = [name.replace("%", "%%") if c == "k" else _LETTERS[c][0] for c in letters]
    formats[0] += "%.0s"  # the kind, a row's second cell, is written as "" (its name is baked in)
    # iteration's and load_trace's builders of this layout, one expression per row: with
    # c[p] a row's kind in the cells, and r a row read as text
    row = eval("lambda c, p: (" + ", ".join(f"c[p{order.index(i) - 1:+d}]" if i in order
                                            else "None" for i in range(_WIDTH)) + ")")
    read = eval("lambda r: (" + ", ".join("kind" if i == 4 else _LETTERS[letters[i]][1].format(i)
                                         for i in order) + ")", {"kind": kind})
    _KINDS[id(kind)] = entry = (kind, layout, len(order), row, read)  # kind keeps its id
    _PATTERNS[id(kind), len(order)] = ",".join(formats) + "\n"
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
    """Rows of native values, kept as one flat list of their filled cells, and their CSV."""

    def __init__(self) -> None:
        self._cells: list = []  # per row: time_us, the kind, then the cells its layout fills
        self._counts = bytearray()  # per row: how many of those cells it holds

    def add(self, *row) -> None:
        """Append the row (time_us, kind, *cells): a declared kind, then the cells that
        its layout fills, in column order.  The count is checked when the row is read."""
        self._cells.extend(row)
        self._counts.append(len(row))

    def __len__(self) -> int:
        return len(self._counts)

    def blocks(self):
        """Each block of up to _BLOCK rows, in order, as (cell counts, cells, kind
        indices): each row's count of cells, the trace's list of cells, and where each
        row's kind sits in it.  A row's time is the cell before its kind, and the cells
        that its layout fills follow the kind."""
        cells, start = self._cells, 1
        for first in range(0, len(self._counts), _BLOCK):
            counts = self._counts[first:first + _BLOCK]
            kinds_at = list(accumulate(counts, initial=start))
            start = kinds_at.pop()
            yield counts, cells, kinds_at

    def __iter__(self):
        """Each row as a tuple in COLUMNS order, None for each empty cell."""
        kinds = _KINDS
        for counts, cells, kinds_at in self.blocks():
            for p, count in zip(kinds_at, counts):
                entry = kinds.get(id(cells[p])) if count > 1 else None
                if entry is None or entry[2] != count:
                    raise self._broken_row(p, count)
                yield entry[3](cells, p)

    def to_csv(self, out: TextIO | None = None) -> str | None:
        """Write the header and every row to the text stream `out`, one block of rows
        at a time; with no stream, return the whole text instead.  A row that does not
        hold the cells its kind's layout fills, or whose kind `declare_kind` did not
        make, raises ValueError."""
        if out is None:
            text = io.StringIO()
            self.to_csv(text)
            return text.getvalue()
        write, patterns = out.write, _PATTERNS
        write(",".join(COLUMNS) + "\n")
        for counts, cells, kinds_at in self.blocks():
            kinds = map(id, map(cells.__getitem__, kinds_at))
            try:  # each row's pattern, keyed on its kind and its count of cells
                pattern = "".join(map(patterns.get, zip(kinds, counts)))
            except (TypeError, IndexError):  # a None joins no str; a last row without a kind
                for p, count in zip(kinds_at, counts):
                    if count < 2 or (id(cells[p]), count) not in patterns:
                        raise self._broken_row(p, count) from None
            start, end = kinds_at[0] - 1, kinds_at[-1] - 1 + counts[-1]
            write(pattern % tuple(cells[start:end]))  # the types are trusted, not checked
        return None

    def write_csv(self, path: str | Path) -> None:
        """Stream the CSV to `path`: no copy of the whole text is ever held."""
        with open(path, "w", encoding="utf-8") as fh:
            self.to_csv(fh)

    def _broken_row(self, p: int, count: int) -> ValueError:
        """The error for the row of `count` cells whose kind would be the cell at p."""
        number = list(accumulate(self._counts, initial=1)).index(p)
        kind = self._cells[p] if count > 1 else None
        entry = _KINDS.get(id(kind))
        if entry is None:
            return ValueError(f"trace row {number}: kind {kind!r} is not a declared kind")
        return ValueError(f"trace row {number}: kind {kind!r} has {count} cells, time and kind "
                          f"included, but its layout {entry[1]!r} fills {entry[2]}")


def load_trace(path: str | Path) -> Trace:
    """Read a trace CSV back into a `Trace`.  Each row takes the declared kind of
    its name whose empty cells are the row's, and each cell is read by its
    layout letter, so a float is the six-decimal value.  A file without the
    header, a row without one cell per column (a truncated file) and a row that
    no declared layout reads raise ValueError."""
    trace = Trace()
    add, layouts = trace.add, _LAYOUTS
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
                filled = layouts[row[4], tuple(map(bool, row))][4](row)
            except (KeyError, ValueError):
                raise ValueError(f"{path}: line {reader.line_num}: no declared layout "
                                 f"reads this {row[4]!r} row") from None
            add(*filled)
    return trace
