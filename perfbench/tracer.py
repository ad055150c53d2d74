"""Outside-in layer tracing for the benchmark.

The simulator carries no timers of its own.  Each probe below replaces one
public function or method of a `wctrlsim` module with a wrapper that records a
span (name, start, end, parent span, execution id) and, where the layer can
waste work, counts useful outcomes from the function's return value.  Probes
patch the name the caller looks up: `run_sync_beacon` is imported into
`simulation`, `encode_frame` into `channel` and `run_sweep` and
`config_from_dict` into `cli`, so those are patched there.  `cli.write` times
the CLI's output files through `pathlib.Path.write_text`, patched only while
the traced executions run.

Spans live in flat arrays in memory and are written once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


class Recorder:
    """Spans of every execution in one run, plus per-execution counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.execution = array("I")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.execution_id = 0
        self.first = 0  # index of the current execution's first span
        self.counts: Counter = Counter()
        self.runs: list[tuple[str, int, int]] = []  # (end reason, end time us, cycle us)

    def begin(self, execution_id: int) -> None:
        """Start attributing spans and counts to a new workload execution."""
        self.execution_id = execution_id
        self.first = len(self.start)
        self.stack.clear()
        self.counts = Counter()
        self.runs = []

    def total_ns(self, name: str) -> int:
        """Summed duration of the current execution's spans named `name`."""
        if name not in self.names:
            return 0
        name_id = self.names.index(name)
        return sum(self.end[i] - self.start[i] for i in range(self.first, len(self.start))
                   if self.name[i] == name_id)

    def wrap(self, name: str, fn, on_result=None):
        """Return `fn` wrapped so that each call records one span named `name`."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack, starts, ends = self.stack, self.start, self.end
        add_name, add_parent, add_execution = self.name.append, self.parent.append, self.execution.append
        add_start, add_end = starts.append, ends.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            add_name(name_id)
            add_parent(stack[-1] if stack else -1)
            add_execution(self.execution_id)
            add_end(0)
            stack.append(index)
            add_start(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def self_times(self) -> dict[int, dict[str, tuple[int, int]]]:
        """Per execution and span name: (self time in ns, calls).

        Self time is a span's duration minus the durations of its direct
        children, so the values of one execution add up to its root spans.
        """
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += durations[i]
        out: dict[int, dict[str, list[int]]] = {}
        for i in range(n):
            per_name = out.setdefault(self.execution[i], {})
            entry = per_name.setdefault(self.names[self.name[i]], [0, 0])
            entry[0] += durations[i] - child[i]
            entry[1] += 1
        return {e: {k: (v[0], v[1]) for k, v in names.items()} for e, names in out.items()}

    def write(self, path) -> None:
        """Write every span as gzipped CSV; times are ns from the first span."""
        origin = self.start[0] if self.start else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("execution,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{self.execution[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - origin},{self.end[i] - origin}\n")


# -- counters read from return values ------------------------------------------

def _count_run(rec: Recorder, args, result) -> None:
    rec.runs.append((result.end_reason, result.end_time_us, result.schedule.cycle_length_us))


def _count_received(key: str):
    def count(rec: Recorder, args, result) -> None:
        rec.counts[key] += result.received
    return count


def _count_sync(rec: Recorder, args, result) -> None:
    # run_sync_beacon(engine, medium, schedule, cycle, originator, nodes, ...)
    originator, nodes = args[4], args[5]
    rec.counts["mac.sync.reached"] += len(result.receptions)
    rec.counts["mac.sync.targets"] += sum(1 for n in nodes if n != originator)


def _count_fb(rec: Recorder, args, result) -> None:
    rec.counts["controller.fb.accepted"] += bool(result)


def _count_cmd(rec: Recorder, args, result) -> None:
    rec.counts["robot.cmd.applied"] += result == "applied"


def _count_events(rec: Recorder, args, result) -> None:
    rec.counts["engine.events"] += result.events_processed


def _count_rx(rec: Recorder, args, result) -> None:
    rec.counts["trace.rx_rows"] += args[2] == "rx"  # Trace.add(self, time_us, kind, ...)


def probes(full: bool) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, counter) for every patched call site.

    The first two are always installed, because the untraced run needs each
    simulation's end reason and the metrics pass it excludes from
    us_per_cycle; they fire a few times per execution.  The rest only when
    `full` (the traced run).
    """
    import pathlib

    from wctrlsim import channel, cli, controller, engine, metrics, robot, scenario
    from wctrlsim import simulation, trace

    light = [
        ("simulation.run", simulation.Simulation, "run", _count_run),
        ("metrics.compute_metrics", metrics, "compute_metrics", None),
    ]
    if not full:
        return light
    return light + [
        ("cli.main", cli, "main", None),
        ("scenario.config_from_dict", scenario, "config_from_dict", None),
        ("scenario.config_from_dict", cli, "config_from_dict", None),
        ("simulation.init", simulation.Simulation, "__init__", None),
        ("simulation.run_sweep", cli, "run_sweep", None),
        ("engine.run_until", engine.Engine, "run_until", _count_events),
        ("mac.run_sync_beacon", simulation, "run_sync_beacon", _count_sync),
        ("channel.make_transmission", channel.Medium, "make_transmission", None),
        ("frames.encode_frame", channel, "encode_frame", None),
        ("channel.deliver", channel.Medium, "deliver", _count_received("channel.deliver.ok")),
        ("channel.deliver_flood", channel.Medium, "deliver_flood",
         _count_received("channel.deliver_flood.ok")),
        ("controller.run_cycle", controller.PathController, "run_cycle", None),
        ("controller.ingest_feedback", controller.PathController, "ingest_feedback", _count_fb),
        ("robot.sample_feedback", robot.Robot, "sample_feedback", None),
        ("robot.apply_command", robot.Robot, "apply_command", _count_cmd),
        ("robot.end_cycle", robot.Robot, "end_cycle", None),
        ("trace.add", trace.Trace, "add", _count_rx),
        ("trace.to_csv", trace.Trace, "to_csv", None),
        ("cli.write", pathlib.Path, "write_text", None),
    ]


@contextmanager
def installed(rec: Recorder, full: bool):
    """Patch the probes in for the duration of the block, then restore them."""
    saved = []
    try:
        for name, owner, attr, counter in probes(full):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, counter))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
