"""wctrlsim benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload square --seed 0 --seconds 25 --trace 0

Run it from a checkout of the repository; it imports the simulator from
`src/` and reads the bundled configs from `scenarios/`.  Workloads and the
metrics they report are declared in `BENCHMARK.json`.

Each execution is what a user of `wctrlsim run` or `wctrlsim sweep` waits for:
the generated config goes in through `wctrlsim.cli.main`, and the simulation,
the metrics pass and the output files (trace.csv + metrics.json, or
sweep.csv) come out in `.bench_out/`.  Every process first makes one untimed
warm-up execution at the default workload seed, whose outputs must match the
pinned digests; the timed executions at `--seed` must then replay to equal
digests.  An execution that raises, exits non-zero, reports an unexpected end
reason or writes other bytes counts as failed, and a run with any failure
reports no timings.

`--trace 0` reports the end-to-end metrics, measured with only two probes
installed, each firing once per simulation.  `--trace 1` instead runs the
workload untraced and then traced with every layer probe (see tracer.py),
reports self time and counts per layer, per execution, and writes the spans
to `.bench_out/`.  Its warm-up is traced too, so traced outputs are held to
the pinned digests, and the traced executions must replay the untraced ones.

The radio and plant models are not validated against hardware, so no accuracy
error is claimed: the digests check identity of outputs, not their accuracy.
The last line of stdout is the JSON result; the lines before it are a
readable summary with sample counts and tail percentiles.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracer import Recorder, installed
from workloads import DEFAULT_SEED, PINNED, WORKLOADS, Inputs, make_inputs

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
SETUP_REPS = 10  # per timed execution
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MODEL_NOTE = ("radio and plant models are unvalidated against hardware: no accuracy "
              "error is claimed; digests check identity of outputs, not accuracy")


@dataclass
class Execution:
    wall_s: float
    digests: dict[str, str | None]
    problems: list[str]
    loop_s: float = 0.0            # Simulation.run minus its compute_metrics call
    simulated_us: int = 0
    cycles: int = 0
    counts: dict = field(default_factory=dict)


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def prepare(work: Path, tag: str, inputs: Inputs) -> list[str]:
    """Write the generated inputs where the CLI reads them; return its argv."""
    config = work / f"{tag}-config.json"
    config.write_text(json.dumps(inputs.config), encoding="utf-8")
    out = str(work / f"{tag}-out")
    if inputs.grid is None:
        return ["run", str(config), "--out", out]
    grid = work / f"{tag}-grid.json"
    grid.write_text(json.dumps(inputs.grid), encoding="utf-8")
    return ["sweep", str(config), "--grid", str(grid), "--out", out]


def execute(cli, rec: Recorder, execution_id: int, argv: list[str],
            inputs: Inputs) -> Execution:
    """One timed call of the CLI, then (untimed) its correctness checks."""
    out = Path(argv[-1])
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    rec.begin(execution_id)
    problems = []
    start = perf_counter_ns()
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # an execution that raises is counted, not fatal
        code = None
        problems.append(traceback.format_exc())
    wall_s = (perf_counter_ns() - start) * 1e-9
    if code != 0:
        problems.append(f"exit code {code}")
    reasons = [reason for reason, _, _ in rec.runs]
    if reasons != [inputs.end_reason] * inputs.runs:
        problems.append(f"end reasons {sorted(set(reasons))} over {len(reasons)} runs, "
                        f"expected {inputs.end_reason!r} over {inputs.runs}")
    run = Execution(wall_s=wall_s, problems=problems,
                    digests={name: sha256(out / name) for name in inputs.outputs},
                    counts=dict(rec.counts))
    run.loop_s = (rec.total_ns("simulation.run")
                  - rec.total_ns("metrics.compute_metrics")) * 1e-9
    run.simulated_us = sum(end_us for _, end_us, _ in rec.runs)
    run.cycles = sum(end_us // cycle_us for _, end_us, cycle_us in rec.runs)
    return run


def check_digests(runs: list[Execution], expected: dict[str, str]) -> None:
    """Flag every execution whose outputs differ from `expected`."""
    for run in runs:
        for name, digest in run.digests.items():
            if digest != expected[name]:
                run.problems.append(f"{name} sha256 {digest} != expected {expected[name]}")


def summarize(values: list[float]) -> dict:
    """Median plus the highest tail percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n, "tail": None}
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            rank = math.ceil(p * n / 100)  # nearest rank
            summary["tail"] = {"percentile": p, "value": ordered[rank - 1]}
            break
    return summary


def setup_times(inputs: Inputs) -> list[float]:
    """Host seconds from the raw config dict to a constructed Simulation."""
    from wctrlsim.scenario import config_from_dict
    from wctrlsim.simulation import Simulation

    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = perf_counter()
        Simulation(config_from_dict(inputs.config))
        times.append(perf_counter() - start)
    return times


def timed_runs(cli, rec: Recorder, first_id: int, argv: list[str], inputs: Inputs,
               seconds: float, setup: list[float] | None = None) -> list[Execution]:
    """Execute for `seconds` of host time, and at least twice so replay is checked.

    With `setup`, a few set-ups are timed after each execution, so that its
    samples spread over the whole run like those of the executions.
    """
    runs: list[Execution] = []
    start = perf_counter()
    while len(runs) < 2 or perf_counter() - start < seconds:
        runs.append(execute(cli, rec, first_id + len(runs), argv, inputs))
        if setup is not None:
            setup.extend(setup_times(inputs))
    return runs


def layer_samples(runs: list[Execution], traced: list[Execution], spans: Recorder,
                  names: list[str]) -> dict[str, list[float]]:
    """Every per-layer metric, one sample per traced execution."""
    selfs = spans.self_times()
    samples: dict[str, list[float]] = {name: [] for name in names}
    for execution_id, run in enumerate(traced, start=1):
        per_span = selfs.get(execution_id, {})
        counts = run.counts

        def calls(span: str) -> int:
            return per_span.get(span, (0, 0))[1]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        values = {
            "trace.add.calls": calls("trace.add"),
            "trace.rx_rows": counts.get("trace.rx_rows", 0),
            "channel.deliver.calls": calls("channel.deliver"),
            "channel.deliver.ok_ratio": ratio(counts.get("channel.deliver.ok", 0),
                                              calls("channel.deliver")),
            "channel.deliver_flood.calls": calls("channel.deliver_flood"),
            "channel.deliver_flood.ok_ratio": ratio(counts.get("channel.deliver_flood.ok", 0),
                                                    calls("channel.deliver_flood")),
            "mac.sync_reach_ratio": ratio(counts.get("mac.sync.reached", 0),
                                          counts.get("mac.sync.targets", 0)),
            "controller.fb_accept_ratio": ratio(counts.get("controller.fb.accepted", 0),
                                                calls("controller.ingest_feedback")),
            "robot.cmd_applied_ratio": ratio(counts.get("robot.cmd.applied", 0),
                                             calls("robot.apply_command")),
            "engine.events": counts.get("engine.events", 0),
        }
        for span, (self_ns, _) in per_span.items():
            values[f"{span}.self_s"] = self_ns * 1e-9
        for name in names:
            samples[name].append(values.get(name, 0.0))
    samples["bench.tracing_overhead_s"] = [statistics.median(r.wall_s for r in traced)
                                           - statistics.median(r.wall_s for r in runs)]
    return samples


def end_to_end_samples(runs: list[Execution], setup: list[float]) -> dict[str, list[float]]:
    return {
        "wall_s": [run.wall_s for run in runs],
        "setup_s": setup,
        "us_per_cycle": [run.loop_s * 1e6 / run.cycles for run in runs if run.cycles],
        "realtime_factor": [run.simulated_us * 1e-6 / run.loop_s
                            for run in runs if run.loop_s > 0],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
    }


def context() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "machine": platform.machine(),
            "untimed_warmup_executions_per_process": 1, "model": MODEL_NOTE}


def report_line(name: str, unit: str, summary: dict) -> str:
    tail = summary["tail"]
    tail_text = (f"p{tail['percentile']:g} {tail['value']:.6g}" if tail
                 else "no percentile has 10 samples beyond it")
    return f"{name:<32} {summary['median']:>14.6g} {unit:<6} n={summary['n']:<5} {tail_text}"


def import_cli():
    """Import the simulator's CLI from this checkout's sources, or return None."""
    src = ROOT / "src"
    if not (src / "wctrlsim" / "cli.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no simulator sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    from wctrlsim import cli

    if Path(cli.__file__).resolve().parents[2] != ROOT:
        print(f"error: imported wctrlsim from {cli.__file__}, not {src}", file=sys.stderr)
        return None
    return cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    cli = import_cli()
    if cli is None:
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    setup: list[float] = []
    traced: list[Execution] = []
    spans = Recorder()
    try:
        default_inputs = make_inputs(args.workload, DEFAULT_SEED, ROOT / "scenarios")
        inputs = make_inputs(args.workload, args.seed, ROOT / "scenarios")
        default_argv = prepare(work, "default", default_inputs)
        seeded_argv = prepare(work, "seeded", inputs)
        rec = Recorder()
        # a traced run also traces its warm-up, so traced outputs meet the pinned digests
        warm = spans if args.trace else rec
        with installed(warm, full=bool(args.trace)):
            warmup = execute(cli, warm, 0, default_argv, default_inputs)
        check_digests([warmup], PINNED[args.workload])
        budget = args.seconds / 2 if args.trace else args.seconds
        with installed(rec, full=False):
            runs = timed_runs(cli, rec, 1, seeded_argv, inputs, budget,
                              None if args.trace else setup)
        if args.trace:
            with installed(spans, full=True):
                traced = timed_runs(cli, spans, 1, seeded_argv, inputs, budget)
        check_digests(runs + traced,
                      PINNED[args.workload] if args.seed == DEFAULT_SEED else runs[0].digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    executions = [warmup] + runs + traced
    failed = [run for run in executions if run.problems]
    for run in failed:
        print(f"failed execution: {'; '.join(run.problems)}", file=sys.stderr)
    correct = not failed
    if not correct:  # outputs that fail their checks get no timings
        samples = {}
    elif args.trace:
        samples = layer_samples(runs, traced, spans, [m["name"] for m in metric_specs])
    else:
        samples = end_to_end_samples(runs, setup)
    summaries = {name: {**summarize(values), "samples": values}
                 for name, values in samples.items()}

    ctx = context()
    print(f"# wctrlsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print(f"# nproc {ctx['nproc']}, Python {ctx['python']}, numpy {ctx['numpy']}, "
          f"1 untimed warm-up execution")
    print(f"# {MODEL_NOTE}")
    for m in metric_specs:
        if m["name"] in summaries:
            print(report_line(m["name"], m["unit"], summaries[m["name"]]))
    fail_ratio = len(failed) / len(executions)
    print(f"{'fail_ratio':<32} {fail_ratio:>14.6g} {'ratio':<6} "
          f"{len(failed)} of {len(executions)} executions failed")
    if args.trace:
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        spans.write(spans_file)
        print(f"# tracing overhead is traced minus untraced median wall_s; "
              f"spans in {spans_file.relative_to(ROOT)}")

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "context": ctx, "fail_ratio": fail_ratio,
              "digests": {"warmup": warmup.digests, "seeded": runs[0].digests},
              "metrics": summaries}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    metrics = {m["name"]: {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
               for m in metric_specs if m["name"] in summaries}
    print(json.dumps({"correct": correct, "attempted": len(executions),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
