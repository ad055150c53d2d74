"""Command-line front end.

    wctrlsim run <config.json> [--out DIR] [--seed N]
    wctrlsim sweep <config.json> --grid <grid.json> [--out DIR]
    wctrlsim plot-data <trace.csv> --metric {cycle-cdf|path|gap} [--out FILE]

`run` writes trace.csv and metrics.json into the output directory.  `sweep`
runs one simulation per grid point (`run_sweep`, defined here) and writes
sweep.csv with one aggregated row per run.  `plot-data` turns a trace into
plot-ready CSV on stdout (or --out).  Exit code 2 signals a rejected input: a
configuration, a grid, an --out path or a trace file; its error line names
the file when the file is not valid JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import product
from pathlib import Path

from .metrics import TraceView, cdf_pairs
from .scenario import ConfigError, apply_overrides, config_from_dict, read_json
from .simulation import run_scenario
from .trace import load_trace


def _out_dir(path: str) -> Path:
    """The --out directory, checked before any work; created only once results exist."""
    out_dir = Path(path)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {path}: {existing} is not a directory")
    return out_dir


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        out_dir = _out_dir(args.out)
        raw = read_json(args.config)
        if args.seed is not None and type(raw) is dict:
            raw["seed"] = args.seed
        config = config_from_dict(raw)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = run_scenario(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    run.trace.write_csv(out_dir / "trace.csv")
    metrics = json.dumps(run.metrics, sort_keys=True, indent=2) + "\n"
    (out_dir / "metrics.json").write_text(metrics, encoding="utf-8")
    print(f"{config.kind}: {run.end_reason} after {run.cycle} cycles "
          f"({run.end_time_us} us); outputs in {out_dir}")
    return 0


def run_sweep(raw_config: dict, grid: dict) -> list[dict]:
    """One run per grid point; returns one aggregated metrics row per run.

    `grid` holds "parameters" (dotted config path -> list of values) and
    optionally "seeds" (list of seeds, overriding the config seed).  Every
    point is built and validated before the first run, so a bad grid raises
    ConfigError and runs nothing.  Runs are independent: each builds its own
    engine and shares no state.
    """
    if type(raw_config) is not dict or type(grid) is not dict:
        raise ConfigError("the scenario config and the grid must be JSON objects")
    for key in grid:
        if key not in ("parameters", "seeds"):
            raise ConfigError(f'grid: unknown key {key!r}; a grid takes "parameters" and "seeds"')
    parameters = grid.get("parameters", {})
    seeds = grid.get("seeds", [raw_config.get("seed", 0)])
    if type(parameters) is not dict or "seed" in parameters:
        raise ConfigError('grid.parameters: expected an object of dotted paths; '
                          'seeds go in "seeds"')
    for name, values in [*parameters.items(), ("seeds", seeds)]:
        if type(values) is not list or not values:
            raise ConfigError(f"grid: {name} needs a non-empty array of values")

    names = sorted(parameters)
    points = []
    for combo in product(*(parameters[name] for name in names)):
        for seed in seeds:
            point = dict(zip(names, combo), seed=seed)
            try:
                points.append((point, config_from_dict(apply_overrides(raw_config, point))))
            except ConfigError as exc:
                label = ", ".join(f"{k}={v}" for k, v in point.items())
                raise ConfigError(f"sweep point {label}: {exc}") from None

    rows = []
    for point, config in points:
        run = run_scenario(config)
        m = run.metrics
        row: dict = {**point,
                     "end_reason": run.end_reason,
                     "cycles": run.cycle,
                     "cmd_delivery_ratio": m["delivery"]["cmd"]["ratio"],
                     "fb_delivery_ratio": m["delivery"]["fb"]["ratio"],
                     "latency_mean_us": m["cycle_time"]["mean_us"],
                     "latency_p99_us": m["cycle_time"]["p99_us"]}
        if m["tracking"]:
            row["worst_rms_m"] = max(v["rms_m"] for v in m["tracking"].values())
        rows.append(row)
        del run  # it holds its whole trace: free it before the next run fills one
    return rows


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        out_dir = _out_dir(args.out)
        rows = run_sweep(read_json(args.config), read_json(args.grid))  # checks every point first
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = list(dict.fromkeys(key for row in rows for key in row))  # first seen first
    text = io.StringIO()  # quoted where a cell holds a comma: an array or object value
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row.get(c) for c in columns] for row in rows)
    (out_dir / "sweep.csv").write_text(text.getvalue(), encoding="utf-8")
    print(f"{len(rows)} runs; results in {out_dir / 'sweep.csv'}")
    return 0


def _plot_rows(rows, metric: str) -> list[str]:
    view = TraceView(rows)
    if metric == "cycle-cdf":
        out = ["latency_us,fraction"]
        for value, fraction in cdf_pairs(view.latencies[:, 2]):
            out.append(f"{value:.1f},{fraction:.6f}")
        return out
    if metric == "path":
        out = ["time_us,node,x,y,cross_track_m"]
        for node in sorted(view.poses):
            (t, xylr), d = view.poses[node], view.cross_track(node)
            errors = [""] * len(t) if d is None else [f"{err:.6f}" for err in d.tolist()]
            for t_us, x, y, err in zip(t.tolist(), *xylr[:, :2].T.tolist(), errors):
                out.append(f"{t_us},{node},{x:.6f},{y:.6f},{err}")
        return out
    if metric == "gap":
        robots = sorted(view.poses)
        if len(robots) != 2:
            raise ValueError("gap metric needs a trace with exactly two robots")
        out = ["time_us,gap_m"]
        for t_us, gap in zip(*(column.tolist() for column in view.gap_series(*robots))):
            out.append(f"{t_us},{gap:.6f}")
        return out
    raise ValueError(f"unknown metric {metric!r}")


def _cmd_plot_data(args: argparse.Namespace) -> int:
    try:
        text = "\n".join(_plot_rows(load_trace(args.trace), args.metric)) + "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wctrlsim",
                                     description="TDMA closed-loop control co-simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config", help="scenario JSON file")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("config", help="scenario JSON template")
    p_sweep.add_argument("--grid", required=True, help="grid JSON file")
    p_sweep.add_argument("--out", default="out", help="output directory (default: out)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_plot = sub.add_parser("plot-data", help="emit plot-ready CSV from a trace")
    p_plot.add_argument("trace", help="trace.csv from a run")
    p_plot.add_argument("--metric", required=True, choices=["cycle-cdf", "path", "gap"])
    p_plot.add_argument("--out", default=None, help="write to a file instead of stdout")
    p_plot.set_defaults(fn=_cmd_plot_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # downstream consumer (e.g. `head`) closed the pipe; not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
