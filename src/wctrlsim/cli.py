"""Command-line front end.

    wctrlsim run <config.json> [--out DIR] [--seed N]
    wctrlsim sweep <config.json> --grid <grid.json> [--out DIR]
    wctrlsim plot-data <trace.csv> --metric {cycle-cdf|path|gap} [--out FILE]

`run` writes trace.csv and metrics.json into the output directory.  `sweep`
writes sweep.csv with one aggregated row per grid point.  `plot-data` turns a
trace into plot-ready CSV on stdout (or --out).  Exit code 2 signals a
rejected input: a configuration, an --out path or a trace file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .metrics import TraceView, cdf_pairs, polyline_distances
from .scenario import ConfigError, config_from_dict
from .simulation import run_scenario, run_sweep
from .trace import load_trace


def _metrics_json(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True, indent=2) + "\n"


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
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if args.seed is not None and type(raw) is dict:
            raw["seed"] = args.seed
        config = config_from_dict(raw)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_scenario(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.trace.write_csv(out_dir / "trace.csv")
    (out_dir / "metrics.json").write_text(_metrics_json(result.metrics), encoding="utf-8")
    print(f"{config.kind}: {result.end_reason} after {result.cycles} cycles "
          f"({result.end_time_us} us); outputs in {out_dir}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        out_dir = _out_dir(args.out)
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        grid = json.loads(Path(args.grid).read_text(encoding="utf-8"))
        rows = run_sweep(raw, grid)  # checks every grid point before the first run
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
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
        for value, fraction in cdf_pairs([lat for _, _, lat in view.latencies]):
            out.append(f"{value:.1f},{fraction:.6f}")
        return out
    if metric == "path":
        out = ["time_us,node,x,y,cross_track_m"]
        for node in sorted(view.poses):
            polyline = view.reference_polyline(node)
            series = view.poses[node]
            if polyline is None:
                for t, x, y, _vl, _vr in series:
                    out.append(f"{t},{node},{x:.6f},{y:.6f},")
                continue
            xy = view.pose_xy(node)
            d = polyline_distances(xy, polyline)
            for (t, x, y, _vl, _vr), err in zip(series, d):
                out.append(f"{t},{node},{x:.6f},{y:.6f},{err:.6f}")
        return out
    if metric == "gap":
        robots = sorted(view.poses)
        if len(robots) != 2:
            raise ValueError("gap metric needs a trace with exactly two robots")
        out = ["time_us,gap_m"]
        for t, gap in view.gap_series(robots[0], robots[1]):
            out.append(f"{t},{gap:.6f}")
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
