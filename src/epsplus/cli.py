"""Command-line front end: run missions and render trajectory logs.

Exit codes for ``run``: 0 when every free cell was covered, 2 when any free
cell was not, whether walled off from the station or beyond a charge, 1 on
any error (bad map, bad config, IO).
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from pathlib import Path

from .config import MissionConfig, parse_config
from .energy import SegmentKind
from .errors import MapFormatError
from .grid import parse_map_text
from .mission import LOG_HEADER, LogRow, Mission, log_to_csv, report_to_text
from .render import render_svg
from .sim import GroundTruth


def _default_out_dir() -> str:
    return os.environ.get("EPSPLUS_OUT", ".")


def cmd_run(map_path: str, config_path: str | None, out_dir: str) -> int:
    parsed = parse_map_text(Path(map_path).read_text(encoding="utf-8"))
    if config_path is not None:
        config = parse_config(Path(config_path).read_text(encoding="utf-8"))
    else:
        config = MissionConfig()
    gt = GroundTruth.from_parsed(parsed)
    mission = Mission(gt, config)
    report = mission.run()

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.csv").write_text(log_to_csv(mission.log_rows), encoding="utf-8")
    (out / "report.txt").write_text(report_to_text(report), encoding="utf-8")
    (out / "trajectory.svg").write_text(render_svg(parsed, mission.log_rows), encoding="utf-8")

    print(
        f"covered {report.covered_cell_count} cells"
        f" ({report.uncoverable_cell_count} uncoverable),"
        f" {report.recharge_count} recharges,"
        f" total length {report.total_length:.3f} m"
    )
    print(f"outputs written to {out}")
    return 0 if report.uncoverable_cell_count == 0 else 2


_LOG_TYPES = (int, str, int, int, float, float)  # one per LOG_HEADER column


def read_log_csv(text: str) -> list[LogRow]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("log file is empty")
    if ",".join(header) != LOG_HEADER:
        raise ValueError(f"unexpected log header: {','.join(header)!r}")
    kinds = {k.value for k in SegmentKind}
    rows: list[LogRow] = []
    for rec in reader:
        if not rec:
            continue
        where = f"log line {reader.line_num}"
        if len(rec) != len(header):
            raise ValueError(f"{where}: {len(rec)} fields, expected {len(header)}: {rec!r}")
        if rec[1] not in kinds:
            raise ValueError(f"{where}: unknown segment kind {rec[1]!r}")
        row = []
        for column, convert, value in zip(header, _LOG_TYPES, rec):
            try:
                row.append(convert(value))
            except ValueError:
                kind = "an integer" if convert is int else "a number"
                raise ValueError(f"{where}: {column} needs {kind}, got {value!r}") from None
        rows.append(tuple(row))
    return rows


def cmd_render(log_path: str, map_path: str, out_svg: str | None) -> int:
    parsed = parse_map_text(Path(map_path).read_text(encoding="utf-8"))
    rows = read_log_csv(Path(log_path).read_text(encoding="utf-8"))
    svg = render_svg(parsed, rows)
    target = Path(out_svg) if out_svg else Path(log_path).with_suffix(".svg")
    target.write_text(svg, encoding="utf-8")
    print(f"wrote {target}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="epsplus",
        description="Energy-constrained online coverage planning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a coverage mission on an ASCII map")
    p_run.add_argument("map", help="ASCII map file ('#' obstacle, '.' free, 'C' station)")
    p_run.add_argument("--config", help="flat key = value config file", default=None)
    p_run.add_argument(
        "--out",
        default=None,
        help="output directory (default: $EPSPLUS_OUT or current directory)",
    )

    p_render = sub.add_parser("render", help="render a trajectory log to SVG")
    p_render.add_argument("log", help="trajectory.csv produced by 'run'")
    p_render.add_argument("map", help="the ASCII map the log was produced on")
    p_render.add_argument("--out", default=None, help="output SVG path (default: <log>.svg)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            out_dir = args.out if args.out is not None else _default_out_dir()
            return cmd_run(args.map, args.config, out_dir)
        return cmd_render(args.log, args.map, args.out)
    except (MapFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
