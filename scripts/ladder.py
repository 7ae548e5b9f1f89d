#!/usr/bin/env python3
"""Random rectangle ladder: one mission per map size, timed, with its flood fills, planner calls and core work counted.

Run from the repository root:

    python3 scripts/ladder.py                 # 50, 100 and 150 cells a side
    python3 scripts/ladder.py --sizes 50 100

Each size runs in a child process of its own, so its peak RSS is its own.
The map is ``random.Random(7)`` rectangles from ``tests/helpers.py`` at
density 0.2 with the station at (0, 0), written with ``map_text`` and read
back with ``parse_map_text``; the mission uses the default config. Each
record holds the wall time of building and running the mission, the number
of full flood fills of the reachable set, the planner calls (grid A*
searches and visibility graphs built), the number of visibility-graph cores
built from empty and of the sight lines their syncs walked (node pairs),
the number of sight lines computed (``supercover_line``
calls: offset-table misses and the advances' polyline walks, since a
retreat is booked without walking its lines), the peak
RSS, and whether the covered count equals the flood-fill oracle's. The last
line of output is the JSON list of records.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_size(size: int) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from helpers import flood_reachable, map_text, random_rect_obstacles

    import epsplus.mission as mission_mod
    import epsplus.pathfind as pathfind_mod
    from epsplus.grid import CellGrid, parse_map_text
    from epsplus.mission import Mission
    from epsplus.pathfind import _Core
    from epsplus.sim import GroundTruth

    station = (0, 0)
    obstacles = random_rect_obstacles(random.Random(7), size, size, station, 0.2)
    parsed = parse_map_text(map_text(size, size, obstacles, station))
    counts = dict.fromkeys(("fills", "grid_astar", "visgraphs", "cores", "lines", "sight_lines"), 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    # functions are counted under the names their callers look them up by
    for owner, attr, name in (
        (CellGrid, "_flood_unexplored", "fills"),
        (mission_mod, "grid_astar", "grid_astar"),
        (mission_mod, "build_visibility_graph", "visgraphs"),
        (_Core, "__init__", "cores"),
        (_Core, "_classify", "lines"),
        (mission_mod, "supercover_line", "sight_lines"),
        (pathfind_mod, "supercover_line", "sight_lines"),
    ):
        setattr(owner, attr, counted(name, getattr(owner, attr)))
    gt = GroundTruth.from_parsed(parsed)
    t0 = time.perf_counter()
    report = Mission(gt).run()
    wall = time.perf_counter() - t0
    reachable = flood_reachable(size, size, parsed.obstacles, parsed.station)
    return {
        "size": size,
        "wall_s": round(wall, 3),
        "flood_fills": counts["fills"],
        "grid_astar_calls": counts["grid_astar"],
        "visgraphs_built": counts["visgraphs"],
        "sight_lines": counts["sight_lines"],
        "cores_built": counts["cores"],
        "core_lines": counts["lines"],
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "covered_cells": report.covered_cell_count,
        "correct": report.covered_cell_count == len(reachable),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 150])
    p.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        print(json.dumps(run_size(args.child)))
        return 0
    records = []
    for size in args.sizes:
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(size)],
            check=True, capture_output=True, text=True,
        ).stdout
        records.append(json.loads(out.splitlines()[-1]))
        print(json.dumps(records[-1]), file=sys.stderr)
    print(json.dumps(records))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
