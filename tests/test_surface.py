"""The names other code in the repository reads from the library.

The package exports what a mission needs end to end; ``bench/spans.py``
patches entry points of the layers by name, and ``scripts/ladder.py`` wraps
others. A name either of them reads that the library drops must fail here,
not only in a traced benchmark run.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import epsplus
import epsplus.mission as mission_mod
import epsplus.pathfind as pathfind_mod
from epsplus.config import MissionConfig
from epsplus.energy import EnergyState
from epsplus.grid import CellGrid, CellState, parse_map_text
from epsplus.hierarchy import MapsHierarchy
from epsplus.mission import Mission
from epsplus.pathfind import DistanceField, _Core
from epsplus.sim import GroundTruth

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = [
    "EnergyExhaustedError",
    "GroundTruth",
    "MapConflictError",
    "MapFormatError",
    "Mission",
    "MissionConfig",
    "MissionEvent",
    "PlanningError",
    "log_to_csv",
    "parse_config",
    "parse_map_text",
    "render_svg",
    "report_to_text",
]


def test_package_exports_what_a_mission_needs():
    assert sorted(epsplus.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(epsplus, name) is not None


def test_readme_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})
    covered, recharges = capsys.readouterr().out.splitlines()[0].split()
    assert int(covered) > 0 and int(recharges) >= 0


def test_tracer_patches_and_restores_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    owners = (mission_mod, pathfind_mod, Mission, CellGrid, GroundTruth, MapsHierarchy, DistanceField, EnergyState)
    before = [dict(vars(owner)) for owner in owners]
    with spans.Tracer().installed():
        patched = [
            (owner, name)
            for owner, saved in zip(owners, before)
            for name, value in vars(owner).items()
            if saved.get(name) is not value
        ]
    assert (pathfind_mod, "obstacle_vertices") in patched
    assert (mission_mod, "restart_point") in patched
    assert len(patched) == len(spans.SPANS) - 5  # setup, setup.parse and output.* are spans of the runner
    for owner, saved in zip(owners, before):
        assert dict(vars(owner)) == saved


def test_ladder_wraps_names_that_exist():
    for owner, name in ((CellGrid, "_flood_unexplored"), (_Core, "__init__"), (_Core, "_classify")):
        assert callable(vars(owner)[name])
    for name in ("supercover_line", "grid_astar", "build_visibility_graph"):
        assert callable(getattr(mission_mod, name))
    assert callable(pathfind_mod.supercover_line)


def test_tracer_counts_one_reading_per_covered_cell_and_one_update_per_change(monkeypatch):
    # the traced counters read the call arguments: a repeat reading is keyed
    # on the pose as the third positional argument of GroundTruth.sense
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    gt = GroundTruth.from_parsed(parse_map_text((ROOT / "scenarios" / "small_office.txt").read_text()))
    config = MissionConfig(capacity_e0=14.0, travel_rate=0.5, coverage_rate=1.0, sensor_range=1.5)
    with spans.Tracer().installed() as tracer:
        mission = Mission(gt, config)
        mission.run()
    metrics = tracer.layer_metrics()
    covered = mission.grid.counts()[CellState.EXPLORED]
    assert covered == mission.report.covered_cell_count == 110
    assert metrics["sim.sense.calls"] == covered
    assert metrics["sim.sense.repeat_ratio"] == 0
    assert metrics["hierarchy.on_state_change.calls"] == len(mission.grid.changes) == 120


# scripts/ladder.py --sizes 50 100 (the workflow pins 150); a change that
# moves a counter on purpose updates it here and says why
LADDER = {
    50: {
        "covered_cells": 1980,
        "flood_fills": 1,
        "grid_astar_calls": 71,
        "visgraphs_built": 53,
        "cores_built": 2,
        "core_lines": 11287,
        "sight_lines": 2947,
    },
    100: {
        "covered_cells": 7881,
        "flood_fills": 1,
        "grid_astar_calls": 225,
        "visgraphs_built": 233,
        "cores_built": 2,
        "core_lines": 30850,
        "sight_lines": 15141,
    },
}


def test_ladder_counters_at_50_and_100():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ladder.py"), "--sizes", *map(str, LADDER)],
        check=True, capture_output=True, text=True,
    ).stdout
    records = json.loads(out.splitlines()[-1])
    assert [record["size"] for record in records] == list(LADDER)
    for record in records:
        pinned = LADDER[record["size"]]
        assert record["correct"] is True
        assert {key: record[key] for key in pinned} == pinned
