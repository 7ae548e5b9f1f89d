"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
from pathlib import Path

from epsplus.config import MissionConfig
from epsplus.grid import CellGrid, CellState, parse_map_text
from epsplus.mission import Mission, log_to_csv, report_to_text
from epsplus.pathfind import astar, build_visibility_graph, explored_only
from epsplus.sim import GroundTruth

from helpers import (
    b_field,
    dijkstra_on_graph,
    explored_grid,
    flood_reachable,
    grid_cells,
    grid_dijkstra,
    potential_level0,
    random_rect_obstacles,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _load(name):
    return GroundTruth.from_parsed(parse_map_text((SCENARIOS / name).read_text()))


def test_criterion_1_small_office_replica():
    gt = _load("small_office.txt")
    cfg = MissionConfig(capacity_e0=14.0, travel_rate=0.5, coverage_rate=1.0, sensor_range=1.5)
    t0 = time.perf_counter()
    m = Mission(gt, cfg)
    report = m.run()
    elapsed = time.perf_counter() - t0
    reachable = flood_reachable(gt.width, gt.height, gt.obstacles, gt.station)
    energy_ok = True
    for traj in report.trajectories:
        if traj.energy > 14.0 + 1e-9:
            energy_ok = False
        booked = math.fsum(s.energy for s in traj.segments)
        if abs(booked - traj.energy) > 1e-9:
            energy_ok = False
    ok = (
        report.recharge_count >= 2
        and energy_ok
        and report.covered_cell_count == len(reachable)
        and report.uncoverable_cell_count == 0
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"{report.covered_cell_count}/{len(reachable)} cells, "
        f"{report.recharge_count} recharges, max energy "
        f"{max(t.energy for t in report.trajectories):.6f} <= 14, {elapsed:.3f}s",
    )


def test_criterion_2_field_replicas():
    details = []
    ok = True
    for name in ("field_a.txt", "field_b.txt"):
        gt = _load(name)
        cfg = MissionConfig()  # 320 units, 5 m sonar, 0.5/1.0 rates
        t0 = time.perf_counter()
        report = Mission(gt, cfg).run()
        elapsed = time.perf_counter() - t0
        reachable = flood_reachable(gt.width, gt.height, gt.obstacles, gt.station)
        this_ok = (
            report.covered_cell_count == len(reachable)
            and report.uncoverable_cell_count == 0
            and all(t.energy <= 320.0 + 1e-9 for t in report.trajectories)
            and report.recharge_count >= 3
            and elapsed < 10.0
        )
        ok = ok and this_ok
        details.append(
            f"{name}: {report.covered_cell_count} cells, {report.recharge_count} recharges, "
            f"{elapsed:.2f}s"
        )
    _report(2, ok, "; ".join(details))


def test_criterion_3_budget_safety_200_maps():
    rng = random.Random(2024)
    violations = 0
    runs = 0
    for _ in range(200):
        w = rng.randint(10, 40)
        h = rng.randint(10, 40)
        station = (0, 0)
        obstacles = random_rect_obstacles(rng, w, h, station, rng.uniform(0.0, 0.3))
        gt = GroundTruth(w, h, frozenset(obstacles), station)
        # sampled above the feasibility guard: every cell's optimistic round
        # trip costs at most travel * 2 * diag, with margin for detours
        e0 = 3.0 * math.hypot(w, h) + 40.0
        cfg = MissionConfig(capacity_e0=e0, travel_rate=0.5, sensor_range=4.0)
        mission = Mission(gt, cfg)
        report = mission.run()
        runs += 1
        if any(row[4] < 0.0 for row in mission.log_rows):
            violations += 1
        for traj in report.trajectories:
            if traj.first_cell != station or traj.last_cell != station:
                violations += 1
            if any(gt.is_obstacle(c) for seg in traj.segments for c in seg.cells):
                violations += 1
    _report(3, violations == 0, f"{runs} random missions, {violations} violations")


def test_criterion_4_shortest_path_oracle():
    rng = random.Random(404)
    failures = 0
    tested = 0
    while tested < 100:
        w = rng.randint(10, 24)
        h = rng.randint(10, 24)
        obstacles = random_rect_obstacles(rng, w, h, (0, 0), rng.uniform(0.05, 0.3))
        grid = explored_grid(w, h, obstacles, (0, 0))
        free = sorted(c for c in grid_cells(grid) if grid.state(c) is CellState.EXPLORED)
        if len(free) < 2:
            continue
        start, goal = rng.sample(free, 2)
        grid_lengths = grid_dijkstra(grid, start, explored_only, cut_corners=False)
        if goal not in grid_lengths:
            continue
        tested += 1
        graph = build_visibility_graph(grid, start, goal, explored_only)
        mine = astar(graph, start, goal)
        oracle = dijkstra_on_graph(graph, start, goal)
        if mine is None or oracle is None:
            failures += 1
            continue
        if mine.length != oracle:
            failures += 1
        if mine.length > grid_lengths[goal] + 1e-9:
            failures += 1
    _report(4, failures == 0, f"100 instances, {failures} failures")


def test_criterion_5_potential_conformance():
    rng = random.Random(55)
    violations = 0
    checked = 0
    for _ in range(40):
        w = rng.randint(3, 30)
        h = rng.randint(3, 30)
        grid = CellGrid(w, h, (0, 0))
        for cell in list(grid_cells(grid)):
            r = rng.random()
            if r < 0.3 and cell != grid.station:
                grid.apply_sensor_update({cell})
            elif r < 0.6:
                grid.mark_traversed(cell)
        for cell in grid_cells(grid):
            checked += 1
            p = potential_level0(grid, cell)
            state = grid.state(cell)
            if state is CellState.OBSTACLE and p != -1.0:
                violations += 1
            elif state is CellState.EXPLORED and p != 0.0:
                violations += 1
            elif state is CellState.UNEXPLORED and p != b_field(grid, cell):
                violations += 1
        for col in range(w):
            plateau = {b_field(grid, (col, row)) for row in range(h)}
            if len(plateau) != 1:
                violations += 1
            if col and b_field(grid, (col - 1, 0)) <= b_field(grid, (col, 0)):
                violations += 1
    _report(5, violations == 0, f"{checked} cells checked, {violations} violations")


def test_criterion_6_completeness_vs_flood_fill():
    rng = random.Random(606)
    mismatches = 0
    for _ in range(50):
        w = rng.randint(8, 22)
        h = rng.randint(8, 22)
        station = (0, 0)
        obstacles = random_rect_obstacles(rng, w, h, station, rng.uniform(0.0, 0.25))
        gt = GroundTruth(w, h, frozenset(obstacles), station)
        e0 = 3.0 * math.hypot(w, h) + 40.0
        cfg = MissionConfig(capacity_e0=e0, travel_rate=0.5, sensor_range=3.5)
        mission = Mission(gt, cfg)
        report = mission.run()
        explored = {c for c in grid_cells(mission.grid) if mission.grid.state(c) is CellState.EXPLORED}
        reachable = flood_reachable(w, h, obstacles, station)
        if explored != reachable:
            mismatches += 1
        free = w * h - len(obstacles)
        if report.covered_cell_count + report.uncoverable_cell_count != free:
            mismatches += 1
    _report(6, mismatches == 0, f"50 random maps, {mismatches} mismatches")


def test_criterion_7_determinism():
    outputs = []
    for _ in range(2):
        gt = _load("field_a.txt")
        mission = Mission(gt, MissionConfig())
        report = mission.run()
        outputs.append(
            (log_to_csv(mission.log_rows).encode(), report_to_text(report).encode())
        )
    ok = outputs[0] == outputs[1]
    _report(7, ok, "two field_a runs produced byte-identical trajectory.csv and report.txt")


def test_criterion_8_no_overlap_on_empty_map():
    lines = ["." * 20 for _ in range(20)]
    lines[-1] = "C" + "." * 19
    gt = GroundTruth.from_parsed(parse_map_text("\n".join(lines) + "\n"))
    report = Mission(gt, MissionConfig(capacity_e0=1e9)).run()
    ok = report.overlap_count == 0 and report.covered_cell_count == 400
    _report(8, ok, f"overlap_count={report.overlap_count}, covered={report.covered_cell_count}/400")
