import gc
import math
import random
import weakref
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

from epsplus.config import MissionConfig
from epsplus.energy import SegmentKind
from epsplus.grid import CellGrid, CellState, parse_map_text
import epsplus.mission as mission_mod
from epsplus.mission import Mission, MissionEvent, log_to_csv, report_to_text, run_mission
from epsplus.pathfind import (
    DistanceField,
    astar,
    build_visibility_graph,
    explored_only,
    grid_astar,
    non_obstacle,
)
from epsplus.sim import GroundTruth

from helpers import (
    explored_grid,
    flood_reachable,
    grid_dijkstra,
    map_text,
    random_belief_grid,
    random_rect_obstacles,
    reachable_cells,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def gt_from_text(text):
    return GroundTruth.from_parsed(parse_map_text(text))


EMPTY_3X3 = "...\n...\nC..\n"


def test_empty_3x3_single_trajectory():
    gt = gt_from_text(EMPTY_3X3)
    report = run_mission(gt, MissionConfig(capacity_e0=1e6))
    assert report.covered_cell_count == 9
    assert report.uncoverable_cell_count == 0
    assert report.recharge_count == 0
    assert len(report.trajectories) == 1
    kinds = [s.kind for s in report.trajectories[0].segments]
    assert kinds == [SegmentKind.COVERAGE, SegmentKind.RETREAT]


def test_first_event_is_sensed_and_completed_is_last():
    gt = gt_from_text(EMPTY_3X3)
    m = Mission(gt, MissionConfig(capacity_e0=1e6))
    events = []
    first = m.step()
    assert first is MissionEvent.SENSED
    events.append(first)
    while events[-1] is not MissionEvent.COMPLETED:
        events.append(m.step())
    assert events[-1] is MissionEvent.COMPLETED
    with pytest.raises(RuntimeError):
        m.step()


def test_completed_mission_is_freed_without_cyclic_gc():
    m = Mission(gt_from_text(EMPTY_3X3), MissionConfig(capacity_e0=1e6))
    while m.step() is not MissionEvent.COMPLETED:
        pass
    ref = weakref.ref(m)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_step_replay_matches_run():
    text = map_text(9, 7, {(3, 3), (3, 4), (4, 3), (6, 1)}, (0, 0))
    gt1 = gt_from_text(text)
    gt2 = gt_from_text(text)
    cfg = MissionConfig(capacity_e0=28.0, travel_rate=0.5, sensor_range=2.0)
    stepped = Mission(gt1, cfg)
    while True:
        try:
            stepped.step()
        except RuntimeError:
            break
    ran = Mission(gt2, cfg)
    ran.run()
    assert stepped.report == ran.report
    assert stepped.log_rows == ran.log_rows


def test_retreat_event_when_energy_low():
    text = map_text(8, 8, set(), (0, 0))
    gt = gt_from_text(text)
    m = Mission(gt, MissionConfig(capacity_e0=12.0, travel_rate=0.5, sensor_range=2.0))
    events = []
    while not events or events[-1] is not MissionEvent.COMPLETED:
        events.append(m.step())
    assert MissionEvent.RETREAT_STARTED in events
    assert MissionEvent.RECHARGED in events
    assert MissionEvent.ADVANCE_STARTED in events
    assert m.report.recharge_count >= 1


def test_trajectory_invariants_and_budget():
    text = map_text(12, 12, {(4, 4), (4, 5), (5, 4), (5, 5), (8, 2), (9, 9)}, (0, 0))
    gt = gt_from_text(text)
    cfg = MissionConfig(capacity_e0=40.0, travel_rate=0.5, sensor_range=3.0)
    m = Mission(gt, cfg)
    report = m.run()
    assert report.uncoverable_cell_count == 0
    for traj in report.trajectories:
        assert traj.first_cell == gt.station
        assert traj.last_cell == gt.station
        assert traj.energy <= cfg.capacity_e0 + 1e-9
        for seg in traj.segments:
            assert abs(seg.energy - seg.length * (1.0 if seg.kind is SegmentKind.COVERAGE else 0.5)) <= 1e-9
    total = math.fsum(t.length for t in report.trajectories)
    assert abs(total - report.total_length) <= 1e-9


def test_log_rows_consistent():
    gt = gt_from_text(map_text(10, 6, {(3, 2), (3, 3)}, (0, 0)))
    cfg = MissionConfig(capacity_e0=25.0, travel_rate=0.5, sensor_range=2.5)
    m = Mission(gt, cfg)
    m.run()
    rows = m.log_rows
    assert rows[0][:4] == (1, "coverage", 0, 0)
    cum = [r[5] for r in rows]
    assert cum == sorted(cum)
    for r in rows:
        assert 0.0 <= r[4] <= cfg.capacity_e0 + 1e-9
        assert r[1] in ("advance", "coverage", "retreat")
    csv_text = log_to_csv(rows)
    assert csv_text.splitlines()[0] == "trajectory_index,segment_kind,col,row,remaining_energy,cumulative_length"
    assert len(csv_text.splitlines()) == len(rows) + 1


def test_sealed_room_reported_uncoverable():
    text = (
        "......\n"
        ".####.\n"
        ".#..#.\n"
        ".####.\n"
        "C.....\n"
    )
    gt = gt_from_text(text)
    report = run_mission(gt, MissionConfig(capacity_e0=1e6, sensor_range=2.0))
    assert report.uncoverable_cell_count == 2
    free = gt.width * gt.height - len(gt.obstacles)
    assert report.covered_cell_count + report.uncoverable_cell_count == free
    reachable_free = flood_reachable(gt.width, gt.height, gt.obstacles, gt.station)
    assert report.covered_cell_count == len(reachable_free)


def test_diagonally_hidden_obstacle_is_bumped_not_crashed():
    # (2,2) is a true obstacle only approachable diagonally; every sight line
    # to it grazes flanking obstacles, so it stays undetected until contact
    obstacles = {(1, 2), (2, 1), (2, 3), (3, 2), (3, 3), (2, 2)}
    text = map_text(6, 6, obstacles, (0, 0))
    gt = gt_from_text(text)
    report = run_mission(gt, MissionConfig(capacity_e0=1e6, sensor_range=3.0))
    assert report.uncoverable_cell_count == 0
    for traj in report.trajectories:
        for seg in traj.segments:
            for cell in seg.cells:
                assert not gt.is_obstacle(cell)


def test_safety_and_completeness_on_random_maps():
    rng = random.Random(77)
    for _ in range(12):
        w = rng.randint(8, 16)
        h = rng.randint(8, 16)
        station = (0, 0)
        obstacles = random_rect_obstacles(rng, w, h, station, rng.uniform(0.0, 0.3))
        gt = GroundTruth(w, h, frozenset(obstacles), station)
        e0 = 3.0 * math.hypot(w, h) + 40.0
        cfg = MissionConfig(capacity_e0=e0, travel_rate=0.5, sensor_range=3.0)
        report = run_mission(gt, cfg)
        reachable_free = flood_reachable(w, h, obstacles, station)
        assert report.covered_cell_count == len(reachable_free)
        for traj in report.trajectories:
            assert traj.energy <= e0 + 1e-9
            for seg in traj.segments:
                assert not any(gt.is_obstacle(c) for c in seg.cells)


def test_one_flood_fill_per_mission(monkeypatch):
    # new obstacles keep the reachable mask exact, so only the first coarse
    # selection floods the map; the mission still covers what the oracle reaches
    rng = random.Random(7)
    obstacles = random_rect_obstacles(rng, 60, 60, (0, 0), 0.2)
    gt = GroundTruth(60, 60, frozenset(obstacles), (0, 0))
    fills = []
    flood = CellGrid._flood_unexplored

    def counting(grid):
        fills.append(grid)
        return flood(grid)

    monkeypatch.setattr(CellGrid, "_flood_unexplored", counting)
    report = run_mission(gt)
    assert len(fills) == 1
    assert report.covered_cell_count == len(flood_reachable(60, 60, obstacles, (0, 0)))


def test_station_walks_skip_grid_astar_on_field_a(monkeypatch):
    # retreats to the station and advances from it read their walk's length
    # off the distance field, and on field_a every sight-line path beats it,
    # so grid A* runs only for coverage routes (26 calls, 15 of them
    # explored-only, when each station query also ran it)
    calls = []
    search = mission_mod.grid_astar

    def counting(grid, start, goal, traversable):
        calls.append(traversable)
        return search(grid, start, goal, traversable)

    monkeypatch.setattr(mission_mod, "grid_astar", counting)
    run_mission(gt_from_text((SCENARIOS / "field_a.txt").read_text()))
    assert len(calls) == 11
    assert all(pred is non_obstacle for pred in calls)


def test_waypoint_invalidation_replans():
    # a wide obstacle appears in the sweep direction only once the vehicle
    # gets close; the mission must keep making progress and still finish
    obstacles = {(c, 5) for c in range(0, 6)} | {(5, r) for r in range(0, 5)}
    text = map_text(8, 8, obstacles, (0, 0))
    gt = gt_from_text(text)
    report = run_mission(gt, MissionConfig(capacity_e0=1e6, sensor_range=1.5))
    reachable_free = flood_reachable(8, 8, obstacles, (0, 0))
    assert report.covered_cell_count == len(reachable_free)
    assert report.uncoverable_cell_count == (8 * 8 - len(obstacles)) - len(reachable_free)


def test_overlap_zero_on_empty_map():
    gt = gt_from_text(map_text(10, 10, set(), (0, 0)))
    report = run_mission(gt, MissionConfig(capacity_e0=1e9))
    assert report.overlap_count == 0
    assert report.covered_cell_count == 100


def test_single_cell_world():
    gt = gt_from_text("C\n")
    report = run_mission(gt, MissionConfig(capacity_e0=5.0))
    assert report.covered_cell_count == 1
    assert report.recharge_count == 0
    assert len(report.trajectories) == 1


def test_station_sealed_by_obstacles():
    text = (
        ".....\n"
        ".###.\n"
        ".#C#.\n"
        ".###.\n"
        ".....\n"
    )
    gt = gt_from_text(text)
    report = run_mission(gt, MissionConfig(capacity_e0=100.0, sensor_range=2.0))
    assert report.covered_cell_count == 1
    assert report.uncoverable_cell_count == 16


def test_energy_infeasible_cells_reported_not_attempted():
    # E0 = 8 pays the round trip only out to roughly column 7 of a 15x3 strip
    lines = ["." * 15 for _ in range(3)]
    lines[-1] = "C" + "." * 14
    gt = gt_from_text("\n".join(lines) + "\n")
    report = run_mission(gt, MissionConfig(capacity_e0=8.0, travel_rate=0.5, sensor_range=2.0))
    assert report.covered_cell_count == 21
    assert report.uncoverable_cell_count == 24
    for traj in report.trajectories:
        assert traj.energy <= 8.0 + 1e-9
        assert traj.first_cell == gt.station and traj.last_cell == gt.station


def retreat_cases():
    """Bundled scenarios plus tight-budget random maps (E0 0.6-1.1 x diagonal)."""
    yield "field_a", (SCENARIOS / "field_a.txt").read_text(), MissionConfig()
    yield "field_b", (SCENARIOS / "field_b.txt").read_text(), MissionConfig()
    yield "small_office", (SCENARIOS / "small_office.txt").read_text(), MissionConfig(
        capacity_e0=14.0, travel_rate=0.5, coverage_rate=1.0, sensor_range=1.5
    )
    rng = random.Random(41)
    for i in range(20):
        w, h = rng.randint(12, 20), rng.randint(12, 20)
        obstacles = random_rect_obstacles(rng, w, h, (0, 0), rng.uniform(0.05, 0.3))
        e0 = rng.uniform(0.6, 1.1) * math.hypot(w, h)
        yield f"tight-{i}", map_text(w, h, obstacles, (0, 0)), MissionConfig(
            capacity_e0=e0, sensor_range=3.0
        )


def test_retreat_estimate_bounds_every_flown_retreat(monkeypatch):
    # the gate prices a retreat with the distance field; the retreat flown
    # must never be longer, and must reach the station with energy left
    flown = []
    at_station = []
    plan_retreat = Mission._plan_retreat
    close_trajectory = Mission._close_trajectory

    def checked_plan(self, from_cell):
        plan = plan_retreat(self, from_cell)
        flown.append((from_cell, plan.length, self.dfield.distance(from_cell)))
        return plan

    def checked_close(self):
        at_station.append((self.pos == self.grid.station, self.energy.remaining))
        close_trajectory(self)

    monkeypatch.setattr(Mission, "_plan_retreat", checked_plan)
    monkeypatch.setattr(Mission, "_close_trajectory", checked_close)
    for name, text, cfg in retreat_cases():
        flown.clear()
        at_station.clear()
        run_mission(gt_from_text(text), cfg)
        for start, length, estimate in flown:
            assert length <= estimate + 1e-9, (name, start, length, estimate)
        assert flown, name
        assert all(home and left >= 0.0 for home, left in at_station), name


def test_shortest_is_the_shorter_of_both_planners():
    rng = random.Random(53)
    compared = 0
    for _ in range(80):
        grid = random_belief_grid(rng, rng.randint(4, 14), rng.randint(4, 14))
        cells = list(grid.cells())
        dfield = DistanceField(grid)
        for c in cells:
            if grid.state(c) is CellState.EXPLORED:
                dfield.insert(c)
        for pred in (explored_only, non_obstacle):
            start = rng.choice([c for c in cells if pred(grid.state(c))])
            goal = rng.choice(cells)
            vis = astar(build_visibility_graph(grid, start, goal, pred), start, goal)
            walk = grid_astar(grid, start, goal, pred)
            if vis is not None:
                # a sight-line path is a chain of 8-adjacent admitted cells
                assert walk is not None, (start, goal)
                compared += 1
            found = [p for p in (vis, walk) if p is not None]
            expected = min(found, key=lambda p: (p.length, p.cells), default=None)
            got = Mission._shortest(SimpleNamespace(grid=grid, dfield=dfield), start, goal, pred)
            if expected is None:
                assert got is None
            else:
                assert (got.cells, got.length) == (expected.cells, expected.length)
    assert compared


def tight_budget_maps():
    """40 random maps, each with E0 0.6-1.1 x its longest true explored-grid distance.

    Yields the ground truth, the config and those distances.
    """
    rng = random.Random(61)
    for _ in range(40):
        w, h = rng.randint(12, 20), rng.randint(12, 20)
        obstacles = random_rect_obstacles(rng, w, h, (0, 0), rng.uniform(0.05, 0.3))
        gt = GroundTruth(w, h, frozenset(obstacles), (0, 0))
        # with every free cell explored, explored-only distances are the true ones
        dist = grid_dijkstra(explored_grid(w, h, obstacles, (0, 0)), (0, 0), explored_only)
        cfg = MissionConfig(capacity_e0=rng.uniform(0.6, 1.1) * max(dist.values()), sensor_range=3.0)
        yield gt, cfg, dist


class PlanCounting(Mission):
    """Counts advance plans (the advance phase's checks and in-flight re-plans)."""

    def __init__(self, gt, config):
        self.advance_plans = 0
        super().__init__(gt, config)

    def _plan_advance(self, start, target):
        self.advance_plans += 1
        return super()._plan_advance(start, target)


class WithoutFloor(PlanCounting):
    """Records no advance floor, so every rejected target is planned again."""

    _out_of_reach = property(lambda self: set(), lambda self, value: None)


class FloorChecked(Mission):
    """Plans every target that a floor keeps from being planned.

    Two floors skip advance plans: the recorded advance floor keeps targets
    out of a restart selection, and the distance field's walk floor rejects
    a drawn candidate before planning it.
    """

    def __init__(self, gt, config):
        self.walk_floored = 0
        self._planning = False
        self._unplanned = None  # the last candidate asked for its walk floor, until planned
        super().__init__(gt, config)
        explored_walk = self.dfield.explored_walk

        def checked(start, goal):
            # outside a plan, walks from the station are asked for only by the
            # advance phase's walk floor, once per drawn candidate
            if not self._planning and start == self.grid.station:
                self.check_walk_floor()
                self._unplanned = goal
            return explored_walk(start, goal)

        self.dfield.explored_walk = checked

    def check_walk_floor(self):
        """Plans the last candidate if the walk floor rejected it; the plan must fail too.

        Called at the next floor query and after the run: the cell states
        have not changed since the rejection.
        """
        target, self._unplanned = self._unplanned, None
        if target is not None:
            plan, used = self._plan_advance(self.grid.station, target)
            assert used is explored_only and self._rejects(plan.length), target
            self.walk_floored += 1

    def _rejects(self, length):
        energy = self.energy
        return energy.capacity < 2.0 * energy.travel_rate * length + energy.coverage_rate * math.sqrt(2.0)

    def _plan_advance(self, start, target):
        if (start, target) == (self.grid.station, self._unplanned):
            self._unplanned = None
        planning, self._planning = self._planning, True
        try:
            return super()._plan_advance(start, target)
        finally:
            self._planning = planning

    @property
    def _out_of_reach(self):
        # read where a restart selection's exclusions are built: each
        # excluded target that would still be selectable must be one that a
        # plan from the station rejects
        grid = self.grid
        selectable = reachable_cells(grid)
        stamp = tuple(grid.counts().values())  # plans change only with the cell states
        for target in self._floored:
            if target in selectable and (target, stamp) not in self.rejected:
                plan, _ = self._plan_advance(grid.station, target)
                assert self._rejects(plan.length), (target, plan.length)
                self.rejected.add((target, stamp))
        return self._floored

    @_out_of_reach.setter
    def _out_of_reach(self, value):
        self._floored = value
        self.rejected = set()


def test_tight_budget_leaves_only_infeasible_cells_uncovered():
    # a reachable cell may stay uncovered only if no charge pays for flying
    # there and back along the true shortest path plus one coverage step;
    # and no restart target is skipped that a plan would have accepted
    skipped = rejected = walk_floored = 0
    for i, (gt, cfg, dist) in enumerate(tight_budget_maps()):
        mission = FloorChecked(gt, cfg)
        mission.run()
        mission.check_walk_floor()
        rejected += len(mission.rejected)
        walk_floored += mission.walk_floored
        min_step = cfg.coverage_rate * math.sqrt(2.0)
        for cell, d in dist.items():
            if mission.grid.state(cell) is not CellState.EXPLORED:
                skipped += 1
                assert 2.0 * cfg.travel_rate * d + min_step > cfg.capacity_e0, (i, cell, d)
    assert skipped and rejected and walk_floored


def test_advance_floor_saves_plans_and_changes_no_log_row():
    # map 16 of the 40 runs 117 advance plans with the floor, 641 without
    gt, cfg, _ = next(islice(tight_budget_maps(), 16, None))
    with_floor, without = PlanCounting(gt, cfg), WithoutFloor(gt, cfg)
    with_floor.run()
    without.run()
    assert with_floor.log_rows == without.log_rows
    assert with_floor.advance_plans < without.advance_plans


class SensingEveryVisit(Mission):
    """Senses at every visit of a pose, not only at the first."""

    def __init__(self, gt, config):
        self.repeats = 0
        self._seen = set()
        super().__init__(gt, config)

    def _sense_here(self):
        self.repeats += self.pos in self._seen
        self._seen.add(self.pos)
        return self._add_obstacles(self.gt.sense(self.sensor, self.pos))


def test_sensing_each_pose_once_changes_no_log_row_or_report():
    # a pose's detections are fixed, so a repeat sensing could only mark
    # cells already marked; the bundled scenarios and a few tight budgets
    repeats = 0
    for name, text, cfg in islice(retreat_cases(), 8):
        shipped, every = Mission(gt_from_text(text), cfg), SensingEveryVisit(gt_from_text(text), cfg)
        shipped_report, every_report = shipped.run(), every.run()
        assert shipped.log_rows == every.log_rows, name
        assert report_to_text(shipped_report) == report_to_text(every_report), name
        repeats += every.repeats
    assert repeats
