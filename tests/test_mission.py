import functools
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
from epsplus.errors import PlanningError
from epsplus.grid import CellGrid, CellState, parse_map_text
import epsplus.mission as mission_mod
import epsplus.pathfind as pathfind_mod
from epsplus.mission import Mission, MissionEvent, log_to_csv, report_to_text
from epsplus.pathfind import (
    GRID_STRETCH,
    DistanceField,
    astar,
    build_visibility_graph,
    explored_only,
    grid_astar,
    non_obstacle,
    supercover_line,
)
from epsplus.planner import restart_candidates
from epsplus.sim import GroundTruth, SensorModel

from helpers import (
    flood_reachable,
    full_sense,
    grid_cells,
    map_text,
    random_belief_grid,
    random_rect_obstacles,
    reachable_cells,
    tight_budget_maps,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def gt_from_text(text):
    return GroundTruth.from_parsed(parse_map_text(text))


@pytest.fixture
def planned_rules(monkeypatch):
    """The rule each of the mission's two planners receives, call by call.

    Both run only inside ``Mission._shortest``, which builds the visibility
    graph on every call that its walk floor does not stop, so after a plan
    that runs a planner the last entry is its rule.
    """
    rules = []
    build, search = mission_mod.build_visibility_graph, mission_mod.grid_astar

    def recorded(planner):
        def call(grid, start, goal, rule, limit=math.inf):
            rules.append(rule)
            return planner(grid, start, goal, rule, limit)

        return call

    monkeypatch.setattr(mission_mod, "build_visibility_graph", recorded(build))
    monkeypatch.setattr(mission_mod, "grid_astar", recorded(search))
    return rules


EMPTY_3X3 = "...\n...\nC..\n"


def test_empty_3x3_single_trajectory():
    gt = gt_from_text(EMPTY_3X3)
    report = Mission(gt, MissionConfig(capacity_e0=1e6)).run()
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


def test_unstepped_mission_is_freed_without_cyclic_gc():
    m = Mission(gt_from_text(EMPTY_3X3), MissionConfig(capacity_e0=1e6))
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


def test_run_finishes_a_stepped_mission_once():
    # run() picks up where step() left off, returns one report however often
    # it is called, and leaves a mission that step() reports as completed
    # and that is freed without the cyclic GC; field_b recharges, so 50
    # steps stop mid-mission
    gt = gt_from_text((SCENARIOS / "field_b.txt").read_text())
    fresh = Mission(gt, MissionConfig())
    report = fresh.run()
    assert report.recharge_count > 0
    resumed = Mission(gt, MissionConfig())
    for _ in range(50):
        assert resumed.step() is not MissionEvent.COMPLETED
    assert resumed.run() == report
    assert resumed.log_rows == fresh.log_rows
    assert resumed.run() is resumed.report
    with pytest.raises(RuntimeError):
        resumed.step()
    refs = [weakref.ref(fresh), weakref.ref(resumed)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del fresh, resumed
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


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
    report = Mission(gt, MissionConfig(capacity_e0=1e6, sensor_range=2.0)).run()
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
    report = Mission(gt, MissionConfig(capacity_e0=1e6, sensor_range=3.0)).run()
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
        report = Mission(gt, cfg).run()
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
    report = Mission(gt).run()
    assert len(fills) == 1
    assert report.covered_cell_count == len(flood_reachable(60, 60, obstacles, (0, 0)))


def test_one_core_build_per_predicate_and_mission(monkeypatch):
    # each visibility-graph core is built from empty once, then synced with
    # the grid's changes for the rest of the mission
    builds = []
    init = pathfind_mod._Core.__init__

    def counting(core, grid, rule):
        builds.append(rule)
        init(core, grid, rule)

    monkeypatch.setattr(pathfind_mod._Core, "__init__", counting)
    tight_gt, tight_cfg, _ = next(islice(tight_budget_maps(), 16, None))
    field_a = gt_from_text((SCENARIOS / "field_a.txt").read_text())
    for gt, cfg in ((field_a, None), (tight_gt, tight_cfg)):
        builds.clear()
        Mission(gt, cfg).run()
        assert sorted(builds) == sorted([explored_only, non_obstacle])


def test_station_walks_skip_grid_astar_on_field_a(monkeypatch):
    # retreats to the station and advances from it read their walk's length
    # off the distance field, and on field_a every sight-line path beats it,
    # so grid A* runs only for coverage routes (26 calls, 15 of them
    # explored-only, when each station query also ran it)
    calls = []
    search = mission_mod.grid_astar

    def counting(grid, start, goal, rule, limit=math.inf):
        calls.append(rule)
        return search(grid, start, goal, rule, limit)

    monkeypatch.setattr(mission_mod, "grid_astar", counting)
    Mission(gt_from_text((SCENARIOS / "field_a.txt").read_text())).run()
    assert len(calls) == 11
    assert all(pred is non_obstacle for pred in calls)


def test_adjacent_moves_hand_the_gate_estimate_to_the_field(monkeypatch):
    # the gate's neighbor_estimate of an adjacent waypoint is the one the
    # field's insert would compute once the vehicle stands there: marking
    # the cell changes only its own state, which the estimate does not read
    handed = []
    insert = DistanceField.insert

    def checked(field, cell, estimate=None):
        if estimate is not None:
            assert estimate.hex() == field.neighbor_estimate(cell).hex(), cell
            handed.append(cell)
        insert(field, cell, estimate)

    monkeypatch.setattr(DistanceField, "insert", checked)
    report = Mission(gt_from_text((SCENARIOS / "field_a.txt").read_text())).run()
    assert len(handed) > report.covered_cell_count // 2


def test_waypoint_invalidation_replans():
    # a wide obstacle appears in the sweep direction only once the vehicle
    # gets close; the mission must keep making progress and still finish
    obstacles = {(c, 5) for c in range(0, 6)} | {(5, r) for r in range(0, 5)}
    text = map_text(8, 8, obstacles, (0, 0))
    gt = gt_from_text(text)
    report = Mission(gt, MissionConfig(capacity_e0=1e6, sensor_range=1.5)).run()
    reachable_free = flood_reachable(8, 8, obstacles, (0, 0))
    assert report.covered_cell_count == len(reachable_free)
    assert report.uncoverable_cell_count == (8 * 8 - len(obstacles)) - len(reachable_free)


def test_overlap_zero_on_empty_map():
    gt = gt_from_text(map_text(10, 10, set(), (0, 0)))
    report = Mission(gt, MissionConfig(capacity_e0=1e9)).run()
    assert report.overlap_count == 0
    assert report.covered_cell_count == 100


def test_single_cell_world():
    gt = gt_from_text("C\n")
    report = Mission(gt, MissionConfig(capacity_e0=5.0)).run()
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
    report = Mission(gt, MissionConfig(capacity_e0=100.0, sensor_range=2.0)).run()
    assert report.covered_cell_count == 1
    assert report.uncoverable_cell_count == 16


def test_energy_infeasible_cells_reported_not_attempted():
    # E0 = 8 pays the round trip only out to roughly column 7 of a 15x3 strip
    lines = ["." * 15 for _ in range(3)]
    lines[-1] = "C" + "." * 14
    gt = gt_from_text("\n".join(lines) + "\n")
    report = Mission(gt, MissionConfig(capacity_e0=8.0, travel_rate=0.5, sensor_range=2.0)).run()
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
        Mission(gt_from_text(text), cfg).run()
        for start, length, estimate in flown:
            assert length <= estimate + 1e-9, (name, start, length, estimate)
        assert flown, name
        assert all(home and left >= 0.0 for home, left in at_station), name


def test_retreat_from_an_explored_cell_cut_off_from_the_station_raises():
    # a retreat crosses explored cells only; none joins (3, 0) to the station
    mission = Mission(gt_from_text("....\n....\nC...\n"), MissionConfig(capacity_e0=1e6))
    mission.grid.mark_traversed((3, 0))
    with pytest.raises(PlanningError, match="no retreat path from"):
        mission._plan_retreat((3, 0))


def test_route_to_a_waypoint_the_belief_grid_walls_off_raises():
    # a coverage route crosses any cell not marked obstacle; (4, 4) is ringed by them
    mission = Mission(gt_from_text(".....\n.....\n.....\n.....\nC....\n"), MissionConfig(capacity_e0=1e6))
    mission._add_obstacles([(3, 3), (3, 4), (4, 3)])
    with pytest.raises(PlanningError, match="no route to reachable waypoint"):
        mission._route_for((4, 4))


def test_shortest_is_the_shorter_of_both_planners(planned_rules):
    # under the rule _shortest chooses, which both planners receive
    rng = random.Random(53)
    compared = 0
    chosen = set()
    for _ in range(80):
        grid = random_belief_grid(rng, rng.randint(4, 14), rng.randint(4, 14))
        cells = list(grid_cells(grid))
        dfield = DistanceField(grid)
        for c in cells:
            if grid.state(c) is CellState.EXPLORED:
                dfield.insert(c)
        mission = SimpleNamespace(grid=grid, dfield=dfield)
        for _ in range(2):
            start = rng.choice([c for c in cells if grid.state(c) is CellState.EXPLORED])
            goal = rng.choice(cells)
            # station queries also read the field's walk
            for start, goal in ((start, goal), (grid.station, goal), (start, grid.station)):
                Mission._shortest(mission, start, goal)
                pred = planned_rules[-1]
                chosen.add(pred)
                vis = astar(build_visibility_graph(grid, start, goal, pred), start, goal)
                walk = grid_astar(grid, start, goal, pred)
                if vis is not None:
                    # a sight-line path is a chain of 8-adjacent admitted cells
                    assert walk is not None, (start, goal)
                    compared += 1
                found = [p for p in (vis, walk) if p is not None]
                expected = min(found, key=lambda p: (p.length, p.cells), default=None)
                length = 1.0 if expected is None else expected.length
                # bounded: the same path when it fits, else none
                for limit in (math.inf, length, math.nextafter(length, 0.0), length / 2):
                    got = Mission._shortest(mission, start, goal, limit)
                    assert planned_rules[-1] is pred, (start, goal, limit)
                    if expected is None or expected.length > limit:
                        assert got is None, (start, goal, limit)
                    else:
                        assert (got.cells, got.length) == (expected.cells, expected.length), limit
    assert compared and chosen == {explored_only, non_obstacle}


class RuleChecked(Mission):
    """Checks the rule each ``_shortest`` plan hands both planners."""

    def __init__(self, gt, config, rules):
        self.rules = rules
        super().__init__(gt, config)

    def _shortest(self, start, goal, limit=math.inf):
        walk = self.dfield.explored_walk(start, goal)
        before = len(self.rules)
        plan = super()._shortest(start, goal, limit)
        # a known walk over the limit times GRID_STRETCH stops the plan before both planners
        floored = walk is not None and math.inf > walk > limit * GRID_STRETCH
        assert (len(self.rules) == before) == floored, (start, goal, walk, limit)
        if floored:
            assert plan is None, (start, goal)
            return plan
        rule = self.rules[-1]
        assert set(self.rules[before:]) == {rule}, (start, goal)
        assert (rule is non_obstacle) == (walk == math.inf), (start, goal, walk)
        # a retreat never crosses unexplored cells
        assert goal != self.grid.station or rule is explored_only, start
        return plan


def test_shortest_plans_over_non_obstacle_cells_exactly_without_an_explored_walk(planned_rules):
    # the distance field picks each retreat's and advance's rule, in one place
    field_a = gt_from_text((SCENARIOS / "field_a.txt").read_text())
    cases = [(field_a, None)] + [(gt, cfg) for gt, cfg, _ in islice(tight_budget_maps(), 8)]
    for gt, cfg in cases:
        RuleChecked(gt, cfg, planned_rules).run()
    assert set(planned_rules) == {explored_only, non_obstacle}


def unaffordable(energy, length):
    """Whether no charge pays for an advance of this length, the way back and one coverage step."""
    return energy.capacity < 2.0 * energy.travel_rate * length + energy.coverage_rate * math.sqrt(2.0)


class PlanCounting(Mission):
    """Counts advance plans: the ``_shortest`` calls of restart candidates and of in-flight re-plans.

    Those are the bounded plans; a retreat is planned unbounded.
    """

    def __init__(self, gt, config):
        self.advance_plans = 0
        super().__init__(gt, config)

    def _shortest(self, start, goal, limit=math.inf):
        self.advance_plans += limit < math.inf
        return super()._shortest(start, goal, limit)


class WithoutExclusions(PlanCounting):
    """Keeps no restart target out of a selection, so every rejected target is planned again."""

    _out_of_reach = _rejected = property(lambda self: set(), lambda self, value: None)


def planning_a_candidate(mission):
    """Whether a bounded plan is a restart candidate's: those are planned between trajectories."""
    return not mission._segments


def exclusion_checked(held):
    """A mission's exclusion set, stored under ``held`` and checked at every read.

    The mission reads its exclusions where a restart selection is built and
    where it adds to them: each excluded target that is still selectable
    must be one that a fresh unbounded plan from the station rejects.
    """

    def read(self):
        grid = self.grid
        selectable = reachable_cells(grid)
        stamp = tuple(grid.counts().values())  # plans change only with the cell states
        checked = self.checked.setdefault(held, set())
        for target in self.__dict__[held]:
            if target in selectable and (target, stamp) not in checked:
                plan = self._shortest(grid.station, target)
                assert unaffordable(self.energy, plan.length), (held, target, plan.length)
                checked.add((target, stamp))
        return self.__dict__[held]

    def write(self, value):
        self.__dict__[held] = value

    return property(read, write)


class FloorChecked(Mission):
    """Plans in full every query that a floor, a bound or an exclusion keeps from a full plan.

    ``_shortest``'s walk floor stops a query before either planner runs,
    the budget bounds the plan of every restart candidate, and the
    remaining energy bounds every re-plan during an advance. Each bounded
    query is planned unbounded too, and both must choose one rule. The two
    exclusions keep targets out of restart selections (``exclusion_checked``).
    """

    _out_of_reach = exclusion_checked("held_out_of_reach")
    _rejected = exclusion_checked("held_rejected")

    def __init__(self, gt, config, rules):
        self.rules = rules
        self.checked = {}  # per exclusion: the (target, cell-state counts) planned afresh
        self.floored = 0
        self.bound_rejected = 0
        self.replans_kept = 0
        self.replans_bound_rejected = 0
        super().__init__(gt, config)

    def _shortest(self, start, goal, limit=math.inf):
        if limit == math.inf:
            return super()._shortest(start, goal)
        before = len(self.rules)
        plan = super()._shortest(start, goal, limit)
        used = self.rules[-1] if len(self.rules) > before else None
        full = super()._shortest(start, goal)
        full_used = self.rules[-1]
        explored = grid_astar(self.grid, start, goal, explored_only)
        # a target with an explored walk is never planned over unexplored cells
        assert (full_used is explored_only) == (explored is not None), (start, goal)
        if plan is not None:
            assert (plan.cells, plan.length) == (full.cells, full.length), (start, goal)
        if used is None:
            # the walk floor ran no planner: the walk divided by GRID_STRETCH is over the limit
            assert plan is None and full_used is explored_only and full.length > limit, (start, goal)
            self.floored += 1
        else:
            assert used is full_used, (start, goal)
        if planning_a_candidate(self):
            if plan is None:
                # the unbounded plan is rejected too, and a non_obstacle one
                # puts the target out of reach
                assert unaffordable(self.energy, full.length), goal
                assert full_used is explored_only or unaffordable(self.energy, full.length / GRID_STRETCH), goal
                self.bound_rejected += used is not None
            return plan
        # a re-plan is the unbounded one if the gate passes that, else the gate fails both
        travel = self.energy.travel_rate
        d = self.dfield.distance(start)
        if full is not None and self.energy.can_continue(travel * full.length, travel * (full.length + d)):
            assert plan is not None, (start, goal)
            self.replans_kept += 1
        elif plan is None:
            self.replans_bound_rejected += full is not None
        return plan


def test_tight_budget_leaves_only_infeasible_cells_uncovered(planned_rules):
    # a reachable cell may stay uncovered only if no charge pays for flying
    # there and back along the true shortest path plus one coverage step;
    # no restart target is skipped that a plan would have accepted; and the
    # exclusions are per mission: a second mission on the same ground truth
    # starts with none and must fly the same log
    skipped = floored = bound_rejected = replans_kept = replans_bound_rejected = 0
    excluded = {}
    for i, (gt, cfg, dist) in enumerate(tight_budget_maps()):
        mission, second = FloorChecked(gt, cfg, planned_rules), Mission(gt, cfg)
        mission.run()
        second.run()
        assert mission.log_rows == second.log_rows, i
        for held, checked in mission.checked.items():
            excluded[held] = excluded.get(held, 0) + len(checked)
        floored += mission.floored
        bound_rejected += mission.bound_rejected
        replans_kept += mission.replans_kept
        replans_bound_rejected += mission.replans_bound_rejected
        min_step = cfg.coverage_rate * math.sqrt(2.0)
        for cell, d in dist.items():
            if mission.grid.state(cell) is not CellState.EXPLORED:
                skipped += 1
                assert 2.0 * cfg.travel_rate * d + min_step > cfg.capacity_e0, (i, cell, d)
    assert skipped and floored and bound_rejected
    assert excluded.get("held_out_of_reach") and excluded.get("held_rejected"), excluded
    assert replans_kept and replans_bound_rejected


class CandidateSearches(Mission):
    """Records each restart candidate's explored walk and the planner calls of its plan."""

    def __init__(self, gt, config, calls):
        self.calls = calls
        self.candidates = []
        super().__init__(gt, config)

    def _shortest(self, start, goal, limit=math.inf):
        before = len(self.calls)
        try:
            return super()._shortest(start, goal, limit)
        finally:
            if limit < math.inf and planning_a_candidate(self):
                walk = self.dfield.explored_walk(start, goal)
                self.candidates.append((walk, self.calls[before:]))


def test_no_grid_astar_for_a_candidate_whose_walk_fails_the_budget(monkeypatch):
    # grid A* would find the explored walk, which no charge pays for; only
    # a shorter sight-line path could still win
    calls = []

    def recorded(name, planner):
        def call(*args):
            calls.append(name)
            return planner(*args)

        return call

    for name in ("build_visibility_graph", "grid_astar"):
        monkeypatch.setattr(mission_mod, name, recorded(name, getattr(mission_mod, name)))
    over = under = 0
    for i, (gt, cfg, _) in enumerate(tight_budget_maps()):
        mission = CandidateSearches(gt, cfg, calls)
        mission.run()
        for walk, planners in mission.candidates:
            # beyond the planners' rounding margin
            if walk < math.inf and unaffordable(mission.energy, walk * (1.0 - 1e-8)):
                assert "grid_astar" not in planners, (i, walk)
                # past the walk floor, the sight-line path was searched
                over += "build_visibility_graph" in planners
            else:
                under += "grid_astar" in planners
    assert over and under


def test_evicting_sight_lines_changes_no_mission(monkeypatch):
    # the line table is a cache: a table of 4 lines, which evicts on almost
    # every read, must fly the same missions as the shipped one
    small_office = next(case for case in retreat_cases() if case[0] == "small_office")
    cases = [(gt_from_text(small_office[1]), small_office[2])]
    cases += [(gt, cfg) for gt, cfg, _ in islice(tight_budget_maps(), 2)]
    shipped = []
    for gt, cfg in cases:
        mission = Mission(gt, cfg)
        mission.run()
        shipped.append(mission.log_rows)
    tiny = functools.lru_cache(maxsize=4)(pathfind_mod._line_offsets.__wrapped__)
    monkeypatch.setattr(pathfind_mod, "_line_offsets", tiny)
    for (gt, cfg), rows in zip(cases, shipped):
        mission = Mission(gt, cfg)
        mission.run()
        assert mission.log_rows == rows
    assert tiny.cache_info().misses > 1000


def test_advance_floor_saves_plans_and_changes_no_log_row():
    # map 16 of the 40 makes 90 advance plans with both exclusions, 641 without
    gt, cfg, _ = next(islice(tight_budget_maps(), 16, None))
    with_floor, without = PlanCounting(gt, cfg), WithoutExclusions(gt, cfg)
    with_floor.run()
    without.run()
    assert with_floor.log_rows == without.log_rows
    assert with_floor.advance_plans < without.advance_plans


class GoalsRecorded(Mission):
    """Records the goal of every ``_shortest`` call."""

    def __init__(self, gt, config):
        self.goals = []
        super().__init__(gt, config)

    def _shortest(self, start, goal, limit=math.inf):
        self.goals.append(goal)
        return super()._shortest(start, goal, limit)


def test_rejected_targets_are_planned_again_after_a_new_obstacle():
    # a rejected restart target stays out of the selections until a newly
    # marked obstacle empties the rejections; then it is planned again
    gt = gt_from_text((SCENARIOS / "field_a.txt").read_text())
    missions = [GoalsRecorded(gt, MissionConfig()), GoalsRecorded(gt, MissionConfig())]
    for mission in missions:
        while mission.step() is not MissionEvent.RECHARGED:
            pass
    same, moved = missions
    grid = same.grid
    # the advance phase's first candidate once the rejections are emptied
    target = next(restart_candidates(grid, same.hier, grid.station, same.infeasible | same._out_of_reach))
    marked = next(c for c in grid_cells(grid) if grid.state(c) is CellState.OBSTACLE)
    # the true obstacle farthest from the target, not yet marked
    unmarked = max(
        sorted(c for c in gt.obstacles if grid.state(c) is CellState.UNEXPLORED),
        key=lambda c: math.dist(c, target),
    )
    for mission in missions:
        mission._rejected = {target}
        mission.goals.clear()
    assert same._add_obstacles([marked]) == []
    assert same._rejected == {target}
    assert moved._add_obstacles([unmarked]) == [unmarked]
    assert moved._rejected == set()
    for mission in missions:
        while mission.step() is not MissionEvent.ADVANCE_STARTED:
            pass
    assert same.goals and target not in same.goals
    assert moved.goals[0] == target


def test_non_obstacle_cores_watch_no_cell(monkeypatch):
    # under non_obstacle a line's first failing cell is an obstacle, which
    # never changes again, so no pair of a non_obstacle core watches a cell
    sync = pathfind_mod._Core.sync
    synced = []

    def checked(core, grid):
        sync(core, grid)
        if core.rule is non_obstacle:
            synced.append(core)
            assert not core.watch

    monkeypatch.setattr(pathfind_mod._Core, "sync", checked)
    for gt, cfg, _ in islice(tight_budget_maps(), 4):
        Mission(gt, cfg).run()
    assert any(len(core.nodes) > 1 for core in synced)  # cores with obstacle vertices


class WorldReads(Mission):
    """Records each ground-truth read, and the cells each retreat move crosses.

    A read is a ``GroundTruth.sense`` of a pose, or an ``is_obstacle`` test
    made outside ``sense`` (which tests its own pose). The test below
    records it with the open segment's kind and the cell's belief state.
    """

    def __init__(self, gt, config):
        self.reads = []  # (read, segment kind, belief state of the cell)
        self.poses = set()
        self.retreat_cells = []  # (cell, belief state when the move was booked)
        super().__init__(gt, config)

    def _book(self, frm, to, kind):
        if kind is SegmentKind.RETREAT:
            adjacent = max(abs(to[0] - frm[0]), abs(to[1] - frm[1])) == 1
            crossed = [to] if adjacent else supercover_line(frm, to)[1:]
            self.retreat_cells += [(c, self.grid.state(c)) for c in crossed]
        super()._book(frm, to, kind)


def test_the_world_is_read_only_at_cells_not_held_explored(monkeypatch):
    # an explored cell was traversed, so it is free in the ground truth, and
    # it was sensed as a pose when it was explored: a retreat, which crosses
    # explored cells only, reads nothing, and an advance runs its contact
    # test only at cells the belief grid does not hold explored
    sense, is_obstacle = GroundTruth.sense, GroundTruth.is_obstacle
    missions, sensing = [], []

    def read(what, cell):
        mission = missions[-1]
        mission.reads.append((what, mission._segments[-1].kind, mission.grid.state(cell)))

    def recorded_sense(gt, sensor, pose, targets):
        read("sense", pose)
        missions[-1].poses.add(pose)
        sensing.append(pose)
        try:
            return sense(gt, sensor, pose, targets)
        finally:
            sensing.pop()

    def recorded_is_obstacle(gt, cell):
        if not sensing:
            read("is_obstacle", cell)
        return is_obstacle(gt, cell)

    monkeypatch.setattr(GroundTruth, "sense", recorded_sense)
    monkeypatch.setattr(GroundTruth, "is_obstacle", recorded_is_obstacle)
    cases = [(name, gt_from_text(text), cfg) for name, text, cfg in islice(retreat_cases(), 3)]
    cases += [(f"tight-budget-{i}", gt, cfg) for i, (gt, cfg, _) in enumerate(islice(tight_budget_maps(), 8))]
    violations = []
    advance_contact_tests = retreat_cells = 0
    for name, gt, cfg in cases:
        mission = WorldReads(gt, cfg)
        missions.append(mission)
        mission.run()
        for what, kind, state in mission.reads:
            if kind is SegmentKind.RETREAT:
                violations.append((name, what, kind, state))
            elif kind is SegmentKind.ADVANCE and what == "is_obstacle":
                advance_contact_tests += 1
                if state is CellState.EXPLORED:
                    violations.append((name, what, kind, state))
        # the rule's premise: what a retreat crosses is explored when it is flown
        retreat_cells += len(mission.retreat_cells)
        violations += [(name, c, state) for c, state in mission.retreat_cells if state is not CellState.EXPLORED]
        for c in grid_cells(mission.grid):
            if mission.grid.state(c) is CellState.EXPLORED and (c in gt.obstacles or c not in mission.poses):
                violations.append((name, c, "explored, but an obstacle or never sensed"))
    assert not violations, (len(violations), violations[:5])
    assert advance_contact_tests and retreat_cells


class SensingEveryVisit(Mission):
    """Takes a full reading, with no target mask, wherever the mission senses
    and after every coverage move, also onto a cell explored before.

    The mission senses each cell once, when it explores it, through one
    mask. At each first visit of a pose this also reads through one mask of
    its own, as the mission does, and checks that reading against the full
    one: it must leave out exactly the cells the mask reported before. A
    flight passes explored cells without sensing, so this never sees them;
    ``test_the_world_is_read_only_at_cells_not_held_explored`` checks that
    each of them is free and was sensed when it was explored.
    """

    def __init__(self, gt, config):
        self.repeats = 0
        self._seen = set()
        self._mask = gt.targets(SensorModel(config.sensor_range))
        self._reported = set()
        super().__init__(gt, config)

    def _sense_here(self):
        self.repeats += self.pos in self._seen
        full = full_sense(self.gt, self.sensor, self.pos)
        if self.pos not in self._seen:
            masked = self.gt.sense(self.sensor, self.pos, self._mask)
            assert masked == full - self._reported, self.pos
            self._reported |= masked
        self._seen.add(self.pos)
        return self._add_obstacles(full)

    def _coverage_move(self, nxt, estimate):
        super()._coverage_move(nxt, estimate)
        return True  # the coverage loop then senses the pose, explored before or not


def test_sensing_each_pose_once_changes_no_log_row_or_report():
    # a pose's detections are fixed, so a repeat sensing, masked or full,
    # could only mark cells already marked; the bundled scenarios and a few
    # tight budgets
    repeats = 0
    for name, text, cfg in islice(retreat_cases(), 8):
        shipped, every = Mission(gt_from_text(text), cfg), SensingEveryVisit(gt_from_text(text), cfg)
        shipped_report, every_report = shipped.run(), every.run()
        assert shipped.log_rows == every.log_rows, name
        assert report_to_text(shipped_report) == report_to_text(every_report), name
        repeats += every.repeats
    assert repeats


def test_each_explored_cell_is_sensed_once(monkeypatch):
    # a pose is sensed when it is explored, and never again: not after a
    # contact, not where an advance arrived, not on a coverage route over
    # explored cells
    sense = GroundTruth.sense
    poses = []

    def counted_sense(gt, sensor, pose, targets):
        poses.append(pose)
        return sense(gt, sensor, pose, targets)

    monkeypatch.setattr(GroundTruth, "sense", counted_sense)
    cases = [(name, gt_from_text(text), cfg) for name, text, cfg in islice(retreat_cases(), 3)]
    cases += [(f"tight-budget-{i}", gt, cfg) for i, (gt, cfg, _) in enumerate(islice(tight_budget_maps(), 8))]
    for name, gt, cfg in cases:
        poses.clear()
        mission = Mission(gt, cfg)
        mission.run()
        explored = [c for c in grid_cells(mission.grid) if mission.grid.state(c) is CellState.EXPLORED]
        assert len(poses) == len(set(poses)), (name, len(poses) - len(set(poses)))
        assert sorted(poses) == sorted(explored), name


def test_missions_on_one_ground_truth_do_not_share_a_mask():
    # the mask of unreported obstacles belongs to the mission: a second
    # mission on the same ground truth must sense as the first did
    for name, text, cfg in islice(retreat_cases(), 4):
        gt = gt_from_text(text)
        first, second = Mission(gt, cfg), Mission(gt, cfg)
        first_report = first.run()
        second_report = second.run()
        assert first.log_rows == second.log_rows, name
        assert report_to_text(first_report) == report_to_text(second_report), name
