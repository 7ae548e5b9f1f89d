"""Mission loop: advance, cover until the budget runs low, retreat, recharge.

Each charge cycle is one trajectory that starts and ends at the station.
Coverage proceeds one cell per decision: sense, pick the next waypoint,
check that the remaining energy pays for reaching it plus retreating from
it, then move. Every move is booked in one place: its energy, its segment
and its log row. Retreats and advances run as shortest paths over explored
cells (the shorter of visibility-graph A* and 8-connected grid A*, since no
sight-line path may exist yet); advances may cross unexplored free space
only when no explored corridor to the restart point exists. Both planners
take a start that passes the predicate and admit the goal whatever its
state, so a sight-line path is always also a grid walk. The distance field
below knows the shortest explored walk of every query with the station as
an endpoint, which covers every retreat and every advance checked from the
station: there the visibility graph runs first, and grid A* only when its
walk could be the shorter. It also answers, without a search, an
explored-only query from the station's explored component that has no
path. Any other query runs grid A* first and builds the visibility graph
only when it found a path. The unexplored cells still reachable from the
station come from the belief grid's reachable mask, tested by flat index.

Reachability and path planning read caches owned by the belief grid. The
reachable mask stays exact through every update:
a new obstacle that is not a simple point clears only the pockets it cuts
off, and only a cut that leaves the station in a finished pocket search
drops the mask for a refill, so a mission floods the map about once (see
``grid``). The visibility-graph core
(obstacle vertices and the sight lines among them, one per predicate) is
rebuilt after a new obstacle, and under ``explored_only`` also after a
traversed cell. Between those events, the many restart candidates an advance
may try on a tight budget share one core, and each plan adds only its own
start and goal edges.

The retreat-cost side of the energy gate uses an incrementally maintained
explored-grid distance field instead of rebuilding the visibility graph on
every step. The field is the exact length of the shortest explored grid
walk to the station, and the retreat flown is the shorter of that walk and
a sight-line path, so the estimate never undercuts it and the budget stays
safe; it can only trigger a retreat slightly early.
``tests/test_mission.py`` checks this bound on every retreat flown on the
bundled scenarios and on tight-budget random maps.

Restart targets that no charge can reach are ruled out without planning.
Cells only leave the unexplored state, so ``non_obstacle`` walks from the
station only get longer, and every explored-only walk is at least the
``non_obstacle`` walk. When an advance from the station had to fall back to a
``non_obstacle`` plan, that plan's length divided by ``GRID_STRETCH`` (the
grid-walk bound of ``pathfind``) is thus a floor on every later plan to the
same target. A target whose floor already fails the budget check is
excluded from every later restart selection; capacity and rates are fixed
and the float comparisons are monotone, so it would have been planned and
rejected again, and the skip changes no output.

A candidate with an explored walk from the station has a floor before any
plan: its explored-only plan is no shorter than the field's walk divided by
``GRID_STRETCH``, and a plan that exists is never replaced by a
``non_obstacle`` one. A candidate whose walk floor fails the budget is
rejected without a search, and, like any rejection of an explored-only
plan, not recorded. The candidates of one advance phase come from one
ranked stream (``planner.restart_candidates``): each is drawn once, in the
order repeated restart selections would return them.

The vehicle senses each pose once. A pose's detections are fixed, and
once they are marked on the belief grid a repeat sensing there marks
nothing, so a per-mission flag per cell skips it.

Ground truth backstop: sonar rays cannot see past corner contacts, so a
planned cell may turn out to hold an obstacle. Stepping into it is refused
by the world model and recorded as a contact detection; the plan is then
rebuilt. Unexplored cells that can never be both reached and retreated from
on a full charge are excluded and reported as uncoverable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .config import MissionConfig
from .energy import EnergyState, SegmentKind
from .errors import PlanningError
from .grid import Cell, CellGrid, CellState
from .hierarchy import MapsHierarchy
from .pathfind import (
    DistanceField,
    PathResult,
    StatePredicate,
    astar,
    build_visibility_graph,
    explored_only,
    grid_astar,
    non_obstacle,
    path_length,
    supercover_line,
)
# restart_point stays bound here: bench/spans.py traces it under this module's name
from .planner import next_waypoint, restart_candidates, restart_point  # noqa: F401
from .sim import GroundTruth, SensorModel

SQRT2 = math.sqrt(2.0)  # the longest single step, a diagonal between 1 m cells
# a float strictly above sqrt(4 - 2*sqrt(2)) = 1.08239..., the most an 8-connected
# grid walk can exceed the any-angle path it follows (see ``pathfind``)
GRID_STRETCH = 1.0825


class MissionEvent(Enum):
    SENSED = "sensed"
    MOVED = "moved"
    RETREAT_STARTED = "retreat_started"
    RECHARGED = "recharged"
    ADVANCE_STARTED = "advance_started"
    COMPLETED = "completed"


@dataclass
class TrajectorySegment:
    kind: SegmentKind
    cells: list[Cell]
    length: float
    energy: float


@dataclass
class Trajectory:
    index: int
    segments: list[TrajectorySegment]

    @property
    def length(self) -> float:
        return math.fsum(s.length for s in self.segments)

    @property
    def energy(self) -> float:
        return math.fsum(s.energy for s in self.segments)

    @property
    def first_cell(self) -> Cell:
        return self.segments[0].cells[0]

    @property
    def last_cell(self) -> Cell:
        return self.segments[-1].cells[-1]


@dataclass
class MissionReport:
    trajectories: list[Trajectory]
    covered_cell_count: int
    uncoverable_cell_count: int
    overlap_count: int
    total_length: float
    recharge_count: int


LogRow = tuple[int, str, int, int, float, float]

LOG_HEADER = "trajectory_index,segment_kind,col,row,remaining_energy,cumulative_length"


def log_to_csv(rows: list[LogRow]) -> str:
    lines = [LOG_HEADER]
    for ti, kind, col, row, rem, cum in rows:
        lines.append(f"{ti},{kind},{col},{row},{rem:.9f},{cum:.9f}")
    return "\n".join(lines) + "\n"


def report_to_text(report: MissionReport) -> str:
    lines = [
        f"covered_cells: {report.covered_cell_count}",
        f"uncoverable_cells: {report.uncoverable_cell_count}",
        f"overlap_cells: {report.overlap_count}",
        f"total_length_m: {report.total_length:.9f}",
        f"recharge_count: {report.recharge_count}",
        f"trajectories: {len(report.trajectories)}",
    ]
    for t in report.trajectories:
        segs = "+".join(s.kind.value for s in t.segments)
        lines.append(
            f"trajectory {t.index}: segments={segs} length_m={t.length:.9f}"
            f" energy={t.energy:.9f}"
        )
    return "\n".join(lines) + "\n"


class Mission:
    """Single deterministic mission over one ground-truth map."""

    def __init__(self, gt: GroundTruth, config: MissionConfig | None = None):
        self.gt = gt
        self.config = config or MissionConfig()
        self.grid = CellGrid(gt.width, gt.height, gt.station)
        self.hier = MapsHierarchy(self.grid)
        self.energy = EnergyState(
            capacity=self.config.capacity_e0,
            travel_rate=self.config.travel_rate,
            coverage_rate=self.config.coverage_rate,
        )
        self.sensor = SensorModel(self.config.sensor_range)
        self._sensed = bytearray(len(self.grid.flat))  # per flat grid index: pose sensed
        self.pos: Cell = gt.station
        self.dfield = DistanceField(self.grid)
        self.trajectories: list[Trajectory] = []
        self.log_rows: list[LogRow] = []
        self.report: MissionReport | None = None
        self.infeasible: set[Cell] = set()
        # restart targets that no later advance plan can make affordable
        self._out_of_reach: set[Cell] = set()
        self._segments: list[TrajectorySegment] = []
        self._visits: dict[Cell, int] = {}
        self._cum_length = 0.0
        self._route: list[Cell] = []  # remaining cells of the planned coverage route
        self._traj_start_unexplored = 0
        self._start_trajectory()
        self._coverage_enter(self.pos)
        self._log_row()
        self._events = self._run()

    # -- public API ----------------------------------------------------------

    def step(self) -> MissionEvent:
        """Advance the mission by one event; raises once completed."""
        try:
            event = next(self._events)
        except StopIteration:
            raise RuntimeError("mission already completed") from None
        if event is MissionEvent.COMPLETED:
            # the suspended generator refers to this mission; closing it lets
            # a completed mission (grid, caches) be freed without the cyclic GC
            self._events.close()
        return event

    def run(self) -> MissionReport:
        """Run the mission to completion and return the report."""
        for _ in self._events:
            pass
        assert self.report is not None
        return self.report

    # -- belief updates -------------------------------------------------------

    def _add_obstacles(self, detected: "frozenset[Cell] | list[Cell] | set[Cell]") -> list[Cell]:
        new = self.grid.apply_sensor_update(detected)
        if new:
            for c in new:
                self.hier.on_state_change(c, CellState.UNEXPLORED, CellState.OBSTACLE)
            self._route = []
        return new

    def _sense_here(self) -> list[Cell]:
        # a pose's detections are fixed, and once marked a repeat adds none
        i = self.grid.index(self.pos)
        if self._sensed[i]:
            return []
        new = self._add_obstacles(self.gt.sense(self.sensor, self.pos))
        self._sensed[i] = 1
        return new

    def _mark_explored(self, cell: Cell) -> None:
        if self.grid.state(cell) is CellState.UNEXPLORED:
            self.grid.mark_traversed(cell)
            self.hier.on_state_change(cell, CellState.UNEXPLORED, CellState.EXPLORED)
            self.dfield.insert(cell)

    # -- trajectory bookkeeping ------------------------------------------------

    def _start_trajectory(self) -> None:
        self._segments = []
        self._traj_start_unexplored = self.grid.counts()[CellState.UNEXPLORED]

    def _close_trajectory(self) -> None:
        traj = Trajectory(len(self.trajectories) + 1, self._segments)
        assert traj.first_cell == self.grid.station and traj.last_cell == self.grid.station
        assert traj.energy <= self.energy.capacity + 1e-9
        assert self.grid.counts()[CellState.UNEXPLORED] < self._traj_start_unexplored
        self.trajectories.append(traj)
        self._segments = []

    def _begin_segment(self, kind: SegmentKind, start: Cell) -> None:
        self._segments.append(TrajectorySegment(kind, [start], 0.0, 0.0))

    def _coverage_enter(self, cell: Cell) -> None:
        self._begin_segment(SegmentKind.COVERAGE, cell)
        if self.grid.state(cell) is CellState.UNEXPLORED:
            self._mark_explored(cell)
            self._visits[cell] = self._visits.get(cell, 0) + 1

    def _log_row(self) -> None:
        seg = self._segments[-1]
        self.log_rows.append(
            (
                len(self.trajectories) + 1,
                seg.kind.value,
                self.pos[0],
                self.pos[1],
                self.energy.remaining,
                self._cum_length,
            )
        )

    def _book(self, frm: Cell, to: Cell, kind: SegmentKind) -> None:
        """Charge the move frm -> to, extend the open segment and log a row.

        The energy is consumed first, so an exhausted budget raises before
        this method changes anything.
        """
        d = math.dist(frm, to)
        cost = self.energy.consume(d, kind)
        self.pos = to
        seg = self._segments[-1]
        seg.cells.append(to)
        seg.length += d
        seg.energy += cost
        self._cum_length += d
        self._log_row()

    # -- motion -----------------------------------------------------------------

    def _coverage_move(self, nxt: Cell) -> None:
        assert self.gt.validate_move(self.pos, nxt)
        self._book(self.pos, nxt, SegmentKind.COVERAGE)
        self._mark_explored(nxt)
        self._visits[nxt] = self._visits.get(nxt, 0) + 1

    def _execute_polyline(self, nodes: list[Cell], kind: SegmentKind):
        """Walk a node path edge by edge; yields MOVED per node reached.

        Returns "arrived", or "stopped" when a contact detection or newly
        sensed obstacle invalidates the remaining plan (advance only).
        """
        for k in range(len(nodes) - 1):
            u, v = nodes[k], nodes[k + 1]
            assert self.pos == u
            if max(abs(v[0] - u[0]), abs(v[1] - u[1])) == 1:
                chain = [u, v]  # plain 8-connected motion, not a sight-line segment
            else:
                chain = supercover_line(u, v)
            stop: Cell | None = None
            for ci in range(1, len(chain)):
                cell = chain[ci]
                if self.gt.is_obstacle(cell):
                    self._add_obstacles([cell])
                    stop = self.pos
                    break
                self.pos = cell
                self._mark_explored(cell)
                new = self._sense_here()
                if kind is SegmentKind.ADVANCE and new:
                    rest_blocked = any(
                        self.grid.state(x) is CellState.OBSTACLE for x in chain[ci + 1 :]
                    ) or any(
                        self.grid.state(n) is CellState.OBSTACLE for n in nodes[k + 1 :]
                    )
                    if rest_blocked:
                        stop = cell
                        break
            if stop is None:
                self._book(u, v, kind)
                yield MissionEvent.MOVED
            else:
                if kind is SegmentKind.RETREAT:
                    raise PlanningError("retreat path blocked; explored cells must stay free")
                if stop != u:
                    self._book(u, stop, kind)
                    yield MissionEvent.MOVED
                return "stopped"
        return "arrived"

    # -- path planning -----------------------------------------------------------

    def _shortest(self, start: Cell, goal: Cell, traversable: StatePredicate) -> PathResult | None:
        """The shorter of visibility-graph A* and grid A* (ties: lower cell list).

        Every sight-line path is also a grid walk, so without a walk there
        is no path. Under ``explored_only`` the distance field knows the
        walk's length for queries with the station as an endpoint, and that
        no walk exists from a start in the station's explored component to a
        goal it neither holds nor borders (``DistanceField.explored_walk``).
        A known miss returns at once. With a known length the visibility
        graph runs first, and grid A* only when its walk could win: a
        sight-line path shorter than the walk by more than the rounding
        margin (the field and ``path_length`` sum in different orders) is
        the answer, and anything inside the margin gets the exact
        comparison. Otherwise grid A* runs first, and the visibility graph
        is built only when it found a path.
        """
        walk = self.dfield.explored_walk(start, goal) if traversable is explored_only else None
        if walk == math.inf:
            return None
        sight = None
        if walk is not None:
            sight = astar(build_visibility_graph(self.grid, start, goal, traversable), start, goal)
            if sight is not None and sight.length < walk * (1.0 - 1e-9):
                return sight
        found = grid_astar(self.grid, start, goal, traversable)
        if found is None:
            return None
        if walk is None:
            sight = astar(build_visibility_graph(self.grid, start, goal, traversable), start, goal)
        return found if sight is None else min((sight, found), key=lambda p: (p.length, p.cells))

    def _plan_retreat(self, from_cell: Cell) -> PathResult:
        plan = self._shortest(from_cell, self.grid.station, explored_only)
        if plan is None:
            raise PlanningError(f"no retreat path from {from_cell}")
        return plan

    def _plan_advance(self, start: Cell, target: Cell) -> tuple[PathResult | None, StatePredicate]:
        """Plan over explored cells, else also over unexplored ones; returns the predicate used."""
        plan = self._shortest(start, target, explored_only)
        if plan is not None:
            return plan, explored_only
        return self._shortest(start, target, non_obstacle), non_obstacle

    def _route_for(self, target: Cell) -> list[Cell]:
        """Cell route from the vehicle to the waypoint (adjacent or planned chain)."""
        if max(abs(target[0] - self.pos[0]), abs(target[1] - self.pos[1])) == 1:
            return [self.pos, target]
        route = self._route
        if route and route[-1] == target:
            if len(route) > 1 and route[1] == self.pos:
                del route[0]
            if route[0] == self.pos:
                return route
        plan = grid_astar(self.grid, self.pos, target, non_obstacle)
        if plan is None:
            raise PlanningError(f"no route to reachable waypoint {target}")
        self._route = plan.cells
        return plan.cells

    # -- phases ---------------------------------------------------------------

    def _run(self):
        while True:
            done = (yield from self._coverage_phase()) == "done"
            yield from self._return_home(recharge=not done)
            if done or not (yield from self._advance_phase()):
                self._finalize()
                yield MissionEvent.COMPLETED
                return

    def _coverage_phase(self):
        grid = self.grid
        energy = self.energy
        while True:
            self._sense_here()
            yield MissionEvent.SENSED
            wp = next_waypoint(grid, self.hier, self.pos, excluded=self.infeasible)
            if wp is None:
                return "done"
            route = self._route_for(wp)
            l_rest = path_length(route)
            step_cost = energy.coverage_rate * l_rest
            if len(route) == 2:
                est = self.dfield.neighbor_estimate(wp)
            else:
                est = l_rest + self.dfield.distance(self.pos)
            if not energy.can_continue(step_cost, energy.travel_rate * est):
                return "recharge"
            nxt = route[1]
            if self.gt.is_obstacle(nxt):
                self._add_obstacles([nxt])
                yield MissionEvent.SENSED
                continue
            self._coverage_move(nxt)
            yield MissionEvent.MOVED

    def _return_home(self, recharge: bool):
        """Retreat to the station, close the trajectory, then recharge if asked."""
        station = self.grid.station
        self._begin_segment(SegmentKind.RETREAT, self.pos)
        if self.pos != station:
            yield MissionEvent.RETREAT_STARTED
            plan = self._plan_retreat(self.pos)
            status = yield from self._execute_polyline(plan.cells, SegmentKind.RETREAT)
            if status != "arrived" or self.pos != station:
                raise PlanningError("retreat did not reach the station")
        self._close_trajectory()
        if recharge:
            self.energy.charge_full()
            yield MissionEvent.RECHARGED

    def _advance_phase(self):
        grid = self.grid
        station = grid.station
        capacity = self.energy.capacity
        travel = self.energy.travel_rate
        step_energy = self.energy.coverage_rate * SQRT2

        def unaffordable(length: float) -> bool:
            return capacity < 2.0 * travel * length + step_energy

        def selection():
            # the stream yields each candidate once, until the selection starts over
            excluded = self.infeasible | self._out_of_reach
            return restart_candidates(grid, self.hier, station, excluded)

        candidates = selection()
        while True:
            target = next(candidates, None)
            if target is None:
                return False
            if unaffordable(math.dist(station, target)):
                self.infeasible.add(target)
                continue
            walk = self.dfield.explored_walk(station, target)
            if walk is not None and walk < math.inf and unaffordable(walk / GRID_STRETCH):
                # an explored-only plan exists and is no shorter than this floor
                continue
            plan, used = self._plan_advance(station, target)
            if plan is None or unaffordable(plan.length):
                # a non_obstacle plan from the station, divided by GRID_STRETCH,
                # is a floor on every later plan to this target
                if (
                    used is non_obstacle
                    and plan is not None
                    and unaffordable(plan.length / GRID_STRETCH)
                ):
                    self._out_of_reach.add(target)
                continue
            self._start_trajectory()
            self._begin_segment(SegmentKind.ADVANCE, self.pos)
            yield MissionEvent.ADVANCE_STARTED
            arrived = yield from self._advance_exec(target, plan)
            if arrived:
                self._coverage_enter(self.pos)
                return True
            # advance abandoned: return home, recharge and reselect
            self._coverage_enter(self.pos)
            yield from self._return_home(recharge=True)
            candidates = selection()

    def _advance_exec(self, target: Cell, plan: PathResult):
        travel = self.energy.travel_rate
        while True:
            status = yield from self._execute_polyline(plan.cells, SegmentKind.ADVANCE)
            if status == "arrived":
                return self.pos == target
            # the mask holds only unexplored cells, so a covered target fails it too
            if (
                target in self.infeasible
                or not self.grid.reachable_unexplored()[self.grid.index(target)]
            ):
                target = next_waypoint(self.grid, self.hier, self.pos, excluded=self.infeasible)
                if target is None:
                    return False
            new_plan, _ = self._plan_advance(self.pos, target)
            if new_plan is None:
                return False
            if not self.energy.can_continue(
                travel * new_plan.length,
                travel * (new_plan.length + self.dfield.distance(self.pos)),
            ):
                return False
            plan = new_plan

    # -- wrap-up ----------------------------------------------------------------

    def _finalize(self) -> None:
        counts = self.grid.counts()
        covered = counts[CellState.EXPLORED]
        free_total = self.gt.width * self.gt.height - len(self.gt.obstacles)
        overlap = sum(1 for v in self._visits.values() if v >= 2)
        self.report = MissionReport(
            trajectories=list(self.trajectories),
            covered_cell_count=covered,
            uncoverable_cell_count=free_total - covered,
            overlap_count=overlap,
            total_length=self._cum_length,
            recharge_count=len(self.trajectories) - 1,
        )


def run_mission(gt: GroundTruth, config: MissionConfig | None = None) -> MissionReport:
    return Mission(gt, config).run()
