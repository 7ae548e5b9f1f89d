"""Mission loop: advance, cover until the budget runs low, retreat, recharge.

Each charge cycle is one trajectory that starts and ends at the station.
Coverage proceeds one cell per decision: sense, pick the next waypoint,
check that the remaining energy pays for reaching it plus retreating from
it, then move. Every move is booked in one place: its energy, its segment
and its log row. Retreats and advances run as shortest paths over explored
cells (the shorter of visibility-graph A* and 8-connected grid A*, since no
sight-line path may exist yet); advances may cross unexplored free space
only when no explored corridor to the restart point exists. Both planners
take a start that passes the rule and admit the goal whatever its state,
as a path's end only, so a sight-line path is always also a grid walk.
The distance field below picks each plan's rule, in ``_shortest`` only:
every query of a mission starts in the station's explored component, and
the field tells which goals that component neither holds nor borders
(``DistanceField.explored_walk`` is ``math.inf``). Those, and only those,
are planned over ``non_obstacle`` cells, the rest over ``explored_only``
ones; a retreat's goal, the station, is never such a goal. The field also
knows the shortest explored walk of every query with the station as an
endpoint, which covers every retreat and every advance checked from the
station. Such a query is bounded by its walk, since no answer is longer
(see ``pathfind`` for searches bounded by a length). A query that may fit
builds the visibility graph first, and runs grid A* too unless the
sight-line path beats a known walk or the walk exceeds the query's limit.
The unexplored cells still reachable from the station come from the belief
grid's reachable mask, tested by flat index.

Reachability and path planning read caches owned by the belief grid. The
reachable mask stays exact through every update:
a new obstacle that is not a simple point clears only the pockets it cuts
off, and only a cut that leaves the station in a finished pocket search
drops the mask for a refill, so a mission floods the map about once (see
``grid``). The visibility-graph cores (one per rule: the obstacle
vertices and the station as nodes, and the sight lines among them) are
built once per mission and then synced with the cells changed since their
last use, so the many restart candidates an advance may try on a tight
budget share one core, and each plan adds only its own start and goal
edges (see ``pathfind``).

The retreat-cost side of the energy gate uses an incrementally maintained
explored-grid distance field instead of rebuilding the visibility graph on
every step. The field is the exact length of the shortest explored grid
walk to the station, and the retreat flown is the shorter of that walk and
a sight-line path, so the estimate never undercuts it and the budget stays
safe; it can only trigger a retreat slightly early.
``tests/test_mission.py`` checks this bound on every retreat flown on the
bundled scenarios and on tight-budget random maps.

Restart candidates are planned from the station bounded by the budget:
with an explored walk, over explored cells up to the longest affordable
length; without one, over ``non_obstacle`` cells up to that length times
``pathfind.GRID_STRETCH`` (the grid-walk bound). A bounded search returns
the unbounded plan whenever that plan fits, so only the searches of rejected
candidates get cheaper. A re-plan during an advance is bounded the same way,
by the longest plan the remaining energy still pays for. ``_shortest``
rejects a query whose known walk, divided by ``GRID_STRETCH``, exceeds its
limit before it builds a graph. The candidates of one advance phase come
from one ranked stream (``planner.restart_candidates``): each is drawn
once, in the order repeated restart selections would return them.

Two exclusions keep rejected candidates out of later selections, and both
hold only candidates without an explored walk, whose plans are
``non_obstacle``. Cells only leave the unexplored state, so ``non_obstacle``
grid walks from the station only get longer. Such a plan is no longer than
its grid walk, and no later plan, under either rule, is shorter than a
later walk divided by ``GRID_STRETCH``; so the plan divided by
``GRID_STRETCH`` is a floor on every later plan to its target. A target
with no plan within its limit, or whose floor fails the budget, is thus
out of reach for good (``_out_of_reach``). A
``non_obstacle`` plan from the station reads obstacle cells only (see
``pathfind``), and an ``explored_only`` plan is never shorter, since its
graph and walks are subsets of those; so any other rejected target stays
rejected, even if it gains an explored walk, until a new obstacle's
corners open a shorter sight-line path. It is excluded until the next newly
marked obstacle, which empties ``_rejected``; planning neither moves nor
senses, so none is marked while candidates are planned.
Capacity and rates are fixed and the float comparisons are monotone, so
every excluded target would have been planned and rejected again, and the
exclusions change no output.

The world is read only at cells the belief grid does not hold explored.
An explored cell was traversed, so it is free in the static ground truth,
and it was sensed as a pose when it was explored. So a retreat, which
crosses explored cells only, is booked without a read, and an advance
passes its explored cells the same way. The coverage loop senses a pose in
the step after the move that explored it, the step that yields ``SENSED``,
and no pose again: not after a contact, not where an advance arrived (the
flight sensed it), and not on a route over explored cells. So each explored
cell is sensed exactly once. The mission keeps one target mask
(``GroundTruth.targets``), built on its first sense: a reading reports only
obstacles not reported before, and clears them. Every report is marked, so
a cell the mask hides is already an obstacle on the belief grid, and the
cells each update newly marks are those of a full reading. A reading that
reports nothing skips the update.

Ground truth backstop: sonar rays cannot see past corner contacts, so a
planned cell that is not explored may turn out to hold an obstacle. An
advance tests each such cell, also one the belief grid marks obstacle
after the plan was made, and the coverage loop tests its next cell.
Stepping into an obstacle is refused by the world model and recorded as a
contact detection; the plan is then rebuilt. Unexplored cells that can
never be both reached and retreated from on a full charge are excluded and
reported as uncoverable.
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
    GRID_STRETCH,
    DistanceField,
    PathResult,
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
        self._targets = None  # obstacles not yet reported (GroundTruth.targets); first sense builds it
        self.pos: Cell = gt.station
        self.dfield = DistanceField(self.grid)
        self.trajectories: list[Trajectory] = []
        self.log_rows: list[LogRow] = []
        self.report: MissionReport | None = None
        self.infeasible: set[Cell] = set()
        # restart targets that no later advance plan can make affordable
        self._out_of_reach: set[Cell] = set()
        # restart targets rejected since the last newly marked obstacle
        self._rejected: set[Cell] = set()
        self._segments: list[TrajectorySegment] = []
        self._visits: dict[Cell, int] = {}
        self._cum_length = 0.0
        self._route: list[Cell] = []  # remaining cells of the planned coverage route
        self._traj_start_changes = 0  # len(grid.changes) when the trajectory started
        self._start_trajectory()
        self._begin_segment(SegmentKind.COVERAGE, self.pos)
        self._mark_explored(self.pos)
        self._visits[self.pos] = 1
        self._log_row()
        # created on the first step() or run(): the generator's frame refers to
        # the mission, so a mission dropped before then is freed by refcount
        self._events = None

    # -- public API ----------------------------------------------------------

    def step(self) -> MissionEvent:
        """Advance the mission by one event; raises once completed.

        A completed mission is freed without the cyclic GC. One dropped
        after its first step and before completing still needs the GC,
        since its suspended event generator refers to it.
        """
        if self._events is None:
            self._events = self._run()
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
        while self.report is None:
            self.step()
        return self.report

    # -- belief updates -------------------------------------------------------

    def _add_obstacles(self, detected: "frozenset[Cell] | list[Cell] | set[Cell]") -> list[Cell]:
        new = self.grid.apply_sensor_update(detected)
        if new:
            self._rejected = set()
            for c in new:
                self.hier.on_state_change(c, CellState.UNEXPLORED, CellState.OBSTACLE)
            self._route = []
        return new

    def _sense_here(self) -> list[Cell]:
        if self._targets is None:
            self._targets = self.gt.targets(self.sensor)
        detected = self.gt.sense(self.sensor, self.pos, self._targets)
        return self._add_obstacles(detected) if detected else []

    def _mark_explored(self, cell: Cell, estimate: float | None = None) -> bool:
        """Mark an unexplored cell explored and return True, else return False.

        ``estimate`` is the cell's field estimate, if known.
        """
        if self.grid.state(cell) is not CellState.UNEXPLORED:
            return False
        self.grid.mark_traversed(cell)
        self.hier.on_state_change(cell, CellState.UNEXPLORED, CellState.EXPLORED)
        self.dfield.insert(cell, estimate)
        return True

    # -- trajectory bookkeeping ------------------------------------------------

    def _start_trajectory(self) -> None:
        self._segments = []
        self._traj_start_changes = len(self.grid.changes)

    def _close_trajectory(self) -> None:
        traj = Trajectory(len(self.trajectories) + 1, self._segments)
        assert traj.first_cell == self.grid.station and traj.last_cell == self.grid.station
        assert traj.energy <= self.energy.capacity * (1.0 + 1e-9)
        # each logged change is one cell leaving the unexplored state, once
        assert len(self.grid.changes) > self._traj_start_changes
        self.trajectories.append(traj)
        self._segments = []

    def _begin_segment(self, kind: SegmentKind, start: Cell) -> None:
        self._segments.append(TrajectorySegment(kind, [start], 0.0, 0.0))

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

    def _coverage_move(self, nxt: Cell, estimate: float | None) -> bool:
        """Move to the next cell; True when the move explored it."""
        assert self.gt.validate_move(self.pos, nxt)
        self._book(self.pos, nxt, SegmentKind.COVERAGE)
        self._visits[nxt] = self._visits.get(nxt, 0) + 1
        return self._mark_explored(nxt, estimate)

    def _execute_polyline(self, nodes: list[Cell]):
        """Fly an advance plan edge by edge; yields MOVED per node reached.

        Returns True on arrival at the last node, or False when a contact
        detection or a newly sensed obstacle invalidates the rest of the
        plan. The world is read only at cells the belief grid does not hold
        explored: an explored cell was traversed, so it is free in the
        static ground truth, and it was sensed when it was explored, so the
        vehicle just passes it. Every other cell gets the contact test,
        also one the grid marks obstacle, which a plan made before that
        obstacle was sensed can still cross; a free one is then marked
        explored and sensed.
        """
        grid = self.grid
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
                if grid.state(cell) is CellState.EXPLORED:
                    self.pos = cell
                    continue
                if self.gt.is_obstacle(cell):
                    self._add_obstacles([cell])
                    stop = self.pos
                    break
                self.pos = cell
                self._mark_explored(cell)
                if self._sense_here() and (
                    any(grid.state(x) is CellState.OBSTACLE for x in chain[ci + 1 :])
                    or any(grid.state(n) is CellState.OBSTACLE for n in nodes[k + 1 :])
                ):
                    stop = cell
                    break
            if stop is None:
                self._book(u, v, SegmentKind.ADVANCE)
                yield MissionEvent.MOVED
            else:
                if stop != u:
                    self._book(u, stop, SegmentKind.ADVANCE)
                    yield MissionEvent.MOVED
                return False
        return True

    # -- path planning -----------------------------------------------------------

    def _shortest(self, start: Cell, goal: Cell, limit: float = math.inf) -> PathResult | None:
        """The shorter of visibility-graph A* and grid A* (ties: lower cell list).

        Returns None when that path is longer than ``limit``. This is the
        one place a retreat or advance chooses its rule: ``non_obstacle``
        exactly when the distance field knows that no explored walk joins
        the ends (``DistanceField.explored_walk`` is ``math.inf``), else
        ``explored_only``. A retreat's goal is the station, whose walk is
        never ``math.inf``, so a retreat never crosses unexplored cells; an
        advance whose explored plan is too long gets None, not a detour
        over unexplored cells. ``_advance_phase`` is the only caller that
        branches on the same test of the same walk, to pick a limit and a
        record, never a rule, so it must agree with this choice; the walk
        is read again here (a constant-time read of the field).

        Under ``explored_only`` the field knows the walk's length for
        queries with the station as an endpoint. A known walk caps the
        limit, since grid A* finds it, widened by the rounding margin (the
        field and ``path_length`` sum in different orders). The visibility
        graph runs first, and grid A* runs unless its walk is known to
        lose: a sight-line path shorter than the walk by more than the
        margin is the answer, a walk longer than the limit by more than the
        margin cannot fit, and anything inside the margin gets the exact
        comparison. A sight-line path bounds grid A* too, widened by the
        same margin: a longer walk would lose to it, and a bounded search
        returns the unbounded walk whenever that walk fits, so the answer
        is the same. A known walk is also a floor: no path is shorter than
        it divided by ``GRID_STRETCH`` (see ``pathfind``), so a walk longer
        than ``limit`` times that factor gets None before any graph is
        built.
        """
        walk = self.dfield.explored_walk(start, goal)
        rule = explored_only
        if walk == math.inf:
            rule, walk = non_obstacle, None
        elif walk is not None and walk > limit * GRID_STRETCH:
            return None
        bound = limit if walk is None else min(limit, walk * (1.0 + 1e-9))
        graph = build_visibility_graph(self.grid, start, goal, rule, bound)
        sight = astar(graph, start, goal, bound)
        if walk is not None and (
            walk * (1.0 - 1e-9) > limit or (sight is not None and sight.length < walk * (1.0 - 1e-9))
        ):
            return sight
        if sight is not None:
            # a walk longer than the sight-line path loses anyway
            bound = min(bound, sight.length * (1.0 + 1e-9))
        found = grid_astar(self.grid, start, goal, rule, bound)
        fits = [p for p in (sight, found) if p is not None]
        return min(fits, key=lambda p: (p.length, p.cells), default=None)

    def _plan_retreat(self, from_cell: Cell) -> PathResult:
        plan = self._shortest(from_cell, self.grid.station)
        if plan is None:
            raise PlanningError(f"no retreat path from {from_cell}")
        return plan

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
        self._sense_here()  # the station; every later pose is sensed when it is explored
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
            yield MissionEvent.SENSED
            wp = next_waypoint(grid, self.hier, self.pos, excluded=self.infeasible)
            if wp is None:
                return "done"
            route = self._route_for(wp)
            estimate = None  # the waypoint's neighbor_estimate, when it is the next cell
            if len(route) == 2:  # math.fsum of one term is that term
                l_rest = math.dist(route[0], route[1])
                est = estimate = self.dfield.neighbor_estimate(wp)
            else:
                l_rest = path_length(route)
                est = l_rest + self.dfield.distance(self.pos)
            step_cost = energy.coverage_rate * l_rest
            if not energy.can_continue(step_cost, energy.travel_rate * est):
                return "recharge"
            nxt = route[1]
            if self.gt.is_obstacle(nxt):
                self._add_obstacles([nxt])
                yield MissionEvent.SENSED
                continue
            # the move changes only nxt's own state, which the estimate does not read
            explored = self._coverage_move(nxt, estimate)
            yield MissionEvent.MOVED
            if explored:
                self._sense_here()  # in the step that yields SENSED next

    def _return_home(self, recharge: bool):
        """Retreat to the station, close the trajectory, then recharge if asked.

        A retreat crosses explored cells only (see ``_shortest``), which
        reads nothing of the world (see ``_execute_polyline``), so its plan
        is booked node by node.
        """
        self._begin_segment(SegmentKind.RETREAT, self.pos)
        if self.pos != self.grid.station:
            yield MissionEvent.RETREAT_STARTED
            for cell in self._plan_retreat(self.pos).cells[1:]:
                self._book(self.pos, cell, SegmentKind.RETREAT)
                yield MissionEvent.MOVED
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
        # no length above this is affordable; the margin on the capacity is
        # far wider than the rounding of unaffordable()
        longest = (capacity * (1.0 + 1e-9) - step_energy) / (2.0 * travel)

        def unaffordable(length: float) -> bool:
            return capacity < 2.0 * travel * length + step_energy

        def selection():
            # the stream yields each candidate once, until the selection starts over
            excluded = self.infeasible | self._out_of_reach | self._rejected
            return restart_candidates(grid, self.hier, station, excluded)

        candidates = selection()
        while True:
            target = next(candidates, None)
            if target is None:
                return False
            if unaffordable(math.dist(station, target)):
                self.infeasible.add(target)
                continue
            walk = self.dfield.explored_walk(station, target)  # not None: the station is explored
            # without an explored walk the plan is non_obstacle, and a plan
            # past this limit divided by GRID_STRETCH fails the budget too
            stretch = 1.0 if walk < math.inf else GRID_STRETCH * (1.0 + 1e-9)
            plan = self._shortest(station, target, longest * stretch)
            if plan is None or unaffordable(plan.length):
                if walk == math.inf:
                    for_good = plan is None or unaffordable(plan.length / GRID_STRETCH)
                    (self._out_of_reach if for_good else self._rejected).add(target)
                continue
            self._start_trajectory()
            self._begin_segment(SegmentKind.ADVANCE, self.pos)
            yield MissionEvent.ADVANCE_STARTED
            arrived = yield from self._advance_exec(target, plan)
            self._begin_segment(SegmentKind.COVERAGE, self.pos)
            if arrived:
                return True
            # advance abandoned: return home, recharge and reselect
            yield from self._return_home(recharge=True)
            candidates = selection()

    def _advance_exec(self, target: Cell, plan: PathResult):
        energy = self.energy
        travel = energy.travel_rate
        while True:
            if (yield from self._execute_polyline(plan.cells)):
                return True
            # the mask holds only unexplored cells, so a covered target fails it too
            if not self.grid.reachable_unexplored()[self.grid.index(target)]:
                target = next_waypoint(self.grid, self.hier, self.pos, excluded=self.infeasible)
                if target is None:
                    return False
            # no longer re-plan passes the gate below; the margin is far wider
            # than its rounding
            d = self.dfield.distance(self.pos)
            limit = (energy.remaining * (1.0 + 1e-9) / travel - d) / 2.0
            new_plan = self._shortest(self.pos, target, limit)
            if new_plan is None:
                return False
            if not energy.can_continue(
                travel * new_plan.length,
                travel * (new_plan.length + d),
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
