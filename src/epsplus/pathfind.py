"""Line-of-sight tests, visibility graphs and shortest-path search.

Path lengths are Euclidean distances between cell centers in meters (a cell
is a 1 m square, see ``grid``), so ``math.dist`` measures every edge.

The traversability rules are parameterized by a predicate on cell states:
retreat and advance paths may only cross explored cells, while routing to a
distant coverage waypoint may also cross unexplored (non-obstacle) cells.

Line of sight between two cell centers uses a supercover traversal: every
cell the segment touches must be traversable, and a segment passing exactly
through a lattice corner counts both flanking cells, so squeezing between
two diagonally adjacent blocked cells is not a valid sight line.

Both shortest-path planners, visibility-graph A* and grid A*, take the same
inputs: the start must pass the predicate (else ``ValueError``), and the
goal is admitted whatever its state; an out-of-bounds goal has no path.
Consecutive cells of a supercover line are 8-adjacent, so every sight-line
path is also a grid walk over admitted cells: when grid A* finds no path,
neither does the visibility graph.

The converse holds up to a constant. Along a sight line from a to b, the
Bresenham walk of max(|dx|, |dy|) steps, min(|dx|, |dy|) of them diagonal,
stays on cells the line touches, and its length is at most
sqrt(4 - 2*sqrt(2)) = 1.08239... times |ab|, the worst case being a line at
22.5 degrees (Nash & Koenig, "Any-Angle Path Planning", AI Magazine 2013).
Grid A* admits every such step, so under either predicate the shortest grid
walk is at most that factor times the shortest sight-line path, and the
shorter of the two planners is never below the walk divided by it.

Visibility graphs are assembled per query from a cached core: the obstacle
vertices, the sight-line edges among them, and for each vertex pair blocked
by a single cell, that cell. The belief grid holds at most one core per
predicate, keyed by its truth table over the cell states. A core records the
obstacle count it was built at, plus the explored count when the predicate
tells explored from unexplored cells; since cells only leave the unexplored
state, equal counts mean the same cells, and a core whose counts moved is
rebuilt on its next use. A query then adds only the start and goal edges.

Grid walks (obstacle vertices, grid A*, the distance field) index the
grid's bordered flat state bytes; a passability mask is one translation.
Sight lines are checked on such a mask too: a supercover line is
translation-invariant, so each cell delta maps to one list of flat offsets,
memoized per grid. A sight line touches the same cells in both directions,
so lines are walked from their lower endpoint and one offset list serves
both.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Callable

from .grid import Cell, CellGrid, CellState, NEIGHBORS_8

StatePredicate = Callable[[CellState], bool]


def explored_only(state: CellState) -> bool:
    return state is CellState.EXPLORED


def non_obstacle(state: CellState) -> bool:
    return state is not CellState.OBSTACLE


def supercover_line(a: Cell, b: Cell) -> list[Cell]:
    """All cells touched by the segment between the centers of a and b, in order.

    When the segment passes exactly through a lattice corner, both cells
    flanking the corner are included.
    """
    x, y = a
    x1, y1 = b
    cells = [(x, y)]
    dx = x1 - x
    dy = y1 - y
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    dx = abs(dx)
    dy = abs(dy)
    ddx = 2 * dx
    ddy = 2 * dy
    if ddx >= ddy:
        errorprev = error = dx
        for _ in range(dx):
            x += sx
            error += ddy
            if error > ddx:
                y += sy
                error -= ddx
                if error + errorprev < ddx:
                    cells.append((x, y - sy))
                elif error + errorprev > ddx:
                    cells.append((x - sx, y))
                else:
                    cells.append((x, y - sy))
                    cells.append((x - sx, y))
            cells.append((x, y))
            errorprev = error
    else:
        errorprev = error = dy
        for _ in range(dy):
            y += sy
            error += ddx
            if error > ddy:
                x += sx
                error -= ddy
                if error + errorprev < ddy:
                    cells.append((x - sx, y))
                elif error + errorprev > ddy:
                    cells.append((x, y - sy))
                else:
                    cells.append((x - sx, y))
                    cells.append((x, y - sy))
            cells.append((x, y))
            errorprev = error
    return cells


def _line_offsets(grid: CellGrid, dc: int, dr: int) -> array:
    """Flat-index offsets of ``supercover_line((0, 0), (dc, dr))``, in order.

    A supercover line is translation-invariant and ``grid.flat`` is
    column-major, so cell ``(c, r)`` of the line lies ``c * stride + r``
    bytes from its first cell. The offsets are memoized per grid, as
    compact arrays: a memo of tuples of ints costs several times the memory.
    """
    lines = grid._sight_lines
    offsets = lines.get((dc, dr))
    if offsets is None:
        stride = grid.stride
        cells = supercover_line((0, 0), (dc, dr))
        offsets = lines[dc, dr] = array("i", [c * stride + r for c, r in cells])
    return offsets


def obstacle_vertices(grid: CellGrid, traversable: StatePredicate) -> list[Cell]:
    """Convex-corner free cells of discovered obstacle boundaries, in (col, row) order.

    A cell qualifies if it satisfies the predicate and touches an obstacle
    cell diagonally while both cells flanking that diagonal are not
    obstacles; taut paths around discovered obstacles bend at exactly these
    cells. Corners of obstacles touching the map border are produced by the
    same pattern.
    """
    flat = grid.flat
    ok = _passability(grid, traversable)
    obstacle = int(CellState.OBSTACLE)
    off = {move: o for move, (o, _) in zip(NEIGHBORS_8, grid.steps)}
    # per diagonal: (diagonal, its column step, its row step) as flat offsets
    diagonals = [(off[(dc, dr)], off[(dc, 0)], off[(0, dr)]) for dc in (1, -1) for dr in (1, -1)]
    found = set()
    o = flat.find(obstacle)
    while o != -1:
        # a candidate c sees obstacle o across diagonal d; the flanking cells
        # c + col step and c + row step are o - row step and o - col step
        for d, col_step, row_step in diagonals:
            c = o - d
            if ok[c] and flat[o - row_step] != obstacle and flat[o - col_step] != obstacle:
                found.add(c)
        o = flat.find(obstacle, o + 1)
    return [grid.cell_at(i) for i in sorted(found)]


@dataclass
class PathResult:
    """A path as an ordered cell sequence with its Euclidean length in meters."""

    cells: list[Cell]
    length: float


class VisibilityGraph:
    """Undirected graph over {start, goal, obstacle vertices} with sight-line edges.

    Adjacency lists of obstacle vertices may be shared with the grid's cached
    core; callers must not modify them.
    """

    def __init__(self, nodes: list[Cell], adjacency: dict[Cell, list[tuple[Cell, float]]]):
        self.nodes = nodes
        self.adjacency = adjacency


class _Core:
    """The part of a visibility graph that depends only on the belief grid.

    ``adjacency`` holds the sight-line edges among the obstacle vertices;
    ``blocked_by`` maps a cell to the vertex pairs ``(u, v, w)`` whose sight
    line that cell alone blocks.
    """

    __slots__ = ("adjacency", "blocked_by")

    def __init__(self, grid: CellGrid, traversable: StatePredicate):
        vertices = obstacle_vertices(grid, traversable)
        ok = _passability(grid, traversable)
        adjacency: dict[Cell, list[tuple[Cell, float]]] = {v: [] for v in vertices}
        blocked_by: dict[Cell, list[tuple[Cell, Cell, float]]] = {}
        for i, u in enumerate(vertices):
            uc, ur = u
            base = grid.index(u)
            for v in vertices[i + 1 :]:
                blocker = -1
                for o in _line_offsets(grid, v[0] - uc, v[1] - ur):
                    if not ok[base + o]:
                        if blocker >= 0:
                            break
                        blocker = base + o
                else:
                    w = math.dist(u, v)
                    if blocker < 0:
                        adjacency[u].append((v, w))
                        adjacency[v].append((u, w))
                    else:
                        blocked_by.setdefault(grid.cell_at(blocker), []).append((u, v, w))
        self.adjacency = adjacency
        self.blocked_by = blocked_by


def _cached_core(grid: CellGrid, traversable: StatePredicate) -> _Core:
    """The grid's core for this predicate, rebuilt when its state counts moved.

    Cores are keyed by the predicate's truth table over the cell states, so
    equivalent predicates share one entry. Each is stored with the obstacle
    count it was built at (vertices are obstacle corners), plus the explored
    count when the predicate tells explored from unexplored cells; since
    cells only leave the unexplored state, equal counts mean the same cells.
    """
    key = tuple(traversable(s) for s in CellState)
    flat = grid.flat
    tells_explored = key[CellState.EXPLORED] != key[CellState.UNEXPLORED]
    explored = flat.count(CellState.EXPLORED) if tells_explored else None
    stamp = (flat.count(CellState.OBSTACLE), explored)
    cached = grid._vis_cores.get(key)
    if cached is None or cached[0] != stamp:
        cached = grid._vis_cores[key] = (stamp, _Core(grid, traversable))
    return cached[1]


def build_visibility_graph(
    grid: CellGrid,
    start: Cell,
    goal: Cell,
    traversable: StatePredicate,
) -> VisibilityGraph:
    """Pairwise-visibility graph over the start, the goal and obstacle vertices.

    The start must pass the predicate (``ValueError`` otherwise); the goal
    is admitted as a node whatever its state, and sight lines may cross it.
    All other cells a sight line touches must pass the predicate. An
    out-of-bounds goal is a node without edges, so it has no path.

    Edges among obstacle vertices come from the grid's cached core, so a
    query adds only the start and goal edges, plus the vertex pairs blocked
    by nothing but a goal that fails the predicate.
    """
    _require_passing_start(grid, start, traversable)
    core = _cached_core(grid, traversable)
    shared = core.adjacency
    targets = list(shared)
    adjacency = dict(shared)
    ok = _passability(grid, traversable)  # the start passes already
    if grid.in_bounds(goal):
        ok[grid.index(goal)] = 1
        ends = sorted({start, goal})
    else:
        ends = [start]
        adjacency[goal] = []
    edges = list(core.blocked_by.get(goal, ()))  # only failing cells block pairs
    stride = grid.stride
    for e in ends:
        if e in shared:
            continue
        ec, er = e
        base = grid.index(e)
        for v in targets:
            dc, dr = v[0] - ec, v[1] - er
            at = base
            if v < e:  # walk the line from v, as the core does: same cells, one memo entry
                at, dc, dr = base + dc * stride + dr, -dc, -dr
            for o in _line_offsets(grid, dc, dr):
                if not ok[at + o]:
                    break
            else:
                edges.append((e, v, math.dist(e, v)))
        targets.append(e)
        adjacency[e] = []
    for u, v, w in edges:
        for a, b in ((u, v), (v, u)):
            if adjacency[a] is shared.get(a):
                adjacency[a] = adjacency[a] + [(b, w)]  # copy, so the core stays intact
            else:
                adjacency[a].append((b, w))
    return VisibilityGraph(sorted(adjacency), adjacency)


def astar(graph: VisibilityGraph, start: Cell, goal: Cell) -> PathResult | None:
    """Minimum-length node path on a visibility graph (straight-line heuristic)."""
    if start not in graph.adjacency or goal not in graph.adjacency:
        raise ValueError("start and goal must be graph nodes")
    if start == goal:
        return PathResult([start], 0.0)
    g = {start: 0.0}
    parent: dict[Cell, Cell | None] = {start: None}
    heap = [(math.dist(start, goal), start)]
    closed: set[Cell] = set()
    while heap:
        _, u = heapq.heappop(heap)
        if u in closed:
            continue
        closed.add(u)
        if u == goal:
            return _reconstruct(parent, goal)
        gu = g[u]
        for v, w in graph.adjacency[u]:
            if v in closed:
                continue
            ng = gu + w
            if ng < g.get(v, math.inf):
                g[v] = ng
                parent[v] = u
                heapq.heappush(heap, (ng + math.dist(v, goal), v))
    return None


def _reconstruct(parent: dict[Cell, Cell | None], goal: Cell) -> PathResult:
    cells = [goal]
    while parent[cells[-1]] is not None:
        cells.append(parent[cells[-1]])  # type: ignore[arg-type]
    cells.reverse()
    return PathResult(cells, path_length(cells))


def path_length(cells: list[Cell]) -> float:
    """Length in meters of the polyline through the cell centers."""
    return math.fsum(math.dist(cells[i], cells[i + 1]) for i in range(len(cells) - 1))


def _require_passing_start(grid: CellGrid, start: Cell, traversable: StatePredicate) -> None:
    if not (grid.in_bounds(start) and traversable(grid.state(start))):
        raise ValueError(f"start {start} must be an in-bounds cell that passes the predicate")


def _passability(grid: CellGrid, traversable: StatePredicate) -> bytearray:
    """1 for every cell that passes the predicate, else 0.

    The mask is indexed like ``grid.flat``; its border is 0, since the
    translation table maps every byte but the passing states to 0.
    """
    return grid.flat.translate(bytes(bool(traversable(s)) for s in CellState).ljust(256, b"\0"))


def grid_astar(
    grid: CellGrid,
    start: Cell,
    goal: Cell,
    traversable: StatePredicate,
) -> PathResult | None:
    """Shortest 8-connected cell path; diagonal squeezes between blocked cells allowed.

    The start must pass the predicate (``ValueError`` otherwise); the goal
    is admitted whatever its state (typically an unexplored waypoint), and
    an out-of-bounds goal has no path. Cells are searched as flat grid
    indices over one passability mask built per call; since those indices
    order like ``(col, row)`` tuples, heap ties break as they would on cells.
    """
    _require_passing_start(grid, start, traversable)
    if not grid.in_bounds(goal):
        return None
    ok = _passability(grid, traversable)
    s_idx = grid.index(start)
    g_idx = grid.index(goal)
    ok[g_idx] = 1
    if start == goal:
        return PathResult([start], 0.0)
    steps = grid.steps
    cell_at = grid.cell_at
    hypot = math.hypot
    heappush, heappop = heapq.heappush, heapq.heappop
    gc, gr = goal
    g = {s_idx: 0.0}
    parent = {s_idx: -1}
    heap = [(math.dist(start, goal), s_idx)]
    closed = bytearray(len(ok))
    while heap:
        _, u = heappop(heap)
        if closed[u]:
            continue
        closed[u] = 1
        if u == g_idx:
            cells = []
            while u != -1:
                cells.append(cell_at(u))
                u = parent[u]
            cells.reverse()
            return PathResult(cells, path_length(cells))
        gu = g[u]
        for off, w in steps:
            v = u + off
            if not ok[v] or closed[v]:
                continue
            ng = gu + w
            if ng < g.get(v, math.inf):
                g[v] = ng
                parent[v] = u
                vc, vr = cell_at(v)
                heappush(heap, (ng + hypot(gc - vc, gr - vr), v))
    return None


class DistanceField:
    """Shortest explored-grid distance to the station, maintained incrementally.

    Explored cells only ever appear (states are absorbing), so distances only
    decrease; inserting a newly explored cell seeds it from its explored
    neighbors and propagates any improvements outward. The value is an upper
    bound on the length of any executable retreat from that cell, which keeps
    the energy gate conservative. Distances are kept per flat grid index.
    """

    def __init__(self, grid: CellGrid):
        self.grid = grid
        self._dist = [math.inf] * len(grid.flat)

    def distance(self, cell: Cell) -> float:
        return self._dist[self.grid.index(cell)]

    def insert(self, cell: Cell) -> None:
        grid = self.grid
        dist = self._dist
        base = self.neighbor_estimate(cell)
        i = grid.index(cell)
        if base >= dist[i]:
            return
        dist[i] = base
        flat = grid.flat
        explored = int(CellState.EXPLORED)
        heap = [(base, i)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for off, w in grid.steps:
                v = u + off
                if flat[v] != explored:
                    continue
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))

    def no_explored_path(self, start: Cell, goal: Cell) -> bool:
        """True when no explored-only walk leads from the start to the goal.

        The field reaches exactly the station's explored component, over the
        steps grid A* takes. From a start in that component, a walk that
        admits the goal reaches the goal exactly when it is the start, lies
        in the component or borders it. False means a path exists, or that
        the start lies outside the component, where the field cannot tell.
        Both cells must be in bounds.
        """
        return (
            start != goal
            and self.distance(start) < math.inf
            and self.distance(goal) == math.inf
            and self.neighbor_estimate(goal) == math.inf
        )

    def neighbor_estimate(self, cell: Cell) -> float:
        """Upper bound on the retreat length from a not-yet-explored cell."""
        grid = self.grid
        i = grid.index(cell)
        best = 0.0 if cell == grid.station else math.inf
        for off, w in grid.steps:
            if grid.flat[i + off] == CellState.EXPLORED:
                best = min(best, self._dist[i + off] + w)
        return best
