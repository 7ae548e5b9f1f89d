"""Line-of-sight tests, visibility graphs and shortest-path search.

The traversability rules are parameterized by a predicate on cell states:
retreat and advance paths may only cross explored cells, while routing to a
distant coverage waypoint may also cross unexplored (non-obstacle) cells.

Line of sight between two cell centers uses a supercover traversal: every
cell the segment touches must be traversable, and a segment passing exactly
through a lattice corner counts both flanking cells, so squeezing between
two diagonally adjacent blocked cells is not a valid sight line.

Visibility graphs are assembled per query from a cached core: the obstacle
vertices, the sight-line edges among them, and for each vertex pair blocked
by a single cell, that cell. The belief grid holds at most one core per
predicate (keyed by its truth table over the cell states) and bumps a
version counter whenever a sensor update adds an obstacle or a cell is
traversed; a core built at an older version is rebuilt on its next use. A
query then adds only the start and goal edges.

Grid A* searches flat indices of a passability mask built once per call.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .grid import Cell, CellGrid, CellState

StatePredicate = Callable[[CellState], bool]

SQRT2 = math.sqrt(2.0)


def explored_only(state: CellState) -> bool:
    return state is CellState.EXPLORED


def non_obstacle(state: CellState) -> bool:
    return state is not CellState.OBSTACLE


def euclid(grid: CellGrid, a: Cell, b: Cell) -> float:
    """Center-to-center distance in meters."""
    return grid.cell_size * math.hypot(b[0] - a[0], b[1] - a[1])


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


def los_clear(
    grid: CellGrid,
    a: Cell,
    b: Cell,
    traversable: StatePredicate,
    exempt: frozenset[Cell] = frozenset(),
) -> bool:
    """True iff every cell touched by the segment a->b passes the predicate.

    Cells in ``exempt`` are admitted regardless of state (used for a goal
    waypoint that is about to be explored).
    """
    state = grid.state
    for cell in supercover_line(a, b):
        if not traversable(state(cell)) and cell not in exempt:
            return False
    return True


def obstacle_vertices(grid: CellGrid, traversable: StatePredicate) -> list[Cell]:
    """Convex-corner free cells of discovered obstacle boundaries.

    A cell qualifies if it satisfies the predicate and touches an obstacle
    cell diagonally while both cells flanking that diagonal are not
    obstacles; taut paths around discovered obstacles bend at exactly these
    cells. Corners of obstacles touching the map border are produced by the
    same pattern.
    """
    state = grid.state
    out = []
    for row in range(grid.height):
        for col in range(grid.width):
            cell = (col, row)
            if not traversable(state(cell)):
                continue
            for dc, dr in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                d = (col + dc, row + dr)
                if not grid.in_bounds(d) or state(d) is not CellState.OBSTACLE:
                    continue
                if (
                    state((col + dc, row)) is not CellState.OBSTACLE
                    and state((col, row + dr)) is not CellState.OBSTACLE
                ):
                    out.append(cell)
                    break
    return out


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

    def __init__(self, grid: CellGrid, nodes: list[Cell], adjacency: dict[Cell, list[tuple[Cell, float]]]):
        self.grid = grid
        self.nodes = nodes
        self.adjacency = adjacency


class _Core:
    """The part of a visibility graph that depends only on the belief grid.

    ``adjacency`` holds the sight-line edges among the obstacle vertices;
    ``blocked_by`` maps a cell to the vertex pairs ``(u, v, w)`` whose sight
    line that cell alone blocks.
    """

    __slots__ = ("version", "adjacency", "blocked_by")

    def __init__(self, grid: CellGrid, traversable: StatePredicate, admit: frozenset[Cell]):
        self.version = grid.version
        vertices = sorted(obstacle_vertices(grid, traversable))
        ok = _passability(grid, traversable, admit)
        stride = grid.height + 2
        adjacency: dict[Cell, list[tuple[Cell, float]]] = {v: [] for v in vertices}
        blocked_by: dict[Cell, list[tuple[Cell, Cell, float]]] = {}
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                blocker = None
                for cell in supercover_line(u, v):
                    if not ok[(cell[0] + 1) * stride + cell[1] + 1]:
                        if blocker is not None:
                            break
                        blocker = cell
                else:
                    w = euclid(grid, u, v)
                    if blocker is None:
                        adjacency[u].append((v, w))
                        adjacency[v].append((u, w))
                    else:
                        blocked_by.setdefault(blocker, []).append((u, v, w))
        self.adjacency = adjacency
        self.blocked_by = blocked_by


def _cached_core(grid: CellGrid, traversable: StatePredicate) -> _Core:
    """The grid's core for this predicate, rebuilt when the grid state changed.

    Cores are keyed by the predicate's truth table over the cell states, so
    equivalent predicates share one entry.
    """
    key = tuple(traversable(s) for s in CellState)
    core = grid._vis_cores.get(key)
    if core is None or core.version != grid.version:
        core = _Core(grid, traversable, frozenset())
        grid._vis_cores[key] = core
    return core


def build_visibility_graph(
    grid: CellGrid,
    start: Cell,
    goal: Cell,
    traversable: StatePredicate,
) -> VisibilityGraph:
    """Pairwise-visibility graph over the start, the goal and obstacle vertices.

    The start and goal cells are admitted as nodes regardless of their own
    state, and sight lines may cross them; all other cells a sight line
    touches must pass the predicate.

    Edges among obstacle vertices come from the grid's cached core, so a
    query adds only the start and goal edges, plus the vertex pairs blocked
    by nothing but an endpoint that fails the predicate. When both endpoints
    fail it, a core that admits them is built for this query alone.
    """
    exempt = frozenset((start, goal))
    failing = [e for e in sorted(exempt) if not traversable(grid.state(e))]
    if len(failing) == 2:
        # pairs blocked by both endpoints together are in no cached core
        core = _Core(grid, traversable, exempt)
        edges = []
    else:
        core = _cached_core(grid, traversable)
        edges = [pair for e in failing for pair in core.blocked_by.get(e, ())]
    shared = core.adjacency
    targets = list(shared)
    adjacency = dict(shared)
    for e in sorted(exempt):
        if e in shared:
            continue
        for v in targets:
            if los_clear(grid, e, v, traversable, exempt):
                edges.append((e, v, euclid(grid, e, v)))
        targets.append(e)
        adjacency[e] = []
    for u, v, w in edges:
        for a, b in ((u, v), (v, u)):
            if adjacency[a] is shared.get(a):
                adjacency[a] = adjacency[a] + [(b, w)]  # copy, so the core stays intact
            else:
                adjacency[a].append((b, w))
    return VisibilityGraph(grid, sorted(adjacency), adjacency)


def astar(graph: VisibilityGraph, start: Cell, goal: Cell) -> PathResult | None:
    """Minimum-length node path on a visibility graph (straight-line heuristic)."""
    if start not in graph.adjacency or goal not in graph.adjacency:
        raise ValueError("start and goal must be graph nodes")
    if start == goal:
        return PathResult([start], 0.0)
    grid = graph.grid
    g = {start: 0.0}
    parent: dict[Cell, Cell | None] = {start: None}
    heap = [(euclid(grid, start, goal), start)]
    closed: set[Cell] = set()
    while heap:
        _, u = heapq.heappop(heap)
        if u in closed:
            continue
        closed.add(u)
        if u == goal:
            return _reconstruct(grid, parent, goal)
        gu = g[u]
        for v, w in graph.adjacency[u]:
            if v in closed:
                continue
            ng = gu + w
            if ng < g.get(v, math.inf):
                g[v] = ng
                parent[v] = u
                heapq.heappush(heap, (ng + euclid(grid, v, goal), v))
    return None


def _reconstruct(grid: CellGrid, parent: dict[Cell, Cell | None], goal: Cell) -> PathResult:
    cells = [goal]
    while parent[cells[-1]] is not None:
        cells.append(parent[cells[-1]])  # type: ignore[arg-type]
    cells.reverse()
    return _path_result(grid, cells)


def _path_result(grid: CellGrid, cells: list[Cell]) -> PathResult:
    length = math.fsum(euclid(grid, cells[i], cells[i + 1]) for i in range(len(cells) - 1))
    return PathResult(cells, length)


def _passability(grid: CellGrid, traversable: StatePredicate, extra: frozenset[Cell]) -> bytearray:
    """1 for every cell that passes the predicate or is in ``extra``, else 0.

    The mask is column-major with a one-cell border of zeros: cell (c, r) is
    at ``(c + 1) * (height + 2) + r + 1``. Flat indices therefore order like
    ``(col, row)`` tuples, and neighbour offsets need no bounds checks.
    """
    width, height = grid.width, grid.height
    stride = height + 2
    pass_of = {s: int(traversable(s)) for s in CellState}.__getitem__
    states = grid._states
    ok = bytearray(stride * (width + 2))
    for col in range(width):
        base = (col + 1) * stride + 1
        ok[base : base + height] = bytes(map(pass_of, states[col::width]))
    for cell in extra:
        if grid.in_bounds(cell):
            ok[(cell[0] + 1) * stride + cell[1] + 1] = 1
    return ok


def _grid_neighbors(
    grid: CellGrid,
    cell: Cell,
    passable: Callable[[Cell], bool],
    cut_corners: bool,
) -> list[tuple[Cell, float]]:
    col, row = cell
    step = grid.cell_size
    diag = SQRT2 * grid.cell_size
    out = []
    for dc, dr in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        n = (col + dc, row + dr)
        if not grid.in_bounds(n) or not passable(n):
            continue
        if dc != 0 and dr != 0:
            if not cut_corners and not (passable((col + dc, row)) and passable((col, row + dr))):
                continue
            out.append((n, diag))
        else:
            out.append((n, step))
    return out


def grid_astar(
    grid: CellGrid,
    start: Cell,
    goal: Cell,
    traversable: StatePredicate,
    extra: frozenset[Cell] = frozenset(),
    cut_corners: bool = True,
) -> PathResult | None:
    """Shortest 8-connected cell path; diagonal squeezes allowed unless disabled.

    ``extra`` admits specific cells (typically an unexplored goal) regardless
    of their state. Cells are searched as flat indices of one passability
    mask built per call; since those indices order like ``(col, row)``
    tuples, heap ties break as they would on cells.
    """
    if not (grid.in_bounds(start) and grid.in_bounds(goal)):
        return None
    ok = _passability(grid, traversable, extra)
    stride = grid.height + 2
    s_idx = (start[0] + 1) * stride + start[1] + 1
    g_idx = (goal[0] + 1) * stride + goal[1] + 1
    if not (ok[s_idx] and ok[g_idx]):
        return None
    if start == goal:
        return PathResult([start], 0.0)
    size = grid.cell_size
    diag = SQRT2 * size
    # (index offset, side offsets, step length, dc, dr); a diagonal step
    # without corner cutting also needs both side cells, the others check
    # their own cell (offset 0), which is always passable.
    moves = []
    for dc, dr in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        if dc and dr:
            side_a, side_b = (0, 0) if cut_corners else (dc * stride, dr)
            moves.append((dc * stride + dr, side_a, side_b, diag, dc, dr))
        else:
            moves.append((dc * stride + dr, 0, 0, size, dc, dr))
    hypot = math.hypot
    heappush, heappop = heapq.heappush, heapq.heappop
    # goal offsets in bordered coordinates, so (goal - v) comes out exact
    gc, gr = goal[0] + 1, goal[1] + 1
    g = {s_idx: 0.0}
    parent = {s_idx: -1}
    heap = [(euclid(grid, start, goal), s_idx)]
    closed = bytearray(len(ok))
    while heap:
        _, u = heappop(heap)
        if closed[u]:
            continue
        closed[u] = 1
        if u == g_idx:
            cells = []
            while u != -1:
                cells.append((u // stride - 1, u % stride - 1))
                u = parent[u]
            cells.reverse()
            return _path_result(grid, cells)
        gu = g[u]
        uc, ur = divmod(u, stride)
        for off, side_a, side_b, w, dc, dr in moves:
            v = u + off
            if not ok[v] or closed[v] or not (ok[u + side_a] and ok[u + side_b]):
                continue
            ng = gu + w
            if ng < g.get(v, math.inf):
                g[v] = ng
                parent[v] = u
                heappush(heap, (ng + size * hypot(gc - uc - dc, gr - ur - dr), v))
    return None


def grid_dijkstra(
    grid: CellGrid,
    source: Cell,
    traversable: StatePredicate,
    extra: frozenset[Cell] = frozenset(),
    cut_corners: bool = True,
) -> dict[Cell, float]:
    """Shortest-path lengths from the source to every passable cell."""

    def passable(c: Cell) -> bool:
        return traversable(grid.state(c)) or c in extra

    if not passable(source):
        return {}
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _grid_neighbors(grid, u, passable, cut_corners):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


class DistanceField:
    """Shortest explored-grid distance to the station, maintained incrementally.

    Explored cells only ever appear (states are absorbing), so distances only
    decrease; inserting a newly explored cell seeds it from its explored
    neighbors and propagates any improvements outward. The value is an upper
    bound on the length of any executable retreat from that cell, which keeps
    the energy gate conservative.
    """

    def __init__(self, grid: CellGrid):
        self.grid = grid
        self._dist = [math.inf] * (grid.width * grid.height)

    def distance(self, cell: Cell) -> float:
        return self._dist[cell[1] * self.grid.width + cell[0]]

    def insert(self, cell: Cell) -> None:
        grid = self.grid
        base = self.neighbor_estimate(cell)
        if base >= self.distance(cell):
            return
        self._dist[cell[1] * grid.width + cell[0]] = base
        heap = [(base, cell)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > self.distance(u):
                continue
            for v in grid.neighbors8(u):
                if grid.state(v) is not CellState.EXPLORED:
                    continue
                nd = d + euclid(grid, u, v)
                if nd < self.distance(v):
                    self._dist[v[1] * grid.width + v[0]] = nd
                    heapq.heappush(heap, (nd, v))

    def neighbor_estimate(self, cell: Cell) -> float:
        """Upper bound on the retreat length from a not-yet-explored cell."""
        grid = self.grid
        best = 0.0 if cell == grid.station else math.inf
        for n in grid.neighbors8(cell):
            if grid.state(n) is CellState.EXPLORED:
                d = self.distance(n) + euclid(grid, n, cell)
                if d < best:
                    best = d
        return best
