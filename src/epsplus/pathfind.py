"""Line-of-sight tests, visibility graphs and shortest-path search.

The traversability rules are parameterized by a predicate on cell states:
retreat and advance paths may only cross explored cells, while routing to a
distant coverage waypoint may also cross unexplored (non-obstacle) cells.

Line of sight between two cell centers uses a supercover traversal: every
cell the segment touches must be traversable, and a segment passing exactly
through a lattice corner counts both flanking cells, so squeezing between
two diagonally adjacent blocked cells is not a valid sight line.
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
    """Undirected graph over {start, goal, obstacle vertices} with sight-line edges."""

    def __init__(self, grid: CellGrid, nodes: list[Cell], adjacency: dict[Cell, list[tuple[Cell, float]]]):
        self.grid = grid
        self.nodes = nodes
        self.adjacency = adjacency


def build_visibility_graph(
    grid: CellGrid,
    start: Cell,
    goal: Cell,
    traversable: StatePredicate,
) -> VisibilityGraph:
    """Pairwise-visibility graph over the start, the goal and obstacle vertices.

    The start and goal cells are admitted as nodes regardless of their own
    state; edge interiors must still pass the predicate.
    """
    exempt = frozenset((start, goal))
    nodes = sorted({start, goal} | set(obstacle_vertices(grid, traversable)))
    adjacency: dict[Cell, list[tuple[Cell, float]]] = {n: [] for n in nodes}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if los_clear(grid, u, v, traversable, exempt):
                w = euclid(grid, u, v)
                adjacency[u].append((v, w))
                adjacency[v].append((u, w))
    return VisibilityGraph(grid, nodes, adjacency)


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
    length = math.fsum(euclid(grid, cells[i], cells[i + 1]) for i in range(len(cells) - 1))
    return PathResult(cells, length)


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
    of their state.
    """

    def passable(c: Cell) -> bool:
        return traversable(grid.state(c)) or c in extra

    if not (passable(start) and passable(goal)):
        return None
    if start == goal:
        return PathResult([start], 0.0)
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
        for v, w in _grid_neighbors(grid, u, passable, cut_corners):
            if v in closed:
                continue
            ng = gu + w
            if ng < g.get(v, math.inf):
                g[v] = ng
                parent[v] = u
                heapq.heappush(heap, (ng + euclid(grid, v, goal), v))
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
