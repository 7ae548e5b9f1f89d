"""Line-of-sight tests, visibility graphs and shortest-path search.

Path lengths are Euclidean distances between cell centers in meters (a cell
is a 1 m square, see ``grid``), so ``math.dist`` measures every edge.

Passability has two rules, each a pass table over state bytes:
``rule[state]`` is 1 when a cell in that state may be crossed, and 0 for
every other byte, the grid's border included. ``explored_only`` crosses
explored cells only, as retreats and most advances do; ``non_obstacle``
also crosses unexplored cells, as routes to a distant coverage waypoint do,
and an advance to a restart point that only unexplored free space reaches.
The planners here take the rule they are given; ``mission.Mission._shortest``
is the one place a retreat or advance rule is chosen.

Line of sight between two cell centers uses a supercover traversal, and a
segment passing exactly through a lattice corner counts both flanking
cells, so squeezing between two diagonally adjacent blocked cells is not a
valid sight line. One test holds for every sight line: every cell strictly
between its ends passes the rule; the ends themselves are not tested.

Both shortest-path planners, visibility-graph A* and grid A*, take the same
inputs: the start must pass the rule (else ``ValueError``), and the
goal is admitted whatever its state, as a path's end only: a sight line may
end at a failing goal but never crosses it, and a grid walk stops there.
An out-of-bounds goal has no path.
Consecutive cells of a supercover line are 8-adjacent, so every sight-line
path is also a grid walk over admitted cells: when grid A* finds no path,
neither does the visibility graph.

The converse holds up to a constant. Along a sight line from a to b, the
Bresenham walk of max(|dx|, |dy|) steps, min(|dx|, |dy|) of them diagonal,
stays on cells the line touches, and its length is at most
sqrt(4 - 2*sqrt(2)) = 1.08239... times |ab|, the worst case being a line at
22.5 degrees (Nash & Koenig, "Any-Angle Path Planning", AI Magazine 2013).
Grid A* admits every such step, so under either rule the shortest grid
walk is at most that factor times the shortest sight-line path, and the
shorter of the two planners is never below the walk divided by
``GRID_STRETCH``, a float just above that factor.

Both A* searches (and ``build_visibility_graph``) take a trailing
``limit``, ``math.inf`` by default: a search returns what the unbounded
search returns when that path is at most ``limit`` long, and None
otherwise. It neither records nor pushes a state whose f = g + h exceeds
the limit by more than a rounding margin (``_MARGIN``), so a search that
cannot succeed ends early. A path that fits is unchanged: the straight-line
heuristic is consistent, so every state the unbounded search pops before
the goal has f at most the goal's g, which is the path's length up to
rounding; all of those states are kept, and the bounded search pops them in
the same order and returns the same cells with a bit-equal length.

Visibility graphs are assembled per query from a cached core. Its nodes
are the cells that pass the rule and are obstacle vertices or the
station, the hub of every retreat and advance; it holds the sight-line
edges among them: the pairs with every cell strictly between them passing.
No query changes them: a failing goal is a failing cell of the grid, which
no core edge crosses, and it can block only a line it lies strictly inside.
The belief grid holds at most one core per rule, keyed by its pass table.
A core is built from empty once and then kept in sync with the grid: the
grid logs every changed cell (``CellGrid.changes``), and a sync reads only
the cells logged since the last one, re-testing node status around them
and walking again only the lines that a changed cell can affect
(``_Core``). A query then adds only
the start and goal edges, and walks no line from an endpoint that is a
core node. Cores and queries test a line the same way, walking the
offsets of the cells strictly between its ends (below) up to the first
failing one. Where cells only start passing, a blocked core pair watches
that one cell; where cells only start failing, a sync walks again only the
edges whose bounding box meets the box of the sync's new failing cells.

Under ``non_obstacle`` every input of a query but its endpoints depends on
obstacle cells only: a cell passes unless it is an obstacle, an obstacle
vertex is defined by obstacles and passability, and the station always
passes, so the core's nodes and sight lines and grid A*'s passability mask
read nothing else. A traversal does not flip a cell's passability and marks
no obstacle, so the synced core is left as it was; both planners then
return the same path for the same endpoints and limit until a cell is next
marked obstacle.

Grid walks (obstacle vertices, grid A*, the distance field) index the
grid's bordered flat state bytes and compare them to plain ints; a
passability mask is ``grid.flat.translate(rule)``, 0 on the border.
Sight lines are checked on such a mask too: a supercover line is
translation-invariant, so each cell delta maps to one list of flat offsets
of the cells strictly between its ends, which depends only on the delta
and the grid's stride. One table per process, an ``lru_cache`` of 5,000
lines, holds them, so missions on grids of the same height share it. A
sight line touches the same cells in both directions, so lines are walked
from their lower endpoint and one offset list serves both.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .grid import Cell, CellGrid, CellState, NEIGHBORS_8

_UNEXPLORED = int(CellState.UNEXPLORED)
_EXPLORED = int(CellState.EXPLORED)
_OBSTACLE = int(CellState.OBSTACLE)

# The two pass tables: rule[state] is 1 when a cell in that state may be
# crossed, and 0 for every other byte, the border's included.
explored_only = bytes(b == _EXPLORED for b in range(256))
non_obstacle = bytes(b in (_UNEXPLORED, _EXPLORED) for b in range(256))


def supercover_line(a: Cell, b: Cell) -> list[Cell]:
    """All cells touched by the segment between the centers of a and b, in order.

    When the segment passes exactly through a lattice corner, both cells
    flanking the corner are included: first the one a step along the longer
    axis from the cell before the corner, then the one a step along the
    shorter axis. The walk takes one step along the longer axis (x on a
    tie) per turn, plus one along the shorter axis whenever the error term
    crosses a cell edge.
    """
    x, y = a
    dx = b[0] - x
    dy = b[1] - y
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    dx = abs(dx)
    dy = abs(dy)
    if dx >= dy:  # (mx, my) steps along the longer axis, (nx, ny) along the shorter
        n, m, mx, my, nx, ny = dx, dy, sx, 0, 0, sy
    else:
        n, m, mx, my, nx, ny = dy, dx, 0, sy, sx, 0
    cells = [(x, y)]
    ddn = 2 * n
    ddm = 2 * m
    errorprev = error = n
    for _ in range(n):
        x += mx
        y += my
        error += ddm
        if error > ddn:
            x += nx
            y += ny
            error -= ddn
            corner = error + errorprev  # == ddn: the segment crosses the lattice corner itself
            if corner <= ddn:
                cells.append((x - nx, y - ny))
            if corner >= ddn:
                cells.append((x - mx, y - my))
        cells.append((x, y))
        errorprev = error
    return cells


@lru_cache(maxsize=5000)
def _line_offsets(stride: int, dc: int, dr: int) -> array:
    """Flat-index offsets of ``supercover_line((0, 0), (dc, dr))[1:-1]``, in order.

    These are the cells strictly between the line's ends. A supercover
    line is translation-invariant and ``grid.flat`` is column-major, so
    cell ``(c, r)`` of the line lies ``c * stride + r`` bytes from its
    first cell. The offsets depend only on the delta and the
    stride, so one table serves every grid in the process: an LRU cache of
    5,000 lines, more than the 4,901 deltas a line of a 50 x 50 grid can
    have (walked from its lower endpoint, so columns only grow) and than the
    3,218 lines the twelve tight-budget maps walk together. It holds compact
    arrays, since a memo of tuples of ints costs several times the memory.
    Entries are never modified, so sharing them cannot change a result.
    """
    cells = supercover_line((0, 0), (dc, dr))[1:-1]
    return array("i", [c * stride + r for c, r in cells])


# a bounded search keeps the states whose f = g + h is within the limit by
# this factor, far wider than the rounding of a g summed edge by edge
_MARGIN = 1.0 + 1e-9

# a float strictly above sqrt(4 - 2*sqrt(2)) = 1.08239..., the most an 8-connected
# grid walk can exceed the any-angle path it follows (see the module docstring)
GRID_STRETCH = 1.0825


def _diagonals(grid: CellGrid) -> list[tuple[int, int, int]]:
    """Per diagonal move: its flat offset, then those of its column and row steps."""
    off = {move: o for move, (o, _) in zip(NEIGHBORS_8, grid.steps)}
    return [(off[(dc, dr)], off[(dc, 0)], off[(0, dr)]) for dc in (1, -1) for dr in (1, -1)]


def _is_vertex(flat: bytearray, ok: bytearray, i: int, diagonals) -> bool:
    """Whether the cell at flat index ``i`` is an obstacle vertex (see ``obstacle_vertices``)."""
    if not ok[i]:
        return False
    for d, col_step, row_step in diagonals:
        if flat[i + d] == _OBSTACLE and flat[i + col_step] != _OBSTACLE and flat[i + row_step] != _OBSTACLE:
            return True
    return False


def obstacle_vertices(grid: CellGrid, rule: bytes) -> list[Cell]:
    """Convex-corner free cells of discovered obstacle boundaries, in (col, row) order.

    A cell qualifies if it passes the rule and touches an obstacle cell
    diagonally while both cells flanking that diagonal are not obstacles;
    taut paths around discovered obstacles bend at exactly these cells.
    Corners of obstacles touching the map border are produced by the same
    pattern.
    """
    flat = grid.flat
    ok = flat.translate(rule)
    diagonals = _diagonals(grid)
    near = set()
    o = flat.find(_OBSTACLE)
    while o != -1:
        near.update(o - d for d, _, _ in diagonals)
        o = flat.find(_OBSTACLE, o + 1)
    return [grid.cell_at(i) for i in sorted(near) if _is_vertex(flat, ok, i, diagonals)]


@dataclass
class PathResult:
    """A path as an ordered cell sequence with its Euclidean length in meters."""

    cells: list[Cell]
    length: float


class VisibilityGraph:
    """Undirected graph over {start, goal, core nodes} with sight-line edges.

    Adjacency lists of core nodes may be shared with the grid's cached
    core, which the next sync updates; callers must not modify them, and a
    graph is valid until the grid changes. ``nodes`` is sorted on first
    read, since search reads only ``adjacency``.
    """

    def __init__(self, adjacency: dict[Cell, list[tuple[Cell, float]]]):
        self.adjacency = adjacency

    @cached_property
    def nodes(self) -> list[Cell]:
        return sorted(self.adjacency)


_PAIR = 1 << 32  # a pair's key: its lower node serial times this, plus the higher


class _Core:
    """The part of a visibility graph that depends only on the belief grid.

    The core's nodes are the cells that pass the rule and are obstacle
    vertices or the station. ``adjacency`` holds the sight-line edges among
    them, the pairs with every cell strictly between them passing (the
    module docstring's one sight-line test). Every weight is
    ``math.dist(u, v)`` with ``u < v``.

    A core is kept in sync with the grid by :meth:`sync`, which reads only
    the cells in ``grid.changes`` past ``read``; building one is a sync
    from the core of the grid as created, where no cell is an obstacle and
    so the only node is the station, if it passes. ``ok`` is the rule's
    passability mask as of the last sync. Every transition leaves the
    unexplored state, so under a rule that fails unexplored cells
    (``explored_only``) cells only start passing, and under one that
    passes them (``non_obstacle``) cells only start failing. A sync
    - re-tests node status on each changed cell whose passability flipped,
      and on the 8 neighbours of each new obstacle;
    - drops the pairs of the nodes that are gone;
    - re-files an old pair only when a cell it depends on flipped: a flip
      to passing walks again the pairs that watch it, and a flip to failing
      cuts the edges across it (below);
    - walks the lines of each new node to the others.

    Every line is tested one way: the offsets of the cells strictly
    between its ends are walked over ``ok`` from its lower endpoint up to
    the first failing one. ``_classify`` takes a pair's two nodes in either
    order and orients the walk itself. A blocked pair watches its first
    failing cell if that cell is still unexplored (``watch``, a list of pair
    keys per flat index) and is dead for good otherwise, since explored and
    obstacle cells never change again. Under ``explored_only`` the cells
    before it pass for good, so the pair can become an edge only when that
    cell flips, and the flip walks the pair again from the start: a live
    pair sits in at most one watch list. Under ``non_obstacle`` a failing
    cell is an obstacle, so no pair watches; a sync walks again the edges
    whose bounding box meets the box of the new failing cells, cutting each
    at its first failing cell.

    Each node takes a new serial when it appears (``nodes`` maps serials
    to flat indices and cells), and a pair's key is made of its serials, so
    the watches of a node that is gone lapse without a search.
    """

    __slots__ = (
        "rule", "ok", "read", "ring", "diagonals", "station", "serial", "nodes",
        "adjacency", "watch",
    )

    def __init__(self, grid: CellGrid, rule: bytes):
        self.rule = rule
        ok = grid.flat.translate(rule)
        for i in grid.changes:  # the grid as created: every cell unexplored
            ok[i] = rule[_UNEXPLORED]
        self.ok = ok
        self.read = 0
        self.ring = [o for o, _ in grid.steps]
        self.diagonals = _diagonals(grid)
        self.station = grid.index(grid.station)
        self.serial: dict[int, int] = {}  # flat index of a node -> its serial
        self.nodes: list[tuple[int, Cell]] = []
        self.adjacency: dict[Cell, list[tuple[Cell, float]]] = {}
        self.watch: dict[int, list[int]] = {}
        if ok[self.station]:
            self._add(grid, [self.station])
        self.sync(grid)

    def sync(self, grid: CellGrid) -> None:
        """Catch up with the cells the grid changed since the last sync."""
        changes = grid.changes
        if self.read == len(changes):
            return
        fresh = changes[self.read :]
        self.read = len(changes)
        flat, ok, rule, ring = grid.flat, self.ok, self.rule, self.ring
        gained, lost = [], []
        near = set()  # the cells whose node status may have changed
        for i in fresh:
            if ok[i] != rule[flat[i]]:
                ok[i] ^= 1
                (gained if ok[i] else lost).append(i)
                near.add(i)
            if flat[i] == _OBSTACLE:  # the corners around it may have moved
                near.update([i + o for o in ring])
        serial, diagonals, station = self.serial, self.diagonals, self.station
        gone, born = [], []
        for i in near:
            if _is_vertex(flat, ok, i, diagonals) or (i == station and ok[i]):
                if i not in serial:
                    born.append(i)
            elif i in serial:
                gone.append(i)
        if gone:
            self._drop(gone)
        if gained:
            self._regain(grid, gained)
        if lost:
            self._cut(grid, lost)
        if born:
            self._add(grid, sorted(born))

    def _drop(self, gone: list[int]) -> None:
        adjacency, nodes = self.adjacency, self.nodes
        cells = {nodes[self.serial.pop(i)][1] for i in gone}
        touched = set()
        for u in cells:
            touched.update(v for v, _ in adjacency.pop(u))
        for v in touched - cells:
            adjacency[v] = [e for e in adjacency[v] if e[0] not in cells]

    def _regain(self, grid: CellGrid, gained: list[int]) -> None:
        """Walk again, from the start, the pairs that watch a cell which started passing."""
        serial, nodes, watch, classify = self.serial, self.nodes, self.watch, self._classify
        for i in gained:
            for key in watch.pop(i, ()):
                s, t = divmod(key, _PAIR)
                (a, ca), (b, cb) = nodes[s], nodes[t]
                if serial.get(a) != s or serial.get(b) != t:
                    continue  # a node of the pair has gone since
                classify(grid, key, a, ca, b, cb)

    def _cut(self, grid: CellGrid, lost: list[int]) -> None:
        """Remove the edges that a cell which started failing lies on.

        A line touches only cells inside its endpoints' bounding box, so an
        edge whose box misses the box of the new failing cells is skipped.
        The others are walked over ``ok``, which already holds the flips,
        and cut at the first failing cell strictly between their ends: the
        ends are nodes, which pass, since a node whose cell started failing
        was dropped before the cut. Edges are ``u < v``, so u's column is
        the lower.
        """
        xs = [grid.cell_at(i) for i in lost]
        c0 = min(c for c, _ in xs)
        c1 = max(c for c, _ in xs)
        r0 = min(r for _, r in xs)
        r1 = max(r for _, r in xs)
        adjacency, ok, stride = self.adjacency, self.ok, grid.stride
        cut = []
        for u, edges in adjacency.items():
            uc, ur = u
            if uc > c1:
                continue  # every v > u lies right of the box too
            lo = grid.index(u)
            for v, _ in edges:
                if u < v and v[0] >= c0 and (ur >= r0 or v[1] >= r0) and (ur <= r1 or v[1] <= r1):
                    for o in _line_offsets(stride, v[0] - uc, v[1] - ur):
                        if not ok[lo + o]:
                            cut.append((u, v))
                            break
        for u, v in cut:
            adjacency[u] = [e for e in adjacency[u] if e[0] != v]
            adjacency[v] = [e for e in adjacency[v] if e[0] != u]

    def _add(self, grid: CellGrid, born: list[int]) -> None:
        """Walk the lines of each new node to the other nodes."""
        serial, nodes, classify = self.serial, self.nodes, self._classify
        others = [nodes[t] + (t,) for t in serial.values()]
        for i in born:
            u = grid.cell_at(i)
            s = serial[i] = len(nodes)
            nodes.append((i, u))
            self.adjacency[u] = []
            for j, v, t in others:
                classify(grid, t * _PAIR + s, i, u, j, v)
            others.append((i, u, s))

    def _classify(self, grid: CellGrid, key: int, i: int, u: Cell, j: int, v: Cell) -> None:
        """Walk the line between nodes u and v (at flat indices i and j) and file the pair.

        The cells strictly between the nodes are walked from the lower
        one, as every line is, up to the first failing one. No failing cell
        makes an edge; the pair watches that cell if it is still unexplored,
        and is dead for good otherwise.
        """
        if j < i:
            i, u, v = j, v, u
        ok = self.ok
        for o in _line_offsets(grid.stride, v[0] - u[0], v[1] - u[1]):
            if not ok[i + o]:
                j = i + o
                if grid.flat[j] == _UNEXPLORED:  # explored and obstacle cells never change again
                    self.watch.setdefault(j, []).append(key)
                return
        w = math.dist(u, v)
        self.adjacency[u].append((v, w))
        self.adjacency[v].append((u, w))


def _cached_core(grid: CellGrid, rule: bytes) -> _Core:
    """The grid's core for this pass table, synced with the grid's changes.

    Cores are keyed by the table's bytes, so equal tables share one entry.
    Each is built once per grid and then synced on every use, reading only
    the cells changed since.
    """
    core = grid._vis_cores.get(rule)
    if core is None:
        core = grid._vis_cores[rule] = _Core(grid, rule)
    else:
        core.sync(grid)
    return core


def build_visibility_graph(
    grid: CellGrid,
    start: Cell,
    goal: Cell,
    rule: bytes,
    limit: float = math.inf,
) -> VisibilityGraph:
    """Pairwise-visibility graph over the start, the goal and the core nodes.

    The core nodes are the obstacle vertices and the station, each when it
    passes the rule. The start must pass the rule (``ValueError``
    otherwise); the goal is admitted as a node whatever its state. Every
    cell strictly between a sight line's ends must pass the rule, so a line
    may end at a failing goal but never crosses it. An out-of-bounds
    goal is a node without edges, so it has no path.

    Edges among the core nodes come from the grid's core as they are, so a
    query walks lines only from an endpoint that is not a core node, and
    tests them as the core does: the start and every core node pass, and
    a failing goal blocks only the lines it lies strictly inside. It walks
    the line from such an endpoint to a node v only when
    ``dist(start, v) + dist(v, goal)`` is within ``limit`` by the search's
    rounding margin: no path through v can fit the limit otherwise, and
    ``astar`` with that limit would not push v along that edge (see
    ``astar``). The graph's edges are a subset of the unbounded graph's.
    """
    _require_passing_start(grid, start, rule)
    core = _cached_core(grid, rule)
    shared = core.adjacency
    targets = list(shared)
    adjacency = dict(shared)
    ok = core.ok  # the start passes already
    if grid.in_bounds(goal):
        ends = sorted({start, goal})
    else:
        ends = [start]
        adjacency[goal] = []
    edges = []
    stride = grid.stride
    bound = limit * _MARGIN
    dist = math.dist
    for e in ends:
        if e in shared:
            continue
        ec, er = e
        base = grid.index(e)
        for v in targets:
            if bound < math.inf and dist(start, v) + dist(v, goal) > bound:
                continue  # no path through v fits the limit
            dc, dr = v[0] - ec, v[1] - er
            at = base
            if v < e:  # walk the line from v, as the core does: same cells, one table entry
                at, dc, dr = base + dc * stride + dr, -dc, -dr
            for o in _line_offsets(stride, dc, dr):
                if not ok[at + o]:
                    break
            else:
                edges.append((e, v, dist(e, v)))
        targets.append(e)
        adjacency[e] = []
    for u, v, w in edges:
        for a, b in ((u, v), (v, u)):
            if adjacency[a] is shared.get(a):
                adjacency[a] = adjacency[a] + [(b, w)]  # copy, so the core stays intact
            else:
                adjacency[a].append((b, w))
    return VisibilityGraph(adjacency)


def astar(graph: VisibilityGraph, start: Cell, goal: Cell, limit: float = math.inf) -> PathResult | None:
    """Minimum-length node path on a visibility graph (straight-line heuristic).

    Returns None when no path is at most ``limit`` long; see the module
    docstring for why a path that fits is the unbounded search's. A start
    that is the goal needs no case of its own: the first pop returns
    ``[start]`` of length 0, and a negative ``limit`` fails the bound test.
    """
    if start not in graph.adjacency or goal not in graph.adjacency:
        raise ValueError("start and goal must be graph nodes")
    bound = limit * _MARGIN
    f = math.dist(start, goal)
    if f > bound:
        return None
    g = {start: 0.0}
    parent: dict[Cell, Cell | None] = {start: None}
    heap = [(f, start)]
    closed: set[Cell] = set()
    while heap:
        _, u = heapq.heappop(heap)
        if u in closed:
            continue
        closed.add(u)
        if u == goal:
            cells = []
            while u is not None:
                cells.append(u)
                u = parent[u]
            cells.reverse()
            length = path_length(cells)
            return PathResult(cells, length) if length <= limit else None
        gu = g[u]
        for v, w in graph.adjacency[u]:
            if v in closed:
                continue
            ng = gu + w
            if ng < g.get(v, math.inf):
                f = ng + math.dist(v, goal)
                if f > bound:
                    continue
                g[v] = ng
                parent[v] = u
                heapq.heappush(heap, (f, v))
    return None


def path_length(cells: list[Cell]) -> float:
    """Length in meters of the polyline through the cell centers."""
    return math.fsum(math.dist(cells[i], cells[i + 1]) for i in range(len(cells) - 1))


def _require_passing_start(grid: CellGrid, start: Cell, rule: bytes) -> None:
    if not (grid.in_bounds(start) and rule[grid.state(start)]):
        raise ValueError(f"start {start} must be an in-bounds cell that passes the rule")


def grid_astar(
    grid: CellGrid,
    start: Cell,
    goal: Cell,
    rule: bytes,
    limit: float = math.inf,
) -> PathResult | None:
    """Shortest 8-connected cell path; diagonal squeezes between blocked cells allowed.

    The start must pass the rule (``ValueError`` otherwise); the goal
    is admitted whatever its state (typically an unexplored waypoint), as
    the path's end only, and an out-of-bounds goal has no path, nor has a
    goal whose shortest path is longer than ``limit`` (see the module
    docstring). Cells are searched as
    flat grid indices over one passability mask built per call; since those indices
    order like ``(col, row)`` tuples, heap ties break as they would on cells.
    A flat index's bordered column and row are its cell's plus one, so the
    heuristic takes their differences to the goal's straight from
    ``divmod``, and cells are built only along the returned chain. A cell
    is closed by clearing its mask byte.
    """
    _require_passing_start(grid, start, rule)
    if not grid.in_bounds(goal):
        return None
    if start == goal:
        return PathResult([start], 0.0) if limit >= 0.0 else None
    bound = limit * _MARGIN
    f = math.dist(start, goal)
    if f > bound:
        return None
    ok = grid.flat.translate(rule)
    stride = grid.stride
    s_idx = grid.index(start)
    g_idx = grid.index(goal)
    ok[g_idx] = 1
    steps = grid.steps
    hypot = math.hypot
    heappush, heappop = heapq.heappush, heapq.heappop
    gc, gr = divmod(g_idx, stride)
    g = [math.inf] * len(ok)
    g[s_idx] = 0.0
    parent = [-1] * len(ok)
    heap = [(f, s_idx)]
    while heap:
        _, u = heappop(heap)
        if not ok[u]:
            continue
        ok[u] = 0
        if u == g_idx:
            cells = []
            while u != -1:
                cells.append(grid.cell_at(u))
                u = parent[u]
            cells.reverse()
            length = path_length(cells)
            return PathResult(cells, length) if length <= limit else None
        gu = g[u]
        for off, w in steps:
            v = u + off
            if not ok[v]:
                continue
            ng = gu + w
            if ng < g[v]:
                vc, vr = divmod(v, stride)
                f = ng + hypot(gc - vc, gr - vr)
                if f > bound:
                    continue
                g[v] = ng
                parent[v] = u
                heappush(heap, (f, v))
    return None


class DistanceField:
    """Shortest explored-grid distance to the station, maintained incrementally.

    Explored cells only ever appear (states are absorbing), so distances only
    decrease; inserting a newly explored cell seeds it from its explored
    neighbors and propagates any improvements outward. Once the station is
    inserted, the field holds exactly the station's explored component, over
    the steps grid A* takes: a cell's value is the length of the shortest
    explored-only walk between it and the station, which is the length of
    the walk grid A* returns for that query. Since every sight-line path is also such a walk, the value
    is also an upper bound on the length of any retreat the planners return,
    which keeps the energy gate conservative. Distances are kept per flat
    grid index, and summed in another order than ``path_length`` sums a
    walk, so the two agree to rounding, not bit for bit.
    """

    def __init__(self, grid: CellGrid):
        self.grid = grid
        self._dist = [math.inf] * len(grid.flat)

    def distance(self, cell: Cell) -> float:
        return self._dist[self.grid.index(cell)]

    def insert(self, cell: Cell, estimate: float | None = None) -> None:
        """Add a newly explored cell; ``estimate``, if given, is its current ``neighbor_estimate``.

        The estimate reads only the cell's neighbours, so a caller that
        computed it before marking the cell may pass it on.
        """
        grid = self.grid
        dist = self._dist
        base = self.neighbor_estimate(cell) if estimate is None else estimate
        i = grid.index(cell)
        if base >= dist[i]:
            return
        dist[i] = base
        flat = grid.flat
        steps = grid.steps
        heappush, heappop = heapq.heappush, heapq.heappop
        heap = [(base, i)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            for off, w in steps:
                v = u + off
                if flat[v] != _EXPLORED:
                    continue
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))

    def explored_walk(self, start: Cell, goal: Cell) -> float | None:
        """Length of the shortest explored-only walk from the start to the goal.

        Walks follow grid A*: every cell but the goal must be explored, and
        the goal is admitted whatever its state. From a start in the
        station's explored component, the answer is exact when the station
        is an endpoint: ``distance(start)`` for a walk to the station, and
        for a walk from it ``distance(goal)``, or ``neighbor_estimate(goal)``
        for a goal that is not explored. For any other goal it is
        ``math.inf`` when the goal neither lies in the component nor borders
        it (no walk exists), and None otherwise (a walk exists, of unknown
        length). None also when the start lies outside the component, which
        covers a station not yet at distance 0, since only the station
        seeds finite distances. Both cells must be in bounds.
        """
        if self.distance(start) == math.inf:
            return None
        station = self.grid.station
        if goal == station:
            return self.distance(start)
        if self.grid.state(goal) is CellState.EXPLORED:
            walk = self.distance(goal)
        else:
            walk = self.neighbor_estimate(goal)
        if start == station or walk == math.inf:
            return walk
        return None

    def neighbor_estimate(self, cell: Cell) -> float:
        """Upper bound on the retreat length from a not-yet-explored cell."""
        grid = self.grid
        flat, dist = grid.flat, self._dist
        i = grid.index(cell)
        best = 0.0 if cell == grid.station else math.inf
        for off, w in grid.steps:
            j = i + off
            if flat[j] == _EXPLORED:
                d = dist[j] + w
                if d < best:  # as min(): a tie keeps the earlier value
                    best = d
        return best
