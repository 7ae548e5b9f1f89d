"""Shared test oracles and map builders, independent of the library internals.

The ``dict_*`` kernels are the tuple- and dict-based forms of grid A*, the
distance field and the waypoint step that the flat-int kernels in
``epsplus`` replaced: the same expressions on the same operands in the same
order, kept as references that the library must match bit for bit.
``reference_render_svg`` and ``reference_parse_map_text`` are the per-row
SVG writer and the per-character map parser, kept the same way for
``render_svg`` and ``parse_map_text``.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction

from epsplus.config import MissionConfig
from epsplus.errors import MapFormatError
from epsplus.grid import NEIGHBORS_8, CellGrid, CellState, ParsedMap
from epsplus.pathfind import PathResult, explored_only, path_length, supercover_line
from epsplus.planner import restart_point
from epsplus.render import COLORS, MARGIN, OBSTACLE_FILL, SCALE, STATION_FILL, _fmt
from epsplus.sim import GroundTruth


def b_field(grid, cell):
    """Static potential of the cell's column: ``width - col`` (see ``grid``)."""
    return grid.width - cell[0]


def block_potential(hierarchy, key):
    """A 2x2 block's potential: its share of unexplored cells (see ``hierarchy``)."""
    return hierarchy.unexplored_count.get(key, 0) / hierarchy.block_shapes()[key][2]


def block_center(hierarchy, key):
    """A 2x2 block's extent center in cell units."""
    cx, cy, _ = hierarchy.block_shapes()[key]
    return cx, cy


def grid_cells(grid):
    """Every cell of the grid, row by row."""
    for row in range(grid.height):
        for col in range(grid.width):
            yield (col, row)


def neighbors8(grid, cell):
    """The cell's in-bounds 8-neighbours, in ``NEIGHBORS_8`` order."""
    col, row = cell
    return [(col + dc, row + dr) for dc, dr in NEIGHBORS_8 if grid.in_bounds((col + dc, row + dr))]


def flood_reachable(width, height, obstacles, station):
    """Free cells 8-connected to the station (frontier-set expansion oracle)."""
    if station in obstacles:
        return set()
    reached = {station}
    frontier = {station}
    while frontier:
        nxt = set()
        for c, r in frontier:
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    n = (c + dc, r + dr)
                    if n in reached or n in obstacles:
                        continue
                    if 0 <= n[0] < width and 0 <= n[1] < height:
                        nxt.add(n)
        reached |= nxt
        frontier = nxt
    return reached


def reachable_cells(grid):
    """The grid's reachable-unexplored mask (``reachable_unexplored()``) as a set of cells."""
    mask = grid.reachable_unexplored()
    return {grid.cell_at(i) for i, bit in enumerate(mask) if bit}


def ring_components(free):
    """Number of 8-connected components among the free cells of a 3x3 ring.

    ``free`` holds (dc, dr) offsets from the ring's center; two ring cells
    are connected when they are 8-adjacent, whatever the center holds.
    """
    left = set(free)
    components = 0
    while left:
        components += 1
        stack = [left.pop()]
        while stack:
            a = stack.pop()
            touching = {b for b in left if max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1}
            left -= touching
            stack.extend(touching)
    return components


def los_clear(grid, a, b, rule, exempt=frozenset()):
    """Tuple reference sight line: every cell the segment a->b touches passes
    the rule (a pass table) or is in ``exempt`` (an end of the line that may fail: a goal)."""
    state = grid.state
    return all(rule[state(c)] or c in exempt for c in supercover_line(a, b))


def full_sense(gt, range_m, pose):
    """A full reading: ``GroundTruth.sense`` with a fresh target mask of the range."""
    return gt.sense(gt.targets(range_m), pose)


def reference_sense(gt, range_m, pose):
    """Per-ray reference sonar: for every offset of the unclipped disk, the
    in-bounds obstacle target is detected unless an obstacle lies on a
    ``supercover_line`` cell strictly between the pose and the target."""
    r_int = int(math.floor(range_m))
    limit = range_m * range_m + 1e-12
    detected = set()
    for dr in range(-r_int, r_int + 1):
        for dc in range(-r_int, r_int + 1):
            if not (dc or dr) or dc * dc + dr * dr > limit:
                continue
            target = (pose[0] + dc, pose[1] + dr)
            if not (0 <= target[0] < gt.width and 0 <= target[1] < gt.height):
                continue
            if not gt.is_obstacle(target):
                continue
            blocked = False
            for cell in supercover_line(pose, target):
                if cell == target:
                    break
                if cell != pose and gt.is_obstacle(cell):
                    blocked = True
                    break
            if not blocked:
                detected.add(target)
    return frozenset(detected)


def supercover_oracle(a, b):
    """Cells touched by the segment between cell centers, via exact rational
    boundary-crossing times (both cells are added at exact corner crossings)."""
    ax, ay = Fraction(2 * a[0] + 1, 2), Fraction(2 * a[1] + 1, 2)
    bx, by = Fraction(2 * b[0] + 1, 2), Fraction(2 * b[1] + 1, 2)
    dx, dy = bx - ax, by - ay
    events = []  # (t, axis)
    if dx != 0:
        step = 1 if dx > 0 else -1
        x = a[0] + (1 if step > 0 else 0)
        while (x <= b[0] if step > 0 else x >= b[0] + 1):
            events.append(((Fraction(x) - ax) / dx, "x"))
            x += step
    if dy != 0:
        step = 1 if dy > 0 else -1
        y = a[1] + (1 if step > 0 else 0)
        while (y <= b[1] if step > 0 else y >= b[1] + 1):
            events.append(((Fraction(y) - ay) / dy, "y"))
            y += step
    events.sort(key=lambda e: e[0])
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    cells = [a]
    cur = a
    i = 0
    while i < len(events):
        t = events[i][0]
        group = []
        while i < len(events) and events[i][0] == t:
            group.append(events[i][1])
            i += 1
        if len(group) == 2:
            # exact corner crossing: both flanking cells, then the diagonal cell
            cells.append((cur[0] + sx, cur[1]))
            cells.append((cur[0], cur[1] + sy))
            cur = (cur[0] + sx, cur[1] + sy)
        elif group[0] == "x":
            cur = (cur[0] + sx, cur[1])
        else:
            cur = (cur[0], cur[1] + sy)
        cells.append(cur)
    return cells


def reference_supercover_line(a, b):
    """``supercover_line`` as two mirrored branches, one per major axis.

    Cells come in the library's order, including the two cells at a lattice
    corner, which a set comparison with ``supercover_oracle`` cannot check.
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


def dijkstra_on_graph(graph, start, goal):
    """Plain Dijkstra over a VisibilityGraph; returns the path length or None."""
    dist = {start: 0.0}
    parent = {start: None}
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in graph.adjacency[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    if goal not in dist:
        return None
    cells = [goal]
    while parent[cells[-1]] is not None:
        cells.append(parent[cells[-1]])
    cells.reverse()
    return math.fsum(math.dist(cells[i], cells[i + 1]) for i in range(len(cells) - 1))


def grid_dijkstra(grid, source, rule, extra=frozenset(), cut_corners=True):
    """Reference shortest 8-connected walk lengths from the source to every
    cell that passes the rule (a pass table) or is in ``extra``; a diagonal
    step past a blocked flank is taken only when ``cut_corners`` is set."""

    def passable(c):
        return grid.in_bounds(c) and (rule[grid.state(c)] or c in extra)

    if not passable(source):
        return {}
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, (col, row) = heapq.heappop(heap)
        if d > dist[(col, row)]:
            continue
        for dc, dr in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
            v = (col + dc, row + dr)
            if not passable(v):
                continue
            if dc and dr and not cut_corners:
                if not (passable((col + dc, row)) and passable((col, row + dr))):
                    continue
            nd = d + (math.sqrt(2.0) if dc and dr else 1.0)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def potential_level0(grid, cell):
    """Reference potential of a finest-level cell: -1 obstacle, 0 explored,
    the column's static field value when unexplored."""
    st = grid.state(cell)
    if st is CellState.OBSTACLE:
        return -1.0
    if st is CellState.EXPLORED:
        return 0.0
    return float(b_field(grid, cell))


def default_level_count(width, height):
    """Levels of the full multiscale hierarchy: coarsen until one top block."""
    return max(1, math.ceil(math.log2(max(width, height))))


def reference_coarse_select(grid, origin, excluded, levels):
    """Reference K-level coarse selection with brute-force block counts.

    Level k tiles the grid into blocks of 2**k cells a side (clipped at the
    border). The levels are climbed from 1 to ``levels``; on each, blocks of
    positive potential (unexplored share) are ranked by (-potential, squared
    center distance to the origin, (ci, cj)), and the first block holding an
    unexplored cell that is reachable from the station and not excluded gives
    its nearest such cell (ties: lowest (col, row)). None when no level does.
    """
    w, h = grid.width, grid.height
    cells = [(c, r) for c in range(w) for r in range(h)]
    unexplored = {c for c in cells if grid.state(c) is CellState.UNEXPLORED}
    obstacles = {c for c in cells if grid.state(c) is CellState.OBSTACLE}
    selectable = (unexplored & flood_reachable(w, h, obstacles, grid.station)) - set(excluded)
    ox, oy = origin
    for k in range(1, levels + 1):
        side = 1 << k
        ranked = []
        for cj in range(-(-h // side)):
            for ci in range(-(-w // side)):
                c0, r0 = ci * side, cj * side
                c1, r1 = min(c0 + side, w), min(r0 + side, h)
                inside = [(c, r) for r in range(r0, r1) for c in range(c0, c1)]
                p = sum(c in unexplored for c in inside) / len(inside)
                if p > 0:
                    d2 = ((c0 + c1 - 1) / 2 - ox) ** 2 + ((r0 + r1 - 1) / 2 - oy) ** 2
                    ranked.append(((-p, d2, (ci, cj)), inside))
        ranked.sort(key=lambda entry: entry[0])
        for _, inside in ranked:
            found = [c for c in inside if c in selectable]
            if found:
                return min(found, key=lambda c: ((c[0] - ox) ** 2 + (c[1] - oy) ** 2, c))
    return None


def reference_next_waypoint(grid, current, excluded, levels):
    """Reference waypoint: the best unexplored, non-excluded 8-neighbor by
    (-static field, step length, (col, row)), else the coarse selection."""
    near = [
        n for n in neighbors8(grid, current)
        if grid.state(n) is CellState.UNEXPLORED and n not in excluded
    ]
    if near:
        return min(near, key=lambda n: (-b_field(grid, n), math.dist(current, n), n))
    return reference_coarse_select(grid, current, excluded, levels)


def random_rect_obstacles(rng, width, height, station, density):
    """Random axis-aligned rectangles up to roughly the requested obstacle density."""
    target = int(density * width * height)
    obstacles = set()
    for _ in range(60):
        if len(obstacles) >= target:
            break
        w = rng.randint(1, max(1, width // 4))
        h = rng.randint(1, max(1, height // 4))
        c0 = rng.randrange(width - w + 1)
        r0 = rng.randrange(height - h + 1)
        rect = {(c, r) for c in range(c0, c0 + w) for r in range(r0, r0 + h)}
        if station in rect:
            continue
        obstacles |= rect
    return obstacles


def map_text(width, height, obstacles, station):
    lines = []
    for r in range(height - 1, -1, -1):
        row = []
        for c in range(width):
            if (c, r) in obstacles:
                row.append("#")
            elif (c, r) == station:
                row.append("C")
            else:
                row.append(".")
        lines.append("".join(row))
    return "\n".join(lines) + "\n"


def explored_grid(width, height, obstacles, station):
    """Belief grid with every free cell explored (obstacles all discovered)."""
    grid = CellGrid(width, height, station)
    if obstacles:
        grid.apply_sensor_update(obstacles)
    for r in range(height):
        for c in range(width):
            if (c, r) not in obstacles:
                grid.mark_traversed((c, r))
    return grid


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


def random_belief_grid(rng, w, h):
    """Belief grid with random obstacles and a random mix of explored cells."""
    grid = CellGrid(w, h, (0, 0))
    obstacles = random_rect_obstacles(rng, w, h, (0, 0), rng.uniform(0.05, 0.35))
    if obstacles:
        grid.apply_sensor_update(obstacles)
    explored_share = rng.uniform(0.3, 1.0)
    for c in grid_cells(grid):
        if c not in obstacles and (c == (0, 0) or rng.random() < explored_share):
            grid.mark_traversed(c)
    return grid


def dict_grid_astar(grid, start, goal, rule):
    """Grid A* keeping ``g`` and ``parent`` in dicts and turning every relaxed
    flat index back into a cell for its heuristic; ``grid_astar``'s contract."""
    if not (grid.in_bounds(start) and rule[grid.state(start)]):
        raise ValueError(f"start {start} must be an in-bounds cell that passes the rule")
    if not grid.in_bounds(goal):
        return None
    ok = grid.flat.translate(rule)
    s_idx = grid.index(start)
    g_idx = grid.index(goal)
    ok[g_idx] = 1
    if start == goal:
        return PathResult([start], 0.0)
    gc, gr = goal
    g = {s_idx: 0.0}
    parent = {s_idx: -1}
    heap = [(math.dist(start, goal), s_idx)]
    closed = bytearray(len(ok))
    while heap:
        _, u = heapq.heappop(heap)
        if closed[u]:
            continue
        closed[u] = 1
        if u == g_idx:
            cells = []
            while u != -1:
                cells.append(grid.cell_at(u))
                u = parent[u]
            cells.reverse()
            return PathResult(cells, path_length(cells))
        gu = g[u]
        for off, w in grid.steps:
            v = u + off
            if not ok[v] or closed[v]:
                continue
            ng = gu + w
            if ng < g.get(v, math.inf):
                g[v] = ng
                parent[v] = u
                vc, vr = grid.cell_at(v)
                heapq.heappush(heap, (ng + math.hypot(gc - vc, gr - vr), v))
    return None


class DictDistanceField:
    """Distance field comparing states as ``CellState`` members and taking
    ``min()`` per neighbour; ``DistanceField``'s ``insert`` and
    ``neighbor_estimate``."""

    def __init__(self, grid):
        self.grid = grid
        self._dist = [math.inf] * len(grid.flat)

    def insert(self, cell):
        grid = self.grid
        dist = self._dist
        base = self.neighbor_estimate(cell)
        i = grid.index(cell)
        if base >= dist[i]:
            return
        dist[i] = base
        heap = [(base, i)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for off, w in grid.steps:
                v = u + off
                if grid.flat[v] != CellState.EXPLORED:
                    continue
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))

    def neighbor_estimate(self, cell):
        grid = self.grid
        i = grid.index(cell)
        best = 0.0 if cell == grid.station else math.inf
        for off, w in grid.steps:
            if grid.flat[i + off] == CellState.EXPLORED:
                best = min(best, self._dist[i + off] + w)
        return best


def dict_next_waypoint(grid, hierarchy, current, excluded=frozenset()):
    """Waypoint step keying every in-bounds unexplored, non-excluded neighbour
    by (-static field, step length, cell), else the library's coarse selection."""
    if grid.state(current) is CellState.OBSTACLE:
        raise ValueError(f"current cell {current} is an obstacle")
    best = None
    for n in neighbors8(grid, current):
        if grid.state(n) is not CellState.UNEXPLORED or n in excluded:
            continue
        key = (-b_field(grid, n), math.dist(current, n), n)
        if best is None or key < best:
            best = key
    if best is not None:
        return best[2]
    return restart_point(grid, hierarchy, current, excluded)


def reference_render_svg(parsed, rows):
    """``render_svg`` formatting every coordinate at each use: a log row's
    point through ``center()`` and two ``_fmt`` calls, an obstacle through four."""
    width_px = parsed.width * SCALE + 2 * MARGIN
    height_px = parsed.height * SCALE + 2 * MARGIN

    def center(col, row):
        return (
            MARGIN + (col + 0.5) * SCALE,
            MARGIN + (parsed.height - 1 - row + 0.5) * SCALE,
        )

    for _, _, col, row, _, _ in rows:
        if not (0 <= col < parsed.width and 0 <= row < parsed.height):
            raise ValueError(f"log cell ({col},{row}) outside {parsed.width}x{parsed.height} map")

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width_px)}"'
        f' height="{_fmt(height_px)}" viewBox="0 0 {_fmt(width_px)} {_fmt(height_px)}">',
        f'<rect x="0" y="0" width="{_fmt(width_px)}" height="{_fmt(height_px)}" fill="#ffffff"/>',
        f'<rect x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" width="{_fmt(parsed.width * SCALE)}"'
        f' height="{_fmt(parsed.height * SCALE)}" fill="none" stroke="#999999" stroke-width="1"/>',
    ]
    for col, row in sorted(parsed.obstacles):
        x = MARGIN + col * SCALE
        y = MARGIN + (parsed.height - 1 - row) * SCALE
        out.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(SCALE)}"'
            f' height="{_fmt(SCALE)}" fill="{OBSTACLE_FILL}"/>'
        )

    # consecutive rows of one segment kind form one polyline; each group is
    # anchored at the previous row's point so segments connect visually
    prev_point = None
    group_kind = None
    group_points = []

    def flush():
        if group_kind is not None and len(group_points) >= 2:
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in group_points)
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{COLORS[group_kind]}"'
                f' stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
            )

    last_group = None
    for ti, kind, col, row, _, _ in rows:
        point = center(col, row)
        if (ti, kind) != last_group:
            flush()
            group_points = [prev_point] if prev_point is not None else []
            group_kind = kind
            last_group = (ti, kind)
        group_points.append(point)
        prev_point = point
    flush()

    sx, sy = center(*parsed.station)
    out.append(
        f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="{_fmt(SCALE * 0.45)}"'
        f' fill="{STATION_FILL}" stroke="#806000" stroke-width="1"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def reference_parse_map_text(text):
    """``parse_map_text`` testing one character at a time."""
    lines = text.splitlines()
    filled = [n for n, line in enumerate(lines) if line.strip()]
    if not filled:
        raise MapFormatError("map file is empty")
    first = filled[0]
    rows = lines[first : filled[-1] + 1]
    width = len(rows[0])
    height = len(rows)
    obstacles = set()
    station = None
    for i, line in enumerate(rows):
        lineno = first + i + 1
        if not line.strip():
            raise MapFormatError(f"line {lineno} is blank inside the map")
        if len(line) != width:
            raise MapFormatError(
                f"line {lineno} has length {len(line)}, expected {width} (all rows must match)"
            )
        row = height - 1 - i
        for col, ch in enumerate(line):
            if ch == "#":
                obstacles.add((col, row))
            elif ch == "C":
                if station is not None:
                    raise MapFormatError(
                        f"multiple station cells: {station} and {(col, row)}"
                    )
                station = (col, row)
            elif ch != ".":
                raise MapFormatError(f"invalid character {ch!r} at line {lineno}, column {col + 1}")
    if station is None:
        raise MapFormatError("map has no station cell 'C'")
    return ParsedMap(width, height, frozenset(obstacles), station)
