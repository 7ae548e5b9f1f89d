import heapq
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from epsplus.grid import CellGrid, CellState
from epsplus.mission import GRID_STRETCH
from epsplus.pathfind import (
    DistanceField,
    _cached_core,
    _line_offsets,
    _passability,
    astar,
    build_visibility_graph,
    explored_only,
    grid_astar,
    non_obstacle,
    obstacle_vertices,
    supercover_line,
)

from helpers import (
    dijkstra_on_graph,
    explored_grid,
    grid_dijkstra,
    los_clear,
    random_belief_grid,
    random_rect_obstacles,
    supercover_oracle,
)


# -- supercover ---------------------------------------------------------------

def test_supercover_axis_lines():
    assert supercover_line((0, 0), (3, 0)) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert supercover_line((2, 5), (2, 2)) == [(2, 5), (2, 4), (2, 3), (2, 2)]
    assert supercover_line((1, 1), (1, 1)) == [(1, 1)]


def test_supercover_diagonal_includes_corner_pairs():
    cells = supercover_line((0, 0), (2, 2))
    assert cells[0] == (0, 0) and cells[-1] == (2, 2)
    assert (1, 0) in cells and (0, 1) in cells


@given(st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12))
@settings(max_examples=200)
def test_supercover_matches_rational_oracle(ax, ay, bx, by):
    got = supercover_line((ax, ay), (bx, by))
    expected = supercover_oracle((ax, ay), (bx, by))
    assert set(got) == set(expected)
    assert got[0] == (ax, ay) and got[-1] == (bx, by)
    # consecutive cells stay 8-connected so the walk is executable
    for u, v in zip(got, got[1:]):
        assert max(abs(u[0] - v[0]), abs(u[1] - v[1])) == 1


def test_line_offsets_map_back_to_supercover_lines():
    grid = CellGrid(7, 4, (0, 0))  # stride 6, not width + 2
    assert list(_line_offsets(grid, 1, 1)) == [0, grid.stride, 1, grid.stride + 1]  # corner tie
    for dc in range(1 - grid.width, grid.width):
        for dr in range(1 - grid.height, grid.height):
            a = (max(0, -dc), max(0, -dr))
            b = (a[0] + dc, a[1] + dr)
            base = grid.index(a)
            cells = [grid.cell_at(base + o) for o in _line_offsets(grid, dc, dr)]
            assert cells == supercover_line(a, b), (dc, dr)
            # callers walk a line from its lower endpoint: the same cells
            assert set(supercover_line(b, a)) == set(cells), (dc, dr)


# -- line of sight -------------------------------------------------------------

def test_los_same_cell():
    grid = explored_grid(4, 4, set(), (0, 0))
    assert los_clear(grid, (2, 2), (2, 2), explored_only)


def test_los_blocked_by_obstacle():
    grid = explored_grid(5, 3, {(2, 1)}, (0, 0))
    assert not los_clear(grid, (0, 1), (4, 1), explored_only)
    assert los_clear(grid, (0, 0), (4, 0), explored_only)


def test_los_corner_graze_blocked():
    # two diagonal obstacles pinch the corner the segment passes through
    grid = explored_grid(4, 4, {(1, 2), (2, 1)}, (0, 0))
    assert not los_clear(grid, (1, 1), (2, 2), explored_only)
    oracle_cells = supercover_oracle((1, 1), (2, 2))
    assert (1, 2) in oracle_cells and (2, 1) in oracle_cells


def test_los_unknown_blocks_explored_predicate_only():
    grid = CellGrid(4, 1, (0, 0))
    for c in range(4):
        if c != 2:
            grid.mark_traversed((c, 0))
    assert not los_clear(grid, (0, 0), (3, 0), explored_only)
    assert los_clear(grid, (0, 0), (3, 0), non_obstacle)


# -- visibility graph -----------------------------------------------------------

def test_visibility_free_space_direct_edge():
    grid = explored_grid(6, 6, set(), (0, 0))
    g = build_visibility_graph(grid, (0, 0), (5, 5), explored_only)
    assert g.nodes == [(0, 0), (5, 5)]
    weights = dict(g.adjacency[(0, 0)])
    assert weights[(5, 5)] == pytest.approx(math.hypot(5, 5))


def test_visibility_routes_around_rectangle():
    obstacles = {(c, r) for c in range(2, 5) for r in range(2, 4)}
    grid = explored_grid(7, 6, obstacles, (0, 0))
    g = build_visibility_graph(grid, (0, 2), (6, 3), explored_only)
    assert (6, 3) not in dict(g.adjacency[(0, 2)])
    for u in g.nodes:
        for v, w in g.adjacency[u]:
            assert set(supercover_oracle(u, v)) & obstacles == set()
            assert w == pytest.approx(math.hypot(v[0] - u[0], v[1] - u[1]))
    path = astar(g, (0, 2), (6, 3))
    assert path is not None
    corners = set(obstacle_vertices(grid, explored_only))
    assert set(path.cells[1:-1]) <= corners


def test_visibility_goal_equals_start():
    grid = explored_grid(4, 4, set(), (0, 0))
    g = build_visibility_graph(grid, (1, 1), (1, 1), explored_only)
    path = astar(g, (1, 1), (1, 1))
    assert path.cells == [(1, 1)] and path.length == 0.0


def test_unexplored_goal_is_admitted():
    grid = CellGrid(3, 1, (0, 0))
    grid.mark_traversed((0, 0))
    grid.mark_traversed((1, 0))
    g = build_visibility_graph(grid, (0, 0), (2, 0), explored_only)
    path = astar(g, (0, 0), (2, 0))
    assert path is not None and path.length == pytest.approx(2.0)


# -- A* ---------------------------------------------------------------------

def test_astar_direct_edge():
    grid = explored_grid(9, 2, set(), (0, 0))
    g = build_visibility_graph(grid, (0, 0), (8, 0), explored_only)
    path = astar(g, (0, 0), (8, 0))
    assert path.cells == [(0, 0), (8, 0)]
    assert path.length == pytest.approx(8.0)


def test_astar_prefers_cheaper_total():
    # direct edge of 10 beats a 6+5 two-hop route
    class FakeGraph:
        def __init__(self):
            self.nodes = ["s", "m", "g"]
            self.adjacency = {
                (0, 0): [((1, 0), 10.0), ((5, 5), 6.0)],
                (5, 5): [((0, 0), 6.0), ((1, 0), 5.0)],
                (1, 0): [((0, 0), 10.0), ((5, 5), 5.0)],
            }

    path = astar(FakeGraph(), (0, 0), (1, 0))
    assert path.cells == [(0, 0), (1, 0)]


def test_astar_matches_dijkstra_on_random_graphs():
    rng = random.Random(5)
    for _ in range(40):
        w, h = rng.randint(8, 16), rng.randint(8, 16)
        station = (0, 0)
        obstacles = random_rect_obstacles(rng, w, h, station, rng.uniform(0.05, 0.25))
        grid = explored_grid(w, h, obstacles, station)
        free = sorted(c for c in grid.cells() if grid.state(c) is CellState.EXPLORED)
        start, goal = rng.sample(free, 2)
        g = build_visibility_graph(grid, start, goal, explored_only)
        mine = astar(g, start, goal)
        oracle = dijkstra_on_graph(g, start, goal)
        if mine is None:
            assert oracle is None
        else:
            assert mine.length == oracle


def test_path_symmetry():
    obstacles = {(c, r) for c in range(3, 6) for r in range(2, 5)}
    grid = explored_grid(9, 8, obstacles, (0, 0))
    a, b = (0, 0), (8, 7)
    g1 = build_visibility_graph(grid, a, b, explored_only)
    g2 = build_visibility_graph(grid, b, a, explored_only)
    assert astar(g1, a, b).length == pytest.approx(astar(g2, b, a).length, abs=1e-12)


def test_visibility_length_bounded_by_grid_path():
    rng = random.Random(11)
    for _ in range(30):
        w, h = rng.randint(8, 18), rng.randint(8, 18)
        obstacles = random_rect_obstacles(rng, w, h, (0, 0), rng.uniform(0.05, 0.3))
        grid = explored_grid(w, h, obstacles, (0, 0))
        free = sorted(c for c in grid.cells() if grid.state(c) is CellState.EXPLORED)
        start, goal = rng.sample(free, 2)
        lengths = grid_dijkstra(grid, start, explored_only, cut_corners=False)
        if goal not in lengths:
            continue
        g = build_visibility_graph(grid, start, goal, explored_only)
        path = astar(g, start, goal)
        assert path is not None
        assert path.length <= lengths[goal] + 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_grid_walk_stretches_a_sight_path_by_at_most_the_octile_bound(seed):
    # the 8-connected bound sqrt(4 - 2*sqrt(2)) of an octile walk along one
    # sight line; the mission's advance floor divides by a float above it
    assert math.sqrt(4.0 - 2.0 * math.sqrt(2.0)) < GRID_STRETCH
    rng = random.Random(seed)
    grid = random_belief_grid(rng, rng.randint(4, 14), rng.randint(4, 14))
    cells = list(grid.cells())
    for pred in (explored_only, non_obstacle):
        passing = [c for c in cells if pred(grid.state(c))]
        for _ in range(4):
            start, goal = rng.choice(passing), rng.choice(cells)
            sight = astar(build_visibility_graph(grid, start, goal, pred), start, goal)
            if sight is not None:
                walk = grid_astar(grid, start, goal, pred)
                assert walk.length <= GRID_STRETCH * sight.length, (start, goal, walk, sight)


@given(
    st.integers(0, 35),
    st.lists(st.tuples(st.sampled_from(["sense", "traverse"]), st.integers(0, 35)), max_size=40),
)
@settings(deadline=None)
def test_non_obstacle_walk_never_shortens_under_sensor_updates(goal_raw, ops):
    # obstacles only appear, so a walk that avoids them only gets longer,
    # whatever happens to the goal (it is admitted in any state)
    grid = CellGrid(6, 6, (0, 0))
    start, goal = grid.station, (goal_raw % 6, goal_raw // 6)
    last = 0.0
    for kind, raw in ops:
        cell = (raw % 6, raw // 6)
        if kind == "sense":
            if grid.state(cell) is CellState.UNEXPLORED and cell != start:
                grid.apply_sensor_update({cell})
        elif grid.state(cell) is not CellState.OBSTACLE:
            grid.mark_traversed(cell)
        walk = grid_astar(grid, start, goal, non_obstacle)
        length = math.inf if walk is None else walk.length
        assert length >= last, (goal, ops)
        last = length


# -- grid search & distance field ------------------------------------------------

def test_grid_astar_squeeze_control():
    # a diagonal squeeze between two obstacles is allowed as motion
    obstacles = {(1, 2), (2, 1)}
    grid = explored_grid(4, 4, obstacles, (0, 0))
    squeezing = grid_astar(grid, (1, 1), (2, 2), explored_only)
    assert squeezing.length == pytest.approx(math.sqrt(2))


def test_distance_field_matches_dijkstra_after_growth():
    rng = random.Random(3)
    for _ in range(15):
        w, h = rng.randint(6, 12), rng.randint(6, 12)
        station = (0, 0)
        obstacles = random_rect_obstacles(rng, w, h, station, 0.15)
        grid = CellGrid(w, h, station)
        if obstacles:
            grid.apply_sensor_update(obstacles)
        field = DistanceField(grid)
        grid.mark_traversed(station)
        field.insert(station)
        # grow the explored region cell by cell, connected to the station
        frontier = [c for c in grid.neighbors8(station) if grid.state(c) is not CellState.OBSTACLE]
        seen = {station}
        while frontier:
            cell = frontier.pop(rng.randrange(len(frontier)))
            if cell in seen:
                continue
            seen.add(cell)
            grid.mark_traversed(cell)
            field.insert(cell)
            for n in grid.neighbors8(cell):
                if n not in seen and grid.state(n) is not CellState.OBSTACLE:
                    frontier.append(n)
        oracle = grid_dijkstra(grid, station, explored_only, cut_corners=True)
        for cell in grid.cells():
            if grid.state(cell) is CellState.EXPLORED:
                assert field.distance(cell) == pytest.approx(oracle[cell], abs=1e-9)


@given(
    st.lists(
        st.tuples(st.sampled_from(["sense", "traverse"]), st.integers(0, 24)),
        max_size=30,
    )
)
@settings(deadline=None)
def test_distance_field_predicts_explored_only_misses(ops):
    grid = CellGrid(5, 5, (0, 0))
    field = DistanceField(grid)
    grid.mark_traversed(grid.station)
    field.insert(grid.station)
    for kind, raw in ops:
        cell = (raw % 5, raw // 5)
        if kind == "sense":
            if grid.state(cell) is CellState.UNEXPLORED and cell != grid.station:
                grid.apply_sensor_update({cell})
        elif grid.state(cell) is not CellState.OBSTACLE:
            grid.mark_traversed(cell)
            field.insert(cell)
        explored = [c for c in grid.cells() if grid.state(c) is CellState.EXPLORED]
        inside = [c for c in explored if field.distance(c) < math.inf]
        outside = [c for c in explored if field.distance(c) == math.inf]
        starts = {grid.station, inside[raw % len(inside)]}
        if outside:
            starts.add(outside[raw % len(outside)])
        for start in starts:
            for goal in grid.cells():
                rule = field.explored_walk(start, goal) == math.inf
                if start in outside:
                    assert not rule, (start, goal)  # the field cannot tell there
                else:
                    assert rule == (grid_astar(grid, start, goal, explored_only) is None), (start, goal)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_explored_walk_is_exact_for_station_queries(seed):
    # explored cells are marked and inserted one at a time in random order,
    # the station among them on four grids in five; every query with the
    # station as an endpoint is checked against grid A*
    rng = random.Random(seed)
    w, h = rng.randint(2, 10), rng.randint(2, 10)
    station = (rng.randrange(w), rng.randrange(h))
    grid = CellGrid(w, h, station)
    obstacles = random_rect_obstacles(rng, w, h, station, rng.uniform(0.0, 0.35))
    if obstacles:
        grid.apply_sensor_update(obstacles)
    share = rng.uniform(0.3, 1.0)
    explored = [c for c in grid.cells() if c not in obstacles and c != station and rng.random() < share]
    if rng.random() < 0.8:
        explored.append(station)
    rng.shuffle(explored)
    field = DistanceField(grid)
    for cell in explored:
        grid.mark_traversed(cell)
        field.insert(cell)
    # the station's explored component, by the reference search
    component = grid_dijkstra(grid, station, explored_only) if station in explored else {}
    queries = [(start, station) for start in explored]
    if station in explored:
        queries += [(station, goal) for goal in grid.cells()]
    for start, goal in queries:
        walk = field.explored_walk(start, goal)
        if start not in component:  # also every query of an unexplored station
            assert walk is None, (start, goal)
            continue
        path = grid_astar(grid, start, goal, explored_only)
        expected = math.inf if path is None else path.length
        assert walk == pytest.approx(expected, rel=1e-9, abs=0.0), (start, goal)


# -- visibility-graph cache ------------------------------------------------------

def pairwise_visibility(grid, start, goal, traversable):
    """From-scratch reference build: sight-line checks over every node pair."""
    exempt = frozenset((start, goal))
    nodes = sorted({start, goal} | set(obstacle_vertices(grid, traversable)))
    edges = set()
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if los_clear(grid, u, v, traversable, exempt):
                w = math.hypot(v[0] - u[0], v[1] - u[1])
                edges.add((u, v, w))
                edges.add((v, u, w))
    return nodes, edges


def graph_edges(graph):
    edges = [(u, v, w) for u in graph.nodes for v, w in graph.adjacency[u]]
    assert len(edges) == len(set(edges)), "duplicate edge"
    assert set(graph.adjacency) == set(graph.nodes)
    return set(edges)


QUERY_KINDS = ("any", "unexplored_goal", "vertex_goal", "failing_goal", "same")


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_visibility_cache_matches_pairwise_build(data):
    w = data.draw(st.integers(3, 9), label="width")
    h = data.draw(st.integers(3, 9), label="height")
    grid = CellGrid(w, h, (0, 0))
    grid.mark_traversed((0, 0))
    cells = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))

    def update(op):
        # a small block of cells, so one update can move several corners
        c0, r0 = data.draw(cells, label=op)
        size = data.draw(st.integers(1, 3), label="block")
        block = [(c, r) for c in range(c0, min(c0 + size, w)) for r in range(r0, min(r0 + size, h))]
        if op == "obstacle":
            grid.apply_sensor_update(
                c for c in block if c != grid.station and grid.state(c) is not CellState.EXPLORED
            )
        else:
            for c in block:
                if grid.state(c) is not CellState.OBSTACLE:
                    grid.mark_traversed(c)

    def query(pred):
        kind = data.draw(st.sampled_from(QUERY_KINDS), label="kind")
        passing = [c for c in grid.cells() if pred(grid.state(c))]  # the station always passes
        start = data.draw(st.sampled_from(passing), label="start")
        goal = data.draw(cells, label="goal")
        failing = [c for c in grid.cells() if not pred(grid.state(c))]
        if kind == "unexplored_goal":
            pool = [c for c in grid.cells() if grid.state(c) is CellState.UNEXPLORED]
        elif kind == "vertex_goal":
            pool = obstacle_vertices(grid, pred)
        elif kind == "failing_goal":
            pool = failing
        else:
            pool = []
        if pool:
            goal = data.draw(st.sampled_from(pool), label=f"{kind} goal")
        if kind == "same":
            goal = start
        graph = build_visibility_graph(grid, start, goal, pred)
        nodes, edges = pairwise_visibility(grid, start, goal, pred)
        assert graph.nodes == nodes
        assert graph_edges(graph) == edges

    # every update is followed by a query under each predicate, so a core
    # that an update should have invalidated is always asked for again
    for op in ["obstacle"] * data.draw(st.integers(1, 3), label="initial obstacles") + ["traverse"]:
        update(op)
    for _ in range(data.draw(st.integers(1, 10), label="rounds")):
        query(explored_only)
        query(non_obstacle)
        update(data.draw(st.sampled_from(("obstacle", "traverse")), label="update"))
    query(explored_only)
    query(non_obstacle)


def test_visibility_edges_through_a_failing_endpoint():
    # vertices around the single obstacle (3, 5): (2, 4)-(4, 4) is blocked
    # only by the unexplored goal (3, 4), (2, 4)-(4, 6) only by the obstacle
    grid = CellGrid(7, 7, (0, 0))
    grid.apply_sensor_update([(3, 5)])
    for c in grid.cells():
        if c not in ((3, 5), (3, 4)):
            grid.mark_traversed(c)
    for pred, goal, pair in (
        (explored_only, (3, 4), ((2, 4), (4, 4))),
        (non_obstacle, (3, 5), ((2, 4), (4, 6))),
    ):
        build_visibility_graph(grid, (0, 0), (6, 0), pred)  # caches the core
        graph = build_visibility_graph(grid, (0, 0), goal, pred)
        assert pair[1] in dict(graph.adjacency[pair[0]])
        assert graph_edges(graph) == pairwise_visibility(grid, (0, 0), goal, pred)[1]


def test_visibility_core_staleness_follows_state_counts():
    grid = CellGrid(8, 8, (0, 0))
    grid.apply_sensor_update([(3, 3), (3, 4)])
    for c in grid.cells():
        if grid.state(c) is CellState.UNEXPLORED and c not in ((6, 7), (0, 7)):
            grid.mark_traversed(c)
    before = {pred: _cached_core(grid, pred) for pred in (explored_only, non_obstacle)}
    grid.mark_traversed((6, 7))
    assert _cached_core(grid, non_obstacle) is before[non_obstacle]
    assert _cached_core(grid, explored_only) is not before[explored_only]
    before = {pred: _cached_core(grid, pred) for pred in (explored_only, non_obstacle)}
    grid.apply_sensor_update([(0, 7)])
    for pred, core in before.items():
        assert _cached_core(grid, pred) is not core


def test_visibility_cache_keeps_one_core_per_predicate():
    grid = explored_grid(8, 8, {(3, 3), (3, 4)}, (0, 0))
    for _ in range(3):
        build_visibility_graph(grid, (0, 0), (7, 7), explored_only)
        build_visibility_graph(grid, (0, 0), (7, 7), lambda s: s is CellState.EXPLORED)
        build_visibility_graph(grid, (0, 0), (7, 7), non_obstacle)
    assert len(grid._vis_cores) == 2


# -- flat-index walks against tuple references -------------------------------------

def reference_obstacle_vertices(grid, traversable):
    """Tuple-based scan of every cell: the vertex set the flat-index walk must find."""
    state = grid.state
    out = []
    for row in range(grid.height):
        for col in range(grid.width):
            if not traversable(state((col, row))):
                continue
            for dc, dr in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                d = (col + dc, row + dr)
                if not grid.in_bounds(d) or state(d) is not CellState.OBSTACLE:
                    continue
                if (
                    state((col + dc, row)) is not CellState.OBSTACLE
                    and state((col, row + dr)) is not CellState.OBSTACLE
                ):
                    out.append((col, row))
                    break
    return out


def test_flat_walks_match_tuple_references():
    rng = random.Random(41)
    for _ in range(60):
        w, h = rng.randint(1, 14), rng.randint(1, 14)
        grid = random_belief_grid(rng, w, h)
        for pred in (explored_only, non_obstacle):
            assert obstacle_vertices(grid, pred) == sorted(reference_obstacle_vertices(grid, pred))
            ok = _passability(grid, pred)
            passing = {c for c in grid.cells() if pred(grid.state(c))}
            assert {grid.cell_at(i) for i, b in enumerate(ok) if b} == passing


# -- grid A* ---------------------------------------------------------------------

def reference_grid_astar(grid, start, goal, traversable, extra):
    """Cell-tuple grid A*: the heap entries the mask-based search must reproduce."""

    def passable(c):
        return grid.in_bounds(c) and (traversable(grid.state(c)) or c in extra)

    def h(c):
        return math.hypot(goal[0] - c[0], goal[1] - c[1])

    if not (passable(start) and passable(goal)):
        return None
    g = {start: 0.0}
    parent = {start: None}
    heap = [(h(start), start)]
    closed = set()
    while heap:
        _, u = heapq.heappop(heap)
        if u in closed:
            continue
        closed.add(u)
        if u == goal:
            cells = [goal]
            while parent[cells[-1]] is not None:
                cells.append(parent[cells[-1]])
            return cells[::-1]
        for dc, dr in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
            v = (u[0] + dc, u[1] + dr)
            if not passable(v) or v in closed:
                continue
            ng = g[u] + (math.sqrt(2.0) if dc and dr else 1.0)
            if ng < g.get(v, math.inf):
                g[v] = ng
                parent[v] = u
                heapq.heappush(heap, (ng + h(v), v))
    return None


def test_grid_astar_matches_dijkstra_with_unexplored_goal():
    rng = random.Random(23)
    found = missed = 0
    for _ in range(60):
        grid = random_belief_grid(rng, rng.randint(5, 16), rng.randint(5, 16))
        explored = [c for c in grid.cells() if grid.state(c) is CellState.EXPLORED]
        unexplored = [c for c in grid.cells() if grid.state(c) is CellState.UNEXPLORED]
        start = rng.choice(explored)
        goal = rng.choice(unexplored) if unexplored else rng.choice(explored)
        extra = frozenset((goal,))  # the references admit the goal explicitly
        for pred in (explored_only, non_obstacle):
            path = grid_astar(grid, start, goal, pred)
            dist = grid_dijkstra(grid, start, pred, extra=extra)
            ref = reference_grid_astar(grid, start, goal, pred, extra)
            if path is None:
                assert goal not in dist and ref is None
                missed += 1
                continue
            found += 1
            assert path.cells == ref
            assert path.length == pytest.approx(dist[goal], abs=1e-9)
            assert path.cells[0] == start and path.cells[-1] == goal
            for u, v in zip(path.cells, path.cells[1:]):
                assert max(abs(u[0] - v[0]), abs(u[1] - v[1])) == 1
                assert grid.in_bounds(v) and (pred(grid.state(v)) or v in extra)
    assert found and missed


# -- one planning contract ---------------------------------------------------------

def test_failing_start_raises():
    grid = CellGrid(4, 4, (0, 0))
    grid.mark_traversed((0, 0))
    grid.apply_sensor_update([(2, 2)])
    for start, pred in (((1, 1), explored_only), ((2, 2), non_obstacle), ((4, 0), non_obstacle)):
        with pytest.raises(ValueError):
            build_visibility_graph(grid, start, (0, 0), pred)
        with pytest.raises(ValueError):
            grid_astar(grid, start, (0, 0), pred)


def test_out_of_bounds_goal_has_no_path():
    # (0, h + 2) has the flat index of (1, 0), an unexplored cell on the
    # sight lines from the station to the vertices around the obstacle
    w, h = 6, 4
    grid = CellGrid(w, h, (0, 0))
    grid.apply_sensor_update([(3, 2)])
    for c in grid.cells():
        if c not in ((3, 2), (1, 0)):
            grid.mark_traversed(c)
    start = (0, 0)
    for goal in ((-1, 0), (w, 0), (0, h + 2)):
        for pred in (explored_only, non_obstacle):
            assert grid_astar(grid, start, goal, pred) is None
            graph = build_visibility_graph(grid, start, goal, pred)
            assert astar(graph, start, goal) is None
            nodes, edges = pairwise_visibility(grid, start, start, pred)
            assert graph.nodes == sorted(nodes + [goal])
            assert graph_edges(graph) == edges
