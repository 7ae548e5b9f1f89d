import copy
import heapq
import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from epsplus.grid import BORDER, CellGrid, CellState
from epsplus.pathfind import (
    GRID_STRETCH,
    DistanceField,
    PathResult,
    _PAIR,
    _Core,
    _cached_core,
    _line_offsets,
    astar,
    build_visibility_graph,
    explored_only,
    grid_astar,
    non_obstacle,
    obstacle_vertices,
    supercover_line,
)

from helpers import (
    DictDistanceField,
    dict_grid_astar,
    dijkstra_on_graph,
    explored_grid,
    grid_cells,
    grid_dijkstra,
    los_clear,
    neighbors8,
    random_belief_grid,
    random_rect_obstacles,
    reference_supercover_line,
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
    assert got == reference_supercover_line((ax, ay), (bx, by))
    assert got[0] == (ax, ay) and got[-1] == (bx, by)
    # consecutive cells stay 8-connected so the walk is executable
    for u, v in zip(got, got[1:]):
        assert max(abs(u[0] - v[0]), abs(u[1] - v[1])) == 1


def test_supercover_order_matches_the_two_branch_reference():
    # the order, corner pairs included, decides which failing cell a core
    # pair watches and the order in which a polyline's cells are walked
    span = range(-6, 7)
    for a in product(span, span):
        for b in product(span, span):
            assert supercover_line(a, b) == reference_supercover_line(a, b), (a, b)


def test_line_offsets_map_back_to_supercover_lines():
    grid = CellGrid(7, 4, (0, 0))  # stride 6, not width + 2
    assert list(_line_offsets(grid.stride, 1, 1)) == [grid.stride, 1]  # corner tie
    for dc in range(1 - grid.width, grid.width):
        for dr in range(1 - grid.height, grid.height):
            a = (max(0, -dc), max(0, -dr))
            b = (a[0] + dc, a[1] + dr)
            base = grid.index(a)
            cells = [grid.cell_at(base + o) for o in _line_offsets(grid.stride, dc, dr)]
            assert cells == supercover_line(a, b)[1:-1], (dc, dr)
            # callers walk a line from its lower endpoint: the same cells
            assert set(supercover_line(b, a)[1:-1]) == set(cells), (dc, dr)


def test_one_sight_line_table_serves_grids_of_every_height():
    _line_offsets.cache_clear()
    short, tall = CellGrid(9, 3, (0, 0)), CellGrid(9, 8, (0, 0))  # strides 5 and 10
    deltas = [(4, 2), (1, 1), (8, -2), (0, 2), (3, -1)]
    first = {}
    for dc, dr in deltas:
        for grid in (short, tall):
            a = (0, max(0, -dr))
            base = grid.index(a)
            offsets = first[grid.stride, dc, dr] = _line_offsets(grid.stride, dc, dr)
            cells = [grid.cell_at(base + o) for o in offsets]
            assert cells == supercover_line(a, (dc, a[1] + dr))[1:-1], (grid.stride, dc, dr)
    assert _line_offsets.cache_info().currsize == len(first) == 2 * len(deltas)
    for (stride, dc, dr), offsets in first.items():  # a second read shares the entry
        assert _line_offsets(stride, dc, dr) is offsets, (stride, dc, dr)


def test_sight_line_table_never_holds_more_than_its_cap():
    _line_offsets.cache_clear()
    cap = _line_offsets.cache_info().maxsize
    stride = 103
    for n in range(cap + 150):  # distinct deltas, more of them than the cap
        dc, dr = divmod(n, 101)
        offsets = _line_offsets(stride, dc, dr - 50)
        assert _line_offsets.cache_info().currsize <= cap
    assert list(offsets) == [c * stride + r for c, r in supercover_line((0, 0), (dc, dr - 50))[1:-1]]


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
    for limit in (math.inf, 0.0):
        path = astar(g, (1, 1), (1, 1), limit)
        assert path.cells == [(1, 1)] and path.length == 0.0
    assert astar(g, (1, 1), (1, 1), -1.0) is None


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
        free = sorted(c for c in grid_cells(grid) if grid.state(c) is CellState.EXPLORED)
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
        free = sorted(c for c in grid_cells(grid) if grid.state(c) is CellState.EXPLORED)
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
    cells = list(grid_cells(grid))
    for pred in (explored_only, non_obstacle):
        passing = [c for c in cells if pred[grid.state(c)]]
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

def test_a_new_obstacle_can_shorten_a_non_obstacle_sight_path():
    # its corners become visibility-graph nodes, here (5, 3) between (5, 2)
    # and the new (4, 4); so a restart candidate rejected by its
    # non_obstacle plan is excluded only until the next obstacle is marked
    grid = CellGrid(9, 5, (0, 0))
    grid.mark_traversed((0, 0))
    grid.apply_sensor_update([(5, 2)])
    before = astar(build_visibility_graph(grid, (0, 0), (8, 3), non_obstacle), (0, 0), (8, 3))
    grid.apply_sensor_update([(4, 4)])
    after = astar(build_visibility_graph(grid, (0, 0), (8, 3), non_obstacle), (0, 0), (8, 3))
    assert after.cells == [(0, 0), (5, 3), (8, 3)] and after.length < before.length
    # the grid walk, which only gets longer, loses to both sight-line paths
    assert grid_astar(grid, (0, 0), (8, 3), non_obstacle).length > before.length


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
        frontier = [c for c in neighbors8(grid, station) if grid.state(c) is not CellState.OBSTACLE]
        seen = {station}
        while frontier:
            cell = frontier.pop(rng.randrange(len(frontier)))
            if cell in seen:
                continue
            seen.add(cell)
            grid.mark_traversed(cell)
            field.insert(cell)
            for n in neighbors8(grid, cell):
                if n not in seen and grid.state(n) is not CellState.OBSTACLE:
                    frontier.append(n)
        oracle = grid_dijkstra(grid, station, explored_only, cut_corners=True)
        for cell in grid_cells(grid):
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
        explored = [c for c in grid_cells(grid) if grid.state(c) is CellState.EXPLORED]
        inside = [c for c in explored if field.distance(c) < math.inf]
        outside = [c for c in explored if field.distance(c) == math.inf]
        starts = {grid.station, inside[raw % len(inside)]}
        if outside:
            starts.add(outside[raw % len(outside)])
        for start in starts:
            for goal in grid_cells(grid):
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
    explored = [c for c in grid_cells(grid) if c not in obstacles and c != station and rng.random() < share]
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
        queries += [(station, goal) for goal in grid_cells(grid)]
    for start, goal in queries:
        walk = field.explored_walk(start, goal)
        if start not in component:  # also every query of an unexplored station
            assert walk is None, (start, goal)
            continue
        path = grid_astar(grid, start, goal, explored_only)
        expected = math.inf if path is None else path.length
        assert walk == pytest.approx(expected, rel=1e-9, abs=0.0), (start, goal)


# -- visibility-graph cache ------------------------------------------------------

def core_nodes(grid, rule):
    """Obstacle vertices, plus the station when it passes the predicate."""
    nodes = set(obstacle_vertices(grid, rule))
    if rule[grid.state(grid.station)]:
        nodes.add(grid.station)
    return nodes


def pairwise_visibility(grid, start, goal, rule):
    """From-scratch reference build: sight-line checks over every node pair.

    A line exempts the start or goal only where it is one of its own ends."""
    ends = {start, goal}
    nodes = sorted(ends | core_nodes(grid, rule))
    edges = set()
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if los_clear(grid, u, v, rule, {u, v} & ends):
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
        passing = [c for c in grid_cells(grid) if pred[grid.state(c)]]  # the station always passes
        start = data.draw(st.sampled_from(passing), label="start")
        goal = data.draw(cells, label="goal")
        failing = [c for c in grid_cells(grid) if not pred[grid.state(c)]]
        if kind == "unexplored_goal":
            pool = [c for c in grid_cells(grid) if grid.state(c) is CellState.UNEXPLORED]
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


def test_a_goal_is_only_ever_an_end():
    # vertices around the single obstacle (3, 5): (2, 4)-(4, 4) is blocked
    # only by the unexplored goal (3, 4), (2, 4)-(4, 6) only by the obstacle
    # goal (3, 5). A failing goal ends the lines to it but lets none
    # through, between core nodes or from a start that is not one, (1, 4)
    # and (5, 4), whose lines to the far vertex cross (3, 4)
    grid = CellGrid(7, 7, (0, 0))
    grid.apply_sensor_update([(3, 5)])
    for c in grid_cells(grid):
        if c not in ((3, 5), (3, 4)):
            grid.mark_traversed(c)
    for pred, start, goal, pair in (
        (explored_only, (0, 0), (3, 4), ((2, 4), (4, 4))),
        (non_obstacle, (0, 0), (3, 5), ((2, 4), (4, 6))),
        (explored_only, (1, 4), (3, 4), ((1, 4), (4, 4))),
        (explored_only, (5, 4), (3, 4), ((5, 4), (2, 4))),
    ):
        build_visibility_graph(grid, (0, 0), (6, 0), pred)  # caches the core
        graph = build_visibility_graph(grid, start, goal, pred)
        adjacent = dict(graph.adjacency[pair[0]])
        assert pair[1] not in adjacent
        assert goal in adjacent  # the line that ends at the goal
        assert graph_edges(graph) == pairwise_visibility(grid, start, goal, pred)[1]


def core_contents(core, grid):
    """Nodes, edges and live watches of a core, as sets.

    A watch is live while both nodes of its pair are the ones its key names
    and the watched cell is still unexplored; it is held as (watched cell,
    node pair).
    """
    edges = [(u, v, w) for u, adjacent in core.adjacency.items() for v, w in adjacent]
    assert len(edges) == len(set(edges)), "duplicate edge"
    watches = []
    for j, keys in core.watch.items():
        for key in keys:
            s, t = divmod(key, _PAIR)
            (a, u), (b, v) = core.nodes[s], core.nodes[t]
            if core.serial.get(a) == s and core.serial.get(b) == t and grid.flat[j] == CellState.UNEXPLORED:
                watches.append((grid.cell_at(j), tuple(sorted((u, v)))))
    pairs = [pair for _, pair in watches]
    assert len(pairs) == len(set(pairs)), "pair watched twice"
    return {"nodes": set(core.adjacency), "edges": set(edges), "watches": set(watches)}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_synced_core_equals_a_fresh_build(data):
    # mission-shaped updates: a sensor batch around a pose, marked in sorted
    # order, or a single traversal; after each burst of one to four updates
    # (a mission plans after several), the core synced through them must hold
    # what a core built from empty on a copy of the grid holds
    w = data.draw(st.integers(3, 10), label="width")
    h = data.draw(st.integers(3, 10), label="height")
    cells = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    station = data.draw(cells, label="station")
    grid = CellGrid(w, h, station)
    if data.draw(st.booleans(), label="station explored"):
        grid.mark_traversed(station)
    last = [station]

    def update():
        # sensor batches around a pose, spread across the map (so the box
        # of the new failing cells that a non_obstacle sync tests covers
        # most of it) or of a single cell; else a traversal
        kind = data.draw(st.integers(0, 7), label="update")
        if kind < 3:
            if kind == 0:
                pc, pr = data.draw(cells, label="pose")
                span = [(c, r) for c in range(pc - 2, pc + 3) for r in range(pr - 2, pr + 3)]
            else:
                span = list(grid_cells(grid))
            free = [
                c for c in span
                if grid.in_bounds(c) and c != station and grid.state(c) is not CellState.EXPLORED
            ]
            if free:
                size = (0, 6) if kind < 2 else (1, 1)
                batch = st.lists(st.sampled_from(free), min_size=size[0], max_size=size[1])
                grid.apply_sensor_update(data.draw(batch, label="batch"))
        else:
            # mostly a step of the vehicle: an unexplored neighbour of the last cell
            unexplored = [c for c in neighbors8(grid, last[0]) if grid.state(c) is CellState.UNEXPLORED]
            if not unexplored or data.draw(st.integers(0, 3), label="jump") == 0:
                unexplored = [c for c in grid_cells(grid) if grid.state(c) is CellState.UNEXPLORED]
            if unexplored:
                last[0] = data.draw(st.sampled_from(unexplored), label="traversed")
                grid.mark_traversed(last[0])

    preds = (explored_only, non_obstacle)
    cores = {pred: _cached_core(grid, pred) for pred in preds}
    for _ in range(data.draw(st.integers(1, 25), label="rounds")):
        for _ in range(data.draw(st.integers(1, 4), label="burst")):
            update()
        for pred in preds:
            core = _cached_core(grid, pred)
            assert core is cores[pred]
            fresh = copy.deepcopy(grid)
            fresh._vis_cores.clear()
            contents = core_contents(core, grid)
            assert contents == core_contents(_Core(fresh, pred), fresh)
            assert contents["nodes"] == core_nodes(grid, pred)


def test_core_watches_the_next_blocker_when_the_watched_cell_flips():
    # (2, 1)-(6, 1) is blocked by three unexplored cells and watches the
    # first; it and the next turn explored before one sync, so (5, 1) is
    # its last blocker and must be watched, or the edge never appears
    grid = CellGrid(9, 3, (0, 0))
    grid.apply_sensor_update([(1, 2), (7, 2)])
    grid.mark_traversed((2, 1))
    grid.mark_traversed((6, 1))
    _cached_core(grid, explored_only)
    grid.mark_traversed((3, 1))
    grid.mark_traversed((4, 1))
    _cached_core(grid, explored_only)  # one sync sees both blockers flip
    grid.mark_traversed((5, 1))
    assert ((6, 1), 4.0) in _cached_core(grid, explored_only).adjacency[(2, 1)]


def test_a_blocked_pair_watches_only_its_first_failing_cell(monkeypatch):
    # the vertices (2, 1) and (6, 1) of the obstacles (1, 2) and (7, 2) are
    # the only nodes; the cells between them fail under explored_only
    def watched(grid, core):
        s, t = sorted(core.serial[grid.index(c)] for c in ((2, 1), (6, 1)))
        return [grid.cell_at(j) for j, keys in core.watch.items() for key in keys if key == s * _PAIR + t]

    def pair_grid(blockers):
        grid = CellGrid(9, 3, (0, 0))
        grid.apply_sensor_update([(1, 2), (7, 2)] + blockers)
        grid.mark_traversed((2, 1))
        grid.mark_traversed((6, 1))
        return grid

    grid = pair_grid([])
    core = _cached_core(grid, explored_only)
    assert watched(grid, core) == [(3, 1)]
    walks = []
    classify = _Core._classify

    def counted(self, *args):
        walks.append(args)
        classify(self, *args)

    monkeypatch.setattr(_Core, "_classify", counted)
    grid.mark_traversed((4, 1))  # a later failing cell of the pair
    _cached_core(grid, explored_only)
    assert walks == []
    assert watched(grid, core) == [(3, 1)]

    # an obstacle is the first failing cell: the pair is dead for good
    grid = pair_grid([(3, 1)])
    core = _cached_core(grid, explored_only)
    assert (2, 1) in core.adjacency and (6, 1) in core.adjacency
    assert watched(grid, core) == []


def test_paths_between_other_cells_may_bend_at_the_station():
    # only the two sight lines from the station (5, 0) are explored, so the
    # shortest explored-only path from (0, 2) to (10, 2) bends there
    grid = CellGrid(12, 8, (5, 0))
    for end in ((0, 2), (10, 2)):
        for c in supercover_line((5, 0), end):
            grid.mark_traversed(c)
    graph = build_visibility_graph(grid, (0, 2), (10, 2), explored_only)
    path = astar(graph, (0, 2), (10, 2))
    assert path is not None  # a station outside the graph leaves no sight-line path
    assert path.cells == [(0, 2), (5, 0), (10, 2)]
    assert path.length == 2 * math.sqrt(29)


def test_visibility_cache_keeps_one_core_per_predicate():
    grid = explored_grid(8, 8, {(3, 3), (3, 4)}, (0, 0))
    copy = bytes(bytearray(explored_only))  # bytes(b) of a bytes object is b itself
    assert copy is not explored_only and copy == explored_only
    for _ in range(3):
        build_visibility_graph(grid, (0, 0), (7, 7), explored_only)
        build_visibility_graph(grid, (0, 0), (7, 7), copy)
        build_visibility_graph(grid, (0, 0), (7, 7), non_obstacle)
    assert len(grid._vis_cores) == 2


# -- flat-index walks against tuple references -------------------------------------

def test_pass_tables_cross_only_their_states():
    # rule[state] is 1 for a state a path may cross, and 0 for every other
    # byte, so a translated grid reads 0 on its border
    assert [explored_only[s] for s in CellState] == [0, 1, 0]
    assert [non_obstacle[s] for s in CellState] == [1, 1, 0]
    for rule in (explored_only, non_obstacle):
        assert len(rule) == 256 and rule[BORDER] == 0
        assert not any(rule[len(CellState) :])
        grid = CellGrid(3, 2, (0, 0))
        ok = grid.flat.translate(rule)
        assert {i for i, b in enumerate(ok) if b} <= {grid.index(c) for c in grid_cells(grid)}


def reference_obstacle_vertices(grid, rule):
    """Tuple-based scan of every cell: the vertex set the flat-index walk must find."""
    state = grid.state
    out = []
    for row in range(grid.height):
        for col in range(grid.width):
            if not rule[state((col, row))]:
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
            ok = grid.flat.translate(pred)
            passing = {c for c in grid_cells(grid) if pred[grid.state(c)]}
            assert {grid.cell_at(i) for i, b in enumerate(ok) if b} == passing


# -- grid A* ---------------------------------------------------------------------

def reference_grid_astar(grid, start, goal, rule, extra):
    """Cell-tuple grid A*: the heap entries the mask-based search must reproduce."""

    def passable(c):
        return grid.in_bounds(c) and (rule[grid.state(c)] or c in extra)

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
        explored = [c for c in grid_cells(grid) if grid.state(c) is CellState.EXPLORED]
        unexplored = [c for c in grid_cells(grid) if grid.state(c) is CellState.UNEXPLORED]
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
                assert grid.in_bounds(v) and (pred[grid.state(v)] or v in extra)
    assert found and missed


class MasklessBytes(bytearray):
    """State bytes that refuse to be translated into a passability mask."""

    def translate(self, *args):
        raise AssertionError("passability mask built")


def test_grid_astar_answers_start_equals_goal_before_building_a_mask():
    grid = CellGrid(3, 3, (0, 0))
    grid.mark_traversed((0, 0))
    grid.flat = MasklessBytes(grid.flat)
    for pred in (explored_only, non_obstacle):
        assert grid_astar(grid, (0, 0), (0, 0), pred) == PathResult([(0, 0)], 0.0)


def cells_by_state(grid):
    out = {s: [] for s in CellState}
    for c in grid_cells(grid):
        out[grid.state(c)].append(c)
    return out


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_grid_astar_matches_its_dict_form(seed):
    # equal cells and bit-equal lengths for unexplored, explored, obstacle
    # and out-of-bounds goals, under both predicates
    rng = random.Random(seed)
    grid = random_belief_grid(rng, rng.randint(1, 14), rng.randint(1, 14))
    w, h = grid.width, grid.height
    by_state = cells_by_state(grid)
    goals = [rng.choice(cells) for cells in by_state.values() if cells]
    goals += [(-1, rng.randrange(h)), (w, rng.randrange(h)), (rng.randrange(w), -1), (0, h), (w + 3, h)]
    for pred in (explored_only, non_obstacle):
        starts = [c for c in grid_cells(grid) if pred[grid.state(c)]]
        for start in rng.sample(starts, min(3, len(starts))):
            for goal in goals + [start]:
                got = grid_astar(grid, start, goal, pred)
                ref = dict_grid_astar(grid, start, goal, pred)
                if ref is None:
                    assert got is None, (start, goal)
                else:
                    assert got.cells == ref.cells, (start, goal)
                    assert got.length.hex() == ref.length.hex(), (start, goal)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_distance_field_matches_its_dict_form(seed):
    # cells are explored or turn out to be obstacles in random order, the
    # station anywhere in it; every field value and estimate is bit-equal
    rng = random.Random(seed)
    w, h = rng.randint(1, 12), rng.randint(1, 12)
    grid = CellGrid(w, h, (rng.randrange(w), rng.randrange(h)))
    field, ref = DistanceField(grid), DictDistanceField(grid)
    order = list(grid_cells(grid))
    rng.shuffle(order)
    obstacle_share = rng.uniform(0.0, 0.4)
    for cell in order[: rng.randint(1, len(order))]:
        if cell != grid.station and rng.random() < obstacle_share:
            grid.apply_sensor_update([cell])
            continue
        grid.mark_traversed(cell)
        field.insert(cell)
        ref.insert(cell)
        assert [d.hex() for d in field._dist] == [d.hex() for d in ref._dist]
        for c in rng.sample(order, min(4, len(order))):
            assert field.neighbor_estimate(c).hex() == ref.neighbor_estimate(c).hex(), c
    for c in grid_cells(grid):
        assert field.neighbor_estimate(c).hex() == ref.neighbor_estimate(c).hex(), c


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


def test_astar_refuses_a_start_or_goal_that_is_not_a_graph_node():
    # free space: the graph holds only the start, the goal and the station
    grid = explored_grid(5, 5, set(), (0, 0))
    graph = build_visibility_graph(grid, (0, 0), (4, 4), explored_only)
    assert (1, 2) not in graph.adjacency
    for start, goal in (((1, 2), (4, 4)), ((0, 0), (1, 2))):
        with pytest.raises(ValueError, match="graph nodes"):
            astar(graph, start, goal)


def test_out_of_bounds_goal_has_no_path():
    # (0, h + 2) has the flat index of (1, 0), an unexplored cell on the
    # sight lines from the station to the vertices around the obstacle
    w, h = 6, 4
    grid = CellGrid(w, h, (0, 0))
    grid.apply_sensor_update([(3, 2)])
    for c in grid_cells(grid):
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


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_bounded_searches_return_the_unbounded_path_when_it_fits(seed):
    # limits below, exactly at and above the unbounded length: a path that
    # fits comes back with the same cells and a bit-equal length, any other
    # search finds nothing; the pruned graph only drops edges
    rng = random.Random(seed)
    grid = random_belief_grid(rng, rng.randint(1, 14), rng.randint(1, 14))
    cells = list(grid_cells(grid))
    for pred in (explored_only, non_obstacle):
        starts = [c for c in cells if pred[grid.state(c)]]
        for start in rng.sample(starts, min(3, len(starts))):
            goal = rng.choice(cells + [start])
            full_graph = build_visibility_graph(grid, start, goal, pred)
            full_edges = graph_edges(full_graph)
            for full, bounded in (
                (grid_astar(grid, start, goal, pred), lambda limit: grid_astar(grid, start, goal, pred, limit)),
                (astar(full_graph, start, goal), None),
            ):
                length = math.dist(start, goal) if full is None else full.length
                limits = [
                    -1.0, 0.0, length / 2, math.nextafter(length, 0.0), length,
                    math.nextafter(length, math.inf), length * 1.0000001, length + 1.0, math.inf,
                ]
                for limit in limits:
                    if bounded is None:
                        graph = build_visibility_graph(grid, start, goal, pred, limit)
                        assert graph_edges(graph) <= full_edges, limit
                        got = astar(graph, start, goal, limit)
                    else:
                        got = bounded(limit)
                    if full is not None and full.length <= limit:
                        assert got is not None, (start, goal, limit)
                        assert got.cells == full.cells, (start, goal, limit)
                        assert got.length.hex() == full.length.hex(), (start, goal, limit)
                    else:
                        assert got is None, (start, goal, limit)
