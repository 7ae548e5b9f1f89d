import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from epsplus.grid import CellGrid, CellState
from epsplus.hierarchy import MapsHierarchy
from epsplus.planner import next_waypoint, restart_candidates, restart_point

from helpers import (
    b_field,
    block_potential,
    default_level_count,
    dict_next_waypoint,
    grid_cells,
    neighbors8,
    reachable_cells,
    reference_coarse_select,
    reference_next_waypoint,
)


def hierarchy_for(grid):
    return MapsHierarchy(grid)


def chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def explore_all_but(grid, keep_unexplored, obstacles=()):
    h = MapsHierarchy(grid)
    if obstacles:
        grid.apply_sensor_update(set(obstacles))
        for c in obstacles:
            h.on_state_change(c)
    for cell in grid_cells(grid):
        if cell in keep_unexplored or grid.state(cell) is not CellState.UNEXPLORED:
            continue
        grid.mark_traversed(cell)
        h.on_state_change(cell)
    return h


def test_unique_positive_neighbor():
    grid = CellGrid(50, 50, (0, 0))
    h = explore_all_but(grid, {(4, 5)})
    wp = next_waypoint(grid, h, (5, 5))
    assert wp == (4, 5)
    assert chebyshev(wp, (5, 5)) == 1  # the neighbour step chose it


def test_neighbor_ties_prefer_cheaper_then_lex():
    grid = CellGrid(6, 6, (0, 0))
    # same column (same potential): straight beats diagonal
    h = explore_all_but(grid, {(3, 2), (3, 3), (3, 4)})
    wp = next_waypoint(grid, h, (2, 3))
    assert wp == (3, 3)
    # equal cost diagonals: lexicographic (col,row)
    grid2 = CellGrid(6, 6, (0, 0))
    h2 = explore_all_but(grid2, {(3, 2), (3, 4)})
    wp2 = next_waypoint(grid2, h2, (2, 3))
    assert wp2 == (3, 2)


def test_higher_field_wins_over_lower():
    grid = CellGrid(6, 6, (0, 0))
    # left neighbor has a larger static field value than the right one
    h = explore_all_but(grid, {(1, 3), (3, 3)})
    wp = next_waypoint(grid, h, (2, 3))
    assert wp == (1, 3)


def test_escape_to_distant_cell():
    grid = CellGrid(30, 10, (0, 0))
    h = explore_all_but(grid, {(20, 7)})
    current = (5, 5)
    wp = next_waypoint(grid, h, current)
    # oracle: exhaustive scan for the nearest unexplored cell
    candidates = [c for c in grid_cells(grid) if grid.state(c) is CellState.UNEXPLORED]
    assert candidates == [(20, 7)]
    assert wp == (20, 7)
    assert chebyshev(wp, current) != 1  # the coarse step chose it
    assert grid.state(wp) is CellState.UNEXPLORED


def test_done_when_nothing_unexplored():
    grid = CellGrid(8, 8, (0, 0))
    h = explore_all_but(grid, set())
    assert next_waypoint(grid, h, (3, 3)) is None
    assert restart_point(grid, h, (0, 0)) is None


def test_escape_skips_unreachable_pockets():
    grid = CellGrid(7, 7, (0, 0))
    ring = {(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (3, 4), (4, 4)}
    h = explore_all_but(grid, {(3, 3), (6, 6)}, obstacles=ring)
    wp = next_waypoint(grid, h, (0, 0))
    assert wp == (6, 6)  # the sealed (3,3) pocket is not a candidate
    assert next_waypoint(grid, h, (0, 0), excluded=frozenset({(6, 6)})) is None


def test_restart_unique_candidate():
    grid = CellGrid(40, 10, (0, 0))
    h = explore_all_but(grid, {(30, 2)})
    wp = restart_point(grid, h, (0, 0))
    assert wp == (30, 2)


def test_restart_prefers_higher_potential_cell():
    grid = CellGrid(8, 8, (0, 0))
    # 2x2 block (1,0) keeps 3 unexplored cells (0.75), block (3,3) one (0.25)
    h = explore_all_but(grid, {(2, 0), (3, 0), (2, 1), (7, 7)})
    potentials = {
        (ci, cj): block_potential(h, grid.index((2 * ci, 2 * cj)))
        for cj in range(4)
        for ci in range(4)
    }
    best = max(potentials.values())
    winners = {k for k, v in potentials.items() if v == best}
    assert winners == {(1, 0)} and best == 0.75
    wp = restart_point(grid, h, (0, 0))
    assert 2 <= wp[0] < 4 and 0 <= wp[1] < 2  # inside block (1, 0)
    # nearest unexplored cell of that block to the station
    assert wp == (2, 0)


def test_restart_distance_ties_measured_from_station():
    grid = CellGrid(8, 8, (0, 0))
    # two fully unexplored 2x2 blocks, one near the station, one far
    h = explore_all_but(grid, {(0, 2), (1, 2), (0, 3), (1, 3), (6, 6), (7, 6), (6, 7), (7, 7)})
    wp = restart_point(grid, h, (0, 0))
    assert wp == (0, 2)


def test_determinism():
    grid = CellGrid(12, 12, (0, 0))
    h = explore_all_but(grid, {(3, 7), (9, 2), (10, 10)})
    results = {next_waypoint(grid, h, (5, 5)) for _ in range(5)}
    assert len(results) == 1


def test_current_on_obstacle_rejected():
    grid = CellGrid(5, 5, (0, 0))
    h = hierarchy_for(grid)
    grid.apply_sensor_update({(2, 2)})
    h.on_state_change((2, 2))
    with pytest.raises(ValueError):
        next_waypoint(grid, h, (2, 2))


def random_belief(rng, w, h):
    grid = CellGrid(w, h, (0, 0))
    hier = MapsHierarchy(grid)
    for cell in list(grid_cells(grid)):
        r = rng.random()
        if r < 0.2 and cell != grid.station:
            grid.apply_sensor_update({cell})
            hier.on_state_change(cell)
        elif r < 0.5:
            grid.mark_traversed(cell)
            hier.on_state_change(cell)
    return grid, hier


def test_argmax_correctness_on_random_beliefs():
    rng = random.Random(21)
    for _ in range(50):
        grid, h = random_belief(rng, rng.randint(4, 12), rng.randint(4, 12))
        current = grid.station
        if grid.state(current) is CellState.OBSTACLE:
            continue
        wp = next_waypoint(grid, h, current)
        positives = [n for n in neighbors8(grid, current) if grid.state(n) is CellState.UNEXPLORED]
        if not positives:
            if wp is not None:
                assert chebyshev(wp, current) != 1  # the coarse step chose it
            continue
        assert wp is not None and chebyshev(wp, current) == 1
        b = b_field(grid, wp)
        assert all(b_field(grid, n) <= b for n in positives)
        same = [n for n in positives if b_field(grid, n) == b]
        assert all(math.dist(current, wp) <= math.dist(current, n) for n in same)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_next_waypoint_matches_its_dict_form(seed):
    # from random cells, border cells included, with random excluded sets
    rng = random.Random(seed)
    grid, h = random_belief(rng, rng.randint(1, 12), rng.randint(1, 12))
    cells = list(grid_cells(grid))
    for current in rng.sample(cells, min(6, len(cells))):
        share = rng.choice((0.0, 0.3, 0.7))
        excluded = {c for c in cells if rng.random() < share}
        if grid.state(current) is CellState.OBSTACLE:
            with pytest.raises(ValueError):
                next_waypoint(grid, h, current, excluded)
            continue
        assert next_waypoint(grid, h, current, excluded) == dict_next_waypoint(grid, h, current, excluded)
        assert next_waypoint(grid, h, current) == dict_next_waypoint(grid, h, current)


def test_done_iff_no_reachable_unexplored():
    rng = random.Random(31)
    for _ in range(50):
        grid, h = random_belief(rng, rng.randint(4, 12), rng.randint(4, 12))
        wp = next_waypoint(grid, h, grid.station)
        reachable = reachable_cells(grid)
        assert (wp is None) == (len(reachable) == 0)
        if wp is not None:
            assert wp in reachable


def test_one_coarse_level_matches_the_k_level_reference():
    # 1,000 random beliefs, checked in turn against K = 1, 2, 3 and the full
    # hierarchy: every K selects the same cell, because every unexplored
    # cell lies in a 2x2 block of positive potential
    rng = random.Random(8)
    coarse = 0
    for trial in range(1000):
        w, h = rng.randint(1, 17), rng.randint(1, 17)
        station = (rng.randrange(w), rng.randrange(h))
        grid = CellGrid(w, h, station)
        hier = MapsHierarchy(grid)
        obstacle_share = rng.uniform(0.0, 0.4)
        explored_share = rng.uniform(0.0, 1.0)
        for cell in grid_cells(grid):
            r = rng.random()
            if r < obstacle_share and cell != station:
                grid.apply_sensor_update([cell])
                hier.on_state_change(cell)
            elif r < obstacle_share + explored_share * (1 - obstacle_share):
                grid.mark_traversed(cell)
                hier.on_state_change(cell)
        free = [c for c in grid_cells(grid) if grid.state(c) is not CellState.OBSTACLE]
        origin = rng.choice(free)
        unexplored = [c for c in grid_cells(grid) if grid.state(c) is CellState.UNEXPLORED]
        excluded = set(rng.sample(unexplored, rng.randint(0, len(unexplored))))
        if rng.random() < 0.5:  # force the coarse selection from the origin
            excluded |= set(neighbors8(grid, origin))
        excluded = frozenset(excluded)
        wp = next_waypoint(grid, hier, origin, excluded)
        rp = restart_point(grid, hier, station, excluded)
        # the coarse step runs only when no unexplored, non-excluded
        # 8-neighbour exists, so it never returns a cell next to the origin
        coarse += wp is not None and chebyshev(wp, origin) != 1
        levels = (1, 2, 3, default_level_count(w, h))[trial % 4]
        assert wp == reference_next_waypoint(grid, origin, excluded, levels)
        assert rp == reference_coarse_select(grid, station, excluded, levels)
    assert coarse > 200


def test_coarse_selection_scans_only_the_block_it_answers_from(monkeypatch):
    # heavy exclusions leave most positive blocks without a selectable cell;
    # the selection must still scan one block per answer and none for None
    scans = 0
    scan = MapsHierarchy.unexplored_in_extent

    def counted(self, key):
        nonlocal scans
        scans += 1
        return scan(self, key)

    monkeypatch.setattr(MapsHierarchy, "unexplored_in_extent", counted)
    rng = random.Random(5)
    answered = 0
    for _ in range(200):
        grid, h = random_belief(rng, rng.randint(4, 16), rng.randint(4, 16))
        unexplored = [c for c in grid_cells(grid) if grid.state(c) is CellState.UNEXPLORED]
        share = rng.choice((0.8, 0.95, 1.0))
        excluded = frozenset(rng.sample(unexplored, int(share * len(unexplored))))
        scans = 0
        rp = restart_point(grid, h, grid.station, excluded)
        assert scans == (rp is not None)
        answered += rp is not None
    assert 20 < answered < 180


def test_restart_candidates_match_repeated_selections():
    # one stream yields what restart_point returns when called again and
    # again with each answer added to the exclusions, until it says done
    rng = random.Random(17)
    drawn = 0
    for _ in range(300):
        grid, h = random_belief(rng, rng.randint(1, 14), rng.randint(1, 14))
        unexplored = [c for c in grid_cells(grid) if grid.state(c) is CellState.UNEXPLORED]
        excluded = set(rng.sample(unexplored, rng.randint(0, len(unexplored))))
        origin = rng.choice([c for c in grid_cells(grid) if grid.state(c) is not CellState.OBSTACLE])
        stream = list(restart_candidates(grid, h, origin, frozenset(excluded)))
        assert set(stream) == reachable_cells(grid) - excluded
        repeated = []
        while (cell := restart_point(grid, h, origin, excluded)) is not None:
            repeated.append(cell)
            excluded.add(cell)
        assert stream == repeated
        drawn += len(stream)
    assert drawn > 1000
