import random

from hypothesis import given, strategies as st

from epsplus.grid import CellGrid, CellState
from epsplus.hierarchy import MapsHierarchy

from helpers import potential_level0


def brute_counts(grid, h):
    """Full-scan oracle for the unexplored counter of every 2x2 block."""
    counts = {}
    for cj in range(h.nrows):
        for ci in range(h.ncols):
            c0, r0, c1, r1 = h.extent(ci, cj)
            n = sum(
                1
                for c in range(c0, c1)
                for r in range(r0, r1)
                if grid.state((c, r)) is CellState.UNEXPLORED
            )
            counts[(ci, cj)] = n
    return counts


def test_potential_level0_cases():
    grid = CellGrid(50, 50, (0, 0))
    grid.apply_sensor_update({(3, 3)})
    grid.mark_traversed((4, 4))
    assert potential_level0(grid, (3, 3)) == -1.0
    assert potential_level0(grid, (4, 4)) == 0.0
    assert potential_level0(grid, (0, 7)) == 50.0  # b(col 0) of a 50-wide grid


def test_potential_case_totality():
    grid = CellGrid(8, 8, (0, 0))
    grid.apply_sensor_update({(1, 1)})
    grid.mark_traversed((2, 2))
    for cell in grid.cells():
        p = potential_level0(grid, cell)
        st_ = grid.state(cell)
        if st_ is CellState.OBSTACLE:
            assert p == -1.0
        elif st_ is CellState.EXPLORED:
            assert p == 0.0
        else:
            assert p == grid.b_field(cell) > 0


def test_coarse_potential_extremes():
    grid = CellGrid(8, 8, (0, 0))
    h = MapsHierarchy(grid)
    assert h.potential(0, 0) == 1.0
    for c in range(2):
        for r in range(2):
            grid.mark_traversed((c, r))
            h.on_state_change((c, r), CellState.UNEXPLORED, CellState.EXPLORED)
    assert h.potential(0, 0) == 0.0


def test_coarse_potential_fraction_vs_recount():
    grid = CellGrid(10, 10, (0, 0))
    h = MapsHierarchy(grid)
    rng = random.Random(7)
    explored = rng.sample([c for c in grid.cells()], 63)
    for cell in explored:
        grid.mark_traversed(cell)
        h.on_state_change(cell, CellState.UNEXPLORED, CellState.EXPLORED)
    oracle = brute_counts(grid, h)
    assert sum(oracle.values()) == sum(h.unexplored_count) == 37
    for (ci, cj), n in oracle.items():
        assert h.potential(ci, cj) == n / 4


def test_rebuild_counts_matches_incremental():
    grid = CellGrid(9, 7, (0, 0))
    h = MapsHierarchy(grid)
    grid.mark_traversed((4, 4))
    h.on_state_change((4, 4), CellState.UNEXPLORED, CellState.EXPLORED)
    before = list(h.unexplored_count)
    assert before[2 * h.ncols + 2] == 3  # block (2, 2) holds (4, 4)
    h.rebuild_counts()
    assert h.unexplored_count == before
    # rebuild with no changes is a no-op
    h.rebuild_counts()
    assert h.unexplored_count == before


@given(st.lists(st.tuples(st.integers(0, 62), st.booleans()), max_size=50))
def test_counters_match_brute_force(flips):
    grid = CellGrid(9, 7, (0, 0))
    h = MapsHierarchy(grid)
    for raw, as_obstacle in flips:
        cell = (raw % 9, raw // 9)
        if grid.state(cell) is not CellState.UNEXPLORED:
            continue
        if as_obstacle and cell != grid.station:
            grid.apply_sensor_update({cell})
            h.on_state_change(cell, CellState.UNEXPLORED, CellState.OBSTACLE)
        else:
            grid.mark_traversed(cell)
            h.on_state_change(cell, CellState.UNEXPLORED, CellState.EXPLORED)
    assert (h.ncols, h.nrows) == (5, 4)
    assert h.extent(4, 3) == (8, 6, 9, 7)  # edge blocks are clipped
    oracle = brute_counts(grid, h)
    for (ci, cj), n in oracle.items():
        assert h.unexplored_count[cj * h.ncols + ci] == n
        assert (h.potential(ci, cj) > 0) == (n > 0)
