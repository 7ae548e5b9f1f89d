import random

import pytest
from hypothesis import given, strategies as st

from epsplus.grid import CellGrid, CellState
from epsplus.hierarchy import MapsHierarchy

from helpers import b_field, block_center, block_potential, grid_cells, potential_level0


def block_cells(grid, ci, cj):
    """The cells of 2x2 block (ci, cj), clipped at the map border, scan order."""
    c0, r0 = 2 * ci, 2 * cj
    return [
        (c, r)
        for r in range(r0, min(r0 + 2, grid.height))
        for c in range(c0, min(c0 + 2, grid.width))
    ]


def block_key(grid, ci, cj):
    """The block's key: the flat index of its lowest cell."""
    return grid.index((2 * ci, 2 * cj))


def brute_counts(grid):
    """Full-scan oracle for the unexplored counter of every 2x2 block."""
    return {
        (ci, cj): sum(grid.state(c) is CellState.UNEXPLORED for c in block_cells(grid, ci, cj))
        for cj in range((grid.height + 1) // 2)
        for ci in range((grid.width + 1) // 2)
    }


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
    for cell in grid_cells(grid):
        p = potential_level0(grid, cell)
        st_ = grid.state(cell)
        if st_ is CellState.OBSTACLE:
            assert p == -1.0
        elif st_ is CellState.EXPLORED:
            assert p == 0.0
        else:
            assert p == b_field(grid, cell) > 0


def test_coarse_potential_extremes():
    grid = CellGrid(8, 8, (0, 0))
    h = MapsHierarchy(grid)
    assert block_potential(h, block_key(grid, 0, 0)) == 1.0
    for c in range(2):
        for r in range(2):
            grid.mark_traversed((c, r))
            h.on_state_change((c, r), CellState.UNEXPLORED, CellState.EXPLORED)
    assert block_potential(h, block_key(grid, 0, 0)) == 0.0


def test_coarse_potential_fraction_vs_recount():
    grid = CellGrid(10, 10, (0, 0))
    h = MapsHierarchy(grid)
    rng = random.Random(7)
    explored = rng.sample([c for c in grid_cells(grid)], 63)
    for cell in explored:
        grid.mark_traversed(cell)
        h.on_state_change(cell, CellState.UNEXPLORED, CellState.EXPLORED)
    oracle = brute_counts(grid)
    assert sum(oracle.values()) == sum(h.unexplored_count.values()) == 37
    for (ci, cj), n in oracle.items():
        assert block_potential(h, block_key(grid, ci, cj)) == n / 4


def test_rebuild_counts_matches_incremental():
    grid = CellGrid(9, 7, (0, 0))
    h = MapsHierarchy(grid)
    grid.mark_traversed((4, 4))
    h.on_state_change((4, 4), CellState.UNEXPLORED, CellState.EXPLORED)
    before = dict(h.unexplored_count)
    assert before[block_key(grid, 2, 2)] == 3  # block (2, 2) holds (4, 4)
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
    oracle = brute_counts(grid)
    assert len(oracle) == 5 * 4
    assert block_cells(grid, 4, 3) == [(8, 6)]  # edge blocks are clipped
    # the counter holds exactly the blocks with an unexplored cell, also when rebuilt
    assert h.unexplored_count == {
        block_key(grid, ci, cj): n for (ci, cj), n in oracle.items() if n
    }
    assert MapsHierarchy(grid).unexplored_count == h.unexplored_count
    for (ci, cj), n in oracle.items():
        key = block_key(grid, ci, cj)
        assert block_potential(h, key) == n / len(block_cells(grid, ci, cj))
        assert block_center(h, key) == (
            sum(c for c, _ in block_cells(grid, ci, cj)) / len(block_cells(grid, ci, cj)),
            sum(r for _, r in block_cells(grid, ci, cj)) / len(block_cells(grid, ci, cj)),
        )
        assert h.unexplored_in_extent(key) == [
            c for c in block_cells(grid, ci, cj) if grid.state(c) is CellState.UNEXPLORED
        ]


def test_state_change_ignores_a_non_change_and_refuses_to_leave_explored_or_obstacle():
    # cells only leave the unexplored state; any other transition is a caller's bug
    grid = CellGrid(5, 5, (0, 0))
    hier = MapsHierarchy(grid)
    before = dict(hier.unexplored_count)
    for state in CellState:
        hier.on_state_change((2, 3), state, state)
    for old in (CellState.EXPLORED, CellState.OBSTACLE):
        for new in CellState:
            if new is not old:
                with pytest.raises(ValueError, match="illegal transition"):
                    hier.on_state_change((2, 3), old, new)
    assert hier.unexplored_count == before
