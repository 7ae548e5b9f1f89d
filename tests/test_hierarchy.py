import random

import pytest
from hypothesis import given, strategies as st

from epsplus.grid import CellGrid, CellState
from epsplus.hierarchy import MapsHierarchy, default_level_count

from helpers import potential_level0


def brute_counts(grid, level):
    """Full-scan oracle for a coarse level's unexplored counters."""
    counts = {}
    for cj in range(level.nrows):
        for ci in range(level.ncols):
            c0, r0, c1, r1 = level.extent(ci, cj)
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


def test_default_level_count_single_top_cell():
    for w, h in [(1, 1), (3, 2), (50, 50), (40, 17)]:
        k = default_level_count(w, h)
        assert (1 << k) >= max(w, h)
        grid = CellGrid(w, h, (0, 0))
        top = MapsHierarchy(grid).level(k)
        assert top.ncols == 1 and top.nrows == 1


def test_coarse_potential_extremes():
    grid = CellGrid(8, 8, (0, 0))
    h = MapsHierarchy(grid)
    assert h.level(1).potential(0, 0) == 1.0
    for c in range(2):
        for r in range(2):
            grid.mark_traversed((c, r))
            h.on_state_change((c, r), CellState.UNEXPLORED, CellState.EXPLORED)
    assert h.level(1).potential(0, 0) == 0.0


def test_coarse_potential_fraction_vs_recount():
    # 10x10 grid: the top level is a single cell clipped to the whole map
    grid = CellGrid(10, 10, (0, 0))
    h = MapsHierarchy(grid)
    rng = random.Random(7)
    explored = rng.sample([c for c in grid.cells()], 63)
    for cell in explored:
        grid.mark_traversed(cell)
        h.on_state_change(cell, CellState.UNEXPLORED, CellState.EXPLORED)
    top = h.level(h.K)
    assert top.extent(0, 0) == (0, 0, 10, 10)
    assert h.level(h.K).potential(0, 0) == 0.37
    assert brute_counts(grid, top)[(0, 0)] == 37


def test_rebuild_counts_matches_incremental():
    grid = CellGrid(9, 7, (0, 0))
    h = MapsHierarchy(grid)
    grid.mark_traversed((4, 4))
    h.on_state_change((4, 4), CellState.UNEXPLORED, CellState.EXPLORED)
    lv = h.level(1)
    ci, cj = lv.index_of((4, 4))
    before = lv.unexplored_count[cj * lv.ncols + ci]
    h.rebuild_counts()
    assert lv.unexplored_count[cj * lv.ncols + ci] == before
    # rebuild with no changes is a no-op
    snapshot = [list(l.unexplored_count) for l in h.levels]
    h.rebuild_counts()
    assert snapshot == [list(l.unexplored_count) for l in h.levels]


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
    for level in range(1, h.K + 1):
        lv = h.level(level)
        oracle = brute_counts(grid, lv)
        for (ci, cj), n in oracle.items():
            assert lv.unexplored_count[cj * lv.ncols + ci] == n
            assert (lv.potential(ci, cj) > 0) == (n > 0)


def test_levels_validation():
    grid = CellGrid(4, 4, (0, 0))
    with pytest.raises(ValueError):
        MapsHierarchy(grid, levels=0)
    h = MapsHierarchy(grid, levels=3)
    assert h.K == 3
    with pytest.raises(ValueError):
        h.level(4)
