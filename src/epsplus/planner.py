"""Waypoint selection over the potential surfaces.

The default move goes to the 8-neighbor with the highest positive potential
(ties: cheapest to reach, then lowest (col, row)). When no neighbor is
positive the vehicle sits on a local extremum, and the selection turns to
the 2x2 blocks of the coarse level: of the blocks holding a selectable
cell, the best-ranked one (highest potential, then nearest center, then
lowest index) supplies its nearest selectable cell as the waypoint. The
same procedure, with distances measured from the station, picks the
coverage start point after a recharge. Both functions return a cell.

A cell is selectable when it is unexplored, reachable from the station and
not excluded: unexplored cells that are walled off from the station, or
that the mission has ruled out as energy-infeasible, are skipped. When
nothing selectable remains the selection reports completion by returning
``None``. A block's potential and center depend neither on the exclusions
nor on reachability, and every block holding a selectable cell has
positive potential, so ranking only those blocks picks the block that a
ranked scan of all positive blocks would reach first. Reachability is the
grid's incrementally kept mask (:meth:`CellGrid.reachable_unexplored`) and
its per-block counts ``reachable_blocks``; only coarse selections read
them. A block holds a selectable cell exactly when its count exceeds the
number of its excluded cells that are still reachable and unexplored, so a
selection ranks those blocks without walking the reachable cells, then
scans the best block's cells.
"""

from __future__ import annotations

import math
from collections.abc import Set

from .grid import Cell, CellGrid, CellState
from .hierarchy import MapsHierarchy


def next_waypoint(
    grid: CellGrid,
    hierarchy: MapsHierarchy,
    current: Cell,
    excluded: Set[Cell] = frozenset(),
) -> Cell | None:
    """Next navigation goal from the current cell, or None when coverage is done."""
    if grid.state(current) is CellState.OBSTACLE:
        raise ValueError(f"current cell {current} is an obstacle")
    best: tuple | None = None
    for n in grid.neighbors8(current):
        if grid.state(n) is not CellState.UNEXPLORED or n in excluded:
            continue
        key = (-grid.b_field(n), math.dist(current, n), n)
        if best is None or key < best:
            best = key
    if best is not None:
        return best[2]
    return restart_point(grid, hierarchy, current, excluded)


def restart_point(
    grid: CellGrid,
    hierarchy: MapsHierarchy,
    origin: Cell,
    excluded: Set[Cell] = frozenset(),
) -> Cell | None:
    """Coarse selection from the origin (the station, for a restart), or None when done."""
    reachable = grid.reachable_unexplored()
    index = grid.index
    stride = grid.stride
    taken: dict[tuple[int, int], int] = {}  # per block: its excluded cells in the mask
    for col, row in excluded:  # index() inlined: on a tight budget many cells are excluded
        if reachable[(col + 1) * stride + row + 1]:
            block = (col >> 1, row >> 1)
            taken[block] = taken.get(block, 0) + 1
    blocks = [b for b, n in grid.reachable_blocks.items() if n > taken.get(b, 0)]
    if not blocks:
        return None
    ox, oy = origin

    def rank(block: tuple[int, int]) -> tuple:
        cx, cy = hierarchy.center(*block)
        return (-hierarchy.potential(*block), (cx - ox) ** 2 + (cy - oy) ** 2, block)

    cells = [
        c for c in hierarchy.unexplored_in_extent(*min(blocks, key=rank))
        if reachable[index(c)] and c not in excluded
    ]
    return min(cells, key=lambda c: ((c[0] - ox) ** 2 + (c[1] - oy) ** 2, c))
