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
ranked scan of all positive blocks would reach first.

The non-obstacle cells of a 2x2 block are pairwise 8-adjacent, so they lie
in one component of the free space: a block's unexplored cells are either
all reachable from the station or none are. Reachability is the grid's
incrementally kept mask (:meth:`CellGrid.reachable_unexplored`), and a
block is reachable when one of its at most four mask bytes is set (a
clipped block's missing cells fall on the frame, where the mask is 0). A
reachable block's unexplored count (``MapsHierarchy.unexplored_count``) is
then its count of reachable cells, so it holds a selectable cell exactly
when that count exceeds the number of its excluded cells still in the
mask. A selection ranks those blocks without walking the reachable cells,
then scans the best block's unexplored cells, all of them reachable. Only
coarse selections read the mask.

An advance phase tries restart candidates until one is affordable, and
every candidate tried stays excluded. ``restart_candidates`` yields those
selections as one stream: it ranks the blocks once into a heap and yields
each block's selectable cells in turn, so a later draw costs at most a heap
pop and a scan of one block, not a ranking of every block. ``restart_point``
is the stream's first draw, so the selection rule is written once.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Set

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
    return next(restart_candidates(grid, hierarchy, origin, excluded), None)


def restart_candidates(
    grid: CellGrid,
    hierarchy: MapsHierarchy,
    origin: Cell,
    excluded: Set[Cell] = frozenset(),
) -> Iterator[Cell]:
    """Every selectable cell, in the order repeated coarse selections pick them.

    The first cell is ``restart_point``'s answer. Each later one is what
    ``restart_point`` returns once every cell drawn before it is added to
    ``excluded``: a block's rank depends neither on the exclusions nor on
    reachability, so the best-ranked block supplies cells, nearest to the
    origin first, until it has none left, and the next block takes over.
    The blocks are ranked once per stream, and a block's cells are scanned
    when it is reached. The grid and ``excluded`` must not change while
    the stream is drawn from.
    """
    reachable = grid.reachable_unexplored()
    s = grid.stride
    taken: dict[int, int] = {}  # per block: its excluded cells in the mask
    for col, row in excluded:  # index() inlined: on a tight budget many cells are excluded
        if reachable[(col + 1) * s + row + 1]:
            key = ((col & -2) + 1) * s + (row & -2) + 1  # the hierarchy's block key
            taken[key] = taken.get(key, 0) + 1
    ox, oy = origin
    ranked = []
    for k, n in hierarchy.unexplored_count.items():
        # by the 2x2 fact (module docstring), one mask byte tells for the whole block
        if n > taken.get(k, 0) and (
            reachable[k] or reachable[k + 1] or reachable[k + s] or reachable[k + s + 1]
        ):
            cx, cy = hierarchy.center(k)
            ranked.append((-hierarchy.potential(k), (cx - ox) ** 2 + (cy - oy) ** 2, k))
    heapq.heapify(ranked)
    while ranked:
        # a ranked block is reachable, so all its unexplored cells are
        key = heapq.heappop(ranked)[2]
        cells = [c for c in hierarchy.unexplored_in_extent(key) if c not in excluded]
        cells.sort(key=lambda c: ((c[0] - ox) ** 2 + (c[1] - oy) ** 2, c))
        yield from cells
