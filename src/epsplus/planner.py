"""Waypoint selection over the potential surfaces.

The default move goes to the 8-neighbor with the highest positive potential
(ties: cheapest to reach, then lowest (col, row)). When no neighbor is
positive the vehicle sits on a local extremum and the selection ascends the
coarse levels until one shows positive potential; the winning coarse cell
(highest potential, then nearest center, then lowest index) supplies the
nearest unexplored finest-level cell as the waypoint. The same procedure,
with distances measured from the station, picks the coverage start point
after a recharge.

Unexplored cells that are walled off from the station, or that the mission
has ruled out as energy-infeasible, are skipped; when nothing selectable
remains the selection reports completion by returning ``None``.
Reachability is the grid's own cached flood fill
(:meth:`CellGrid.reachable_unexplored`); only coarse selections read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import Cell, CellGrid, CellState
from .hierarchy import MapsHierarchy


@dataclass(frozen=True)
class Waypoint:
    cell: Cell
    source_level: int


def next_waypoint(
    grid: CellGrid,
    hierarchy: MapsHierarchy,
    current: Cell,
    excluded: frozenset[Cell] = frozenset(),
) -> Waypoint | None:
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
        wp = Waypoint(best[2], 0)
        assert grid.state(wp.cell) is CellState.UNEXPLORED
        return wp
    return _coarse_select(grid, hierarchy, current, excluded)


def restart_point(
    grid: CellGrid,
    hierarchy: MapsHierarchy,
    station: Cell,
    excluded: frozenset[Cell] = frozenset(),
) -> Waypoint | None:
    """Coverage start point after a recharge, or None when coverage is done."""
    return _coarse_select(grid, hierarchy, station, excluded)


def _coarse_select(
    grid: CellGrid,
    hierarchy: MapsHierarchy,
    origin: Cell,
    excluded: frozenset[Cell],
) -> Waypoint | None:
    reachable = grid.reachable_unexplored()
    ox, oy = origin
    for level in range(1, hierarchy.K + 1):
        lv = hierarchy.level(level)
        candidates = []
        for cj in range(lv.nrows):
            for ci in range(lv.ncols):
                p = lv.potential(ci, cj)
                if p <= 0.0:
                    continue
                cx, cy = lv.center(ci, cj)
                d2 = (cx - ox) ** 2 + (cy - oy) ** 2
                candidates.append((-p, d2, (ci, cj)))
        candidates.sort()
        for _, _, (ci, cj) in candidates:
            best: tuple | None = None
            for cell in hierarchy.unexplored_in_extent(level, ci, cj):
                if cell in excluded or cell not in reachable:
                    continue
                d2 = (cell[0] - ox) ** 2 + (cell[1] - oy) ** 2
                key = (d2, cell)
                if best is None or key < best:
                    best = key
            if best is not None:
                wp = Waypoint(best[1], level)
                assert grid.state(wp.cell) is CellState.UNEXPLORED
                return wp
    return None
