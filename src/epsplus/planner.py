"""Waypoint selection over the potential surfaces.

The default move goes to the 8-neighbor with the highest positive potential
(ties: cheapest to reach, then lowest (col, row)). When no neighbor is
positive the vehicle sits on a local extremum, and the selection ranks the
2x2 blocks of the coarse level (highest potential, then nearest center, then
lowest index); the first block holding a selectable cell supplies its
nearest unexplored cell as the waypoint. The same procedure, with distances
measured from the station, picks the coverage start point after a recharge.

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
    source_level: int  # 0: an 8-neighbor, 1: a coarse 2x2 block


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
    candidates = []
    for cj in range(hierarchy.nrows):
        for ci in range(hierarchy.ncols):
            p = hierarchy.potential(ci, cj)
            if p > 0.0:
                cx, cy = hierarchy.center(ci, cj)
                candidates.append((-p, (cx - ox) ** 2 + (cy - oy) ** 2, (ci, cj)))
    candidates.sort()
    for _, _, (ci, cj) in candidates:
        cells = [
            c for c in hierarchy.unexplored_in_extent(ci, cj)
            if c not in excluded and c in reachable
        ]
        if cells:
            cell = min(cells, key=lambda c: ((c[0] - ox) ** 2 + (c[1] - oy) ** 2, c))
            assert grid.state(cell) is CellState.UNEXPLORED
            return Waypoint(cell, 1)
    return None
