"""Multiscale potential surfaces over the belief grid.

Level 0 is the belief grid itself; its potential is -1 for obstacle cells,
0 for explored cells and the static field value for unexplored cells.

Levels 1..K coarsen the grid by a factor of 2 per axis per level (edge cells
are clipped at the map border). A coarse cell's potential is the fraction of
unexplored level-0 cells inside its extent, so it is positive exactly when
the extent still holds something to cover, and larger where more remains.
"""

from __future__ import annotations

import math

from .grid import Cell, CellGrid, CellState


def default_level_count(width: int, height: int) -> int:
    """Smallest K such that the top level collapses to a single cell."""
    return max(1, math.ceil(math.log2(max(width, height))))


class CoarseLevel:
    """One coarsened tiling: blocks of 2**level cells per axis, clipped at edges."""

    def __init__(self, level: int, grid_width: int, grid_height: int):
        self.level = level
        self.block = 1 << level
        self.ncols = (grid_width + self.block - 1) // self.block
        self.nrows = (grid_height + self.block - 1) // self.block
        self.grid_width = grid_width
        self.grid_height = grid_height
        n = self.ncols * self.nrows
        self.unexplored_count = [0] * n
        self.total = [0] * n
        for cj in range(self.nrows):
            for ci in range(self.ncols):
                c0, r0, c1, r1 = self.extent(ci, cj)
                self.total[cj * self.ncols + ci] = (c1 - c0) * (r1 - r0)

    def index_of(self, cell: Cell) -> tuple[int, int]:
        return (cell[0] // self.block, cell[1] // self.block)

    def extent(self, ci: int, cj: int) -> tuple[int, int, int, int]:
        """Half-open cell ranges (col0, row0, col1, row1) covered by block (ci, cj)."""
        c0 = ci * self.block
        r0 = cj * self.block
        c1 = min(c0 + self.block, self.grid_width)
        r1 = min(r0 + self.block, self.grid_height)
        return c0, r0, c1, r1

    def center(self, ci: int, cj: int) -> tuple[float, float]:
        """Extent center in cell units (for distance tie-breaking)."""
        c0, r0, c1, r1 = self.extent(ci, cj)
        return ((c0 + c1 - 1) / 2.0, (r0 + r1 - 1) / 2.0)

    def _i(self, ci: int, cj: int) -> int:
        return cj * self.ncols + ci

    def potential(self, ci: int, cj: int) -> float:
        i = self._i(ci, cj)
        return self.unexplored_count[i] / self.total[i]


class MapsHierarchy:
    """K coarse levels with incrementally maintained unexplored counters."""

    def __init__(self, grid: CellGrid, levels: int | None = None):
        if levels is not None and levels < 1:
            raise ValueError(f"level count must be >= 1, got {levels}")
        self.grid = grid
        self.K = levels if levels is not None else default_level_count(grid.width, grid.height)
        self.levels = [CoarseLevel(k, grid.width, grid.height) for k in range(1, self.K + 1)]
        self.rebuild_counts()

    def level(self, k: int) -> CoarseLevel:
        if not 1 <= k <= self.K:
            raise ValueError(f"level {k} outside 1..{self.K}")
        return self.levels[k - 1]

    def rebuild_counts(self) -> None:
        """Recompute every counter from a fresh scan of the grid states."""
        for lv in self.levels:
            lv.unexplored_count = [0] * (lv.ncols * lv.nrows)
        for cell in self.grid.cells():
            if self.grid.state(cell) is not CellState.UNEXPLORED:
                continue
            for lv in self.levels:
                ci, cj = lv.index_of(cell)
                lv.unexplored_count[lv._i(ci, cj)] += 1

    def on_state_change(self, cell: Cell, old: CellState, new: CellState) -> None:
        """Incremental counter update for a single cell transition."""
        if old is new:
            return
        if old is not CellState.UNEXPLORED:
            raise ValueError(f"illegal transition {old} -> {new} at {cell}")
        for lv in self.levels:
            ci, cj = lv.index_of(cell)
            lv.unexplored_count[lv._i(ci, cj)] -= 1

    def unexplored_in_extent(self, level: int, ci: int, cj: int) -> list[Cell]:
        """Unexplored level-0 cells inside the given coarse cell, scan order."""
        lv = self.level(level)
        c0, r0, c1, r1 = lv.extent(ci, cj)
        out = []
        for row in range(r0, r1):
            for col in range(c0, c1):
                if self.grid.state((col, row)) is CellState.UNEXPLORED:
                    out.append((col, row))
        return out
