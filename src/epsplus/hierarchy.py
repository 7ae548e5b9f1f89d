"""Coarse potential surface over the belief grid.

Level 0 is the belief grid itself; its potential is -1 for obstacle cells,
0 for explored cells and the static field value for unexplored cells.

The coarse level tiles the grid into 2x2 blocks (edge blocks are clipped at
the map border). A block's potential is the fraction of unexplored cells
inside it, so it is positive exactly when the block still holds something
to cover, and larger where more remains.

One 2x2 level decides every selection. The planner ranks blocks over the
whole map, not a local window around the vehicle, and every unexplored cell
lies in some block of positive potential. So if any selectable cell exists,
a 2x2 block holding one supplies it. A coarser level (4x4, 8x8, ...) holds
the same cells and was only ever consulted after the 2x2 level found none,
to the same empty result. Coarser levels would matter only under a
local-window ascent, which this planner does not do.
"""

from __future__ import annotations

from .grid import Cell, CellGrid, CellState


class MapsHierarchy:
    """Unexplored-cell counters of the 2x2 blocks, updated per cell change."""

    def __init__(self, grid: CellGrid):
        self.grid = grid
        self.ncols = (grid.width + 1) // 2
        self.nrows = (grid.height + 1) // 2
        self.total = []
        for cj in range(self.nrows):
            for ci in range(self.ncols):
                c0, r0, c1, r1 = self.extent(ci, cj)
                self.total.append((c1 - c0) * (r1 - r0))
        self._centers: list[tuple[float, float]] | None = None  # per block, see center()
        self.rebuild_counts()

    def block_of(self, cell: Cell) -> tuple[int, int]:
        """The (ci, cj) index of the block holding the cell."""
        return cell[0] >> 1, cell[1] >> 1

    def extent(self, ci: int, cj: int) -> tuple[int, int, int, int]:
        """Half-open cell ranges (col0, row0, col1, row1) covered by block (ci, cj)."""
        c0 = 2 * ci
        r0 = 2 * cj
        return c0, r0, min(c0 + 2, self.grid.width), min(r0 + 2, self.grid.height)

    def center(self, ci: int, cj: int) -> tuple[float, float]:
        """Extent center in cell units (for distance tie-breaking)."""
        if self._centers is None:  # built on the first selection, not in set-up
            self._centers = []
            for bj in range(self.nrows):
                for bi in range(self.ncols):
                    c0, r0, c1, r1 = self.extent(bi, bj)
                    self._centers.append(((c0 + c1 - 1) / 2.0, (r0 + r1 - 1) / 2.0))
        return self._centers[cj * self.ncols + ci]

    def potential(self, ci: int, cj: int) -> float:
        i = cj * self.ncols + ci
        return self.unexplored_count[i] / self.total[i]

    def rebuild_counts(self) -> None:
        """Recompute every counter from a fresh scan of the grid states."""
        counts = [0] * (self.ncols * self.nrows)
        for cell in self.grid.cells():
            if self.grid.state(cell) is CellState.UNEXPLORED:
                ci, cj = self.block_of(cell)
                counts[cj * self.ncols + ci] += 1
        self.unexplored_count = counts

    def on_state_change(self, cell: Cell, old: CellState, new: CellState) -> None:
        """Incremental counter update for a single cell transition."""
        if old is new:
            return
        if old is not CellState.UNEXPLORED:
            raise ValueError(f"illegal transition {old} -> {new} at {cell}")
        ci, cj = self.block_of(cell)
        self.unexplored_count[cj * self.ncols + ci] -= 1

    def unexplored_in_extent(self, ci: int, cj: int) -> list[Cell]:
        """Unexplored cells inside block (ci, cj), scan order."""
        c0, r0, c1, r1 = self.extent(ci, cj)
        state = self.grid.state
        return [
            (col, row)
            for row in range(r0, r1)
            for col in range(c0, c1)
            if state((col, row)) is CellState.UNEXPLORED
        ]
