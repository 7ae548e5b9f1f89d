"""Coarse potential surface over the belief grid.

Level 0 is the belief grid itself; its potential is -1 for obstacle cells,
0 for explored cells and the static field value for unexplored cells.

The coarse level tiles the grid into 2x2 blocks (edge blocks are clipped at
the map border). A block's potential is the fraction of unexplored cells
inside it, so it is positive exactly when the block still holds something
to cover, and larger where more remains.

A block is keyed by one int, the flat index (``CellGrid.index``) of its
lowest cell ``(2 * ci, 2 * cj)``. Flat indices order like ``(col, row)``,
so keys order like ``(ci, cj)``, and the block's cells are at ``key``,
``key + 1``, ``key + stride`` and ``key + stride + 1``. A clipped block's
missing cells fall on the grid's frame, which holds no cell state.
``unexplored_count`` maps the key of every block with an unexplored cell
to its number of unexplored cells; a block whose last one goes leaves it.

One 2x2 level decides every selection. The planner ranks blocks over the
whole map, not a local window around the vehicle, and every unexplored cell
lies in some block of positive potential. So if any selectable cell exists,
a 2x2 block holding one supplies it. A coarser level (4x4, 8x8, ...) holds
the same cells and was only ever consulted after the 2x2 level found none,
to the same empty result. Coarser levels would matter only under a
local-window ascent, which this planner does not do.
"""

from __future__ import annotations

from .grid import Cell, CellGrid


class MapsHierarchy:
    """Unexplored-cell counters of the 2x2 blocks, updated per cell change."""

    def __init__(self, grid: CellGrid):
        self.grid = grid
        self._shapes: dict[int, tuple[float, float, int]] | None = None  # see block_shapes
        self.rebuild_counts()

    def block_shapes(self) -> dict[int, tuple[float, float, int]]:
        """Per block key: the extent center in cell units and the number of cells.

        A block's potential is its unexplored count divided by its number
        of cells, and its center breaks ties by distance. Built on the
        first selection, not in set-up. A block clipped at the far edge is
        one cell wide (or high) there.
        """
        if self._shapes is not None:
            return self._shapes
        s, w, h = self.grid.stride, self.grid.width, self.grid.height
        self._shapes = shapes = {}
        for c0 in range(0, w, 2):
            cx, nx = (c0 + 0.5, 2) if c0 + 1 < w else (float(c0), 1)
            for r0 in range(0, h, 2):
                cy, ny = (r0 + 0.5, 2) if r0 + 1 < h else (float(r0), 1)
                shapes[(c0 + 1) * s + r0 + 1] = (cx, cy, nx * ny)
        return shapes

    def rebuild_counts(self) -> None:
        """Recompute every counter from a fresh scan of the grid states."""
        flat = self.grid.flat
        s = self.grid.stride
        counts: dict[int, int] = {}
        for first in range(s + 1, (self.grid.width + 1) * s, 2 * s):  # per block column
            for key in range(first, first + self.grid.height, 2):
                # UNEXPLORED is byte 0; the frame's bytes are not
                n = (not flat[key]) + (not flat[key + 1])
                n += (not flat[key + s]) + (not flat[key + s + 1])
                if n:
                    counts[key] = n
        self.unexplored_count = counts

    def on_state_change(self, cell: Cell) -> None:
        """Count the cell out of its block: it just left the unexplored state.

        Cells leave that state once and never return, and the grid refuses
        every other transition (``MapConflictError``), so the caller passes
        only the cell, after the grid changed it.
        """
        key = ((cell[0] & -2) + 1) * self.grid.stride + (cell[1] & -2) + 1
        n = self.unexplored_count[key] - 1
        if n:
            self.unexplored_count[key] = n
        else:
            del self.unexplored_count[key]

    def unexplored_in_extent(self, key: int) -> list[Cell]:
        """Unexplored cells inside the block, scan order (row by row)."""
        flat = self.grid.flat
        s = self.grid.stride
        col, row = divmod(key, s)
        return [
            (c - 1, r - 1)
            for r in (row, row + 1)
            for c in (col, col + 1)
            if not flat[c * s + r]
        ]
