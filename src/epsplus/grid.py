"""Belief map: the finest tiling, per-cell symbolic state and the static sweep field.

One cell is a 1 m square, the vehicle's footprint, so distances between
cell centers are in meters. Cells are addressed as ``(col, row)`` tuples
with column 0 at the left and row 0 at the bottom. Each cell carries one of
three symbolic states:

* ``UNEXPLORED`` -- nothing known yet (initial state of every cell),
* ``EXPLORED``   -- the vehicle has traversed the cell,
* ``OBSTACLE``   -- a detected obstacle occupies the cell.

State transitions are one-way: unexplored cells may become explored or
obstacle; explored and obstacle are absorbing. So equal counts of a state
mean the same cells, which is how caches derived from the states (the
visibility-graph cores in ``pathfind``) decide staleness.

The states live in one ``bytearray``, ``flat``: column-major inside a
one-cell frame of ``BORDER`` bytes, so cell ``(c, r)`` is at
``(c + 1) * stride + r + 1`` with ``stride = height + 2``. Flat indices
order like ``(col, row)`` tuples, and an offset from ``steps`` added to a
cell's index lands on a cell or the frame, so walks need no bounds checks.

The static field ``b`` assigns every unexplored cell a positive integer
potential that is constant along a column and strictly decreasing from left
to right (``b(col) = width - col``), which biases the sweep into a
left-to-right column pattern.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import Iterable, Iterator

from .errors import MapConflictError, MapFormatError

Cell = tuple[int, int]

NEIGHBORS_8 = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


class CellState(IntEnum):
    UNEXPLORED = 0
    EXPLORED = 1
    OBSTACLE = 2


BORDER = 3  # byte value of the frame around the grid; not a CellState
_STATE_OF = tuple(CellState)  # byte value -> CellState


class CellGrid:
    """Dense belief grid plus the static column-potential field."""

    def __init__(self, width: int, height: int, station: Cell):
        if width < 1 or height < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {width}x{height}")
        col, row = station
        if not (0 <= col < width and 0 <= row < height):
            raise ValueError(f"station {station} outside {width}x{height} grid")
        self.width = width
        self.height = height
        self.station = (int(col), int(row))
        self.stride = stride = height + 2
        edge = bytes([BORDER])
        self.flat = bytearray(edge * stride + (edge + bytes(height) + edge) * width + edge * stride)
        # (flat index offset, step length in meters) per move, in NEIGHBORS_8 order
        self.steps = tuple((dc * stride + dr, math.hypot(dc, dr)) for dc, dr in NEIGHBORS_8)
        self._reachable: set[Cell] | None = None  # flood-fill cache, see reachable_unexplored
        self._vis_cores: dict = {}  # visibility-graph cores, kept by pathfind
        self._sight_lines: dict = {}  # flat sight-line offsets per cell delta, kept by pathfind

    # -- indexing -----------------------------------------------------------

    def index(self, cell: Cell) -> int:
        """Flat index of an in-bounds cell."""
        return (cell[0] + 1) * self.stride + cell[1] + 1

    def cell_at(self, i: int) -> Cell:
        """The cell at a flat index (inverse of :meth:`index`)."""
        col, row = divmod(i, self.stride)
        return (col - 1, row - 1)

    def in_bounds(self, cell: Cell) -> bool:
        col, row = cell
        return 0 <= col < self.width and 0 <= row < self.height

    def state(self, cell: Cell) -> CellState:
        # index() inlined: this is the most called accessor
        return _STATE_OF[self.flat[(cell[0] + 1) * self.stride + cell[1] + 1]]

    def b_field(self, cell: Cell) -> int:
        """Static potential of the cell's column."""
        return self.width - cell[0]

    def cells(self) -> Iterator[Cell]:
        for row in range(self.height):
            for col in range(self.width):
                yield (col, row)

    def neighbors8(self, cell: Cell) -> list[Cell]:
        col, row = cell
        out = []
        for dc, dr in NEIGHBORS_8:
            n = (col + dc, row + dr)
            if 0 <= n[0] < self.width and 0 <= n[1] < self.height:
                out.append(n)
        return out

    # -- updates ------------------------------------------------------------

    def apply_sensor_update(self, detected_obstacles: Iterable[Cell]) -> list[Cell]:
        """Mark detected obstacle cells, returning the newly marked ones, sorted.

        A detection on an explored cell or on the station contradicts the
        ground truth assumptions and raises :class:`MapConflictError`
        before any cell is marked. Repeated detections of the same cell are
        no-ops.
        """
        new = []
        for cell in set(detected_obstacles):
            if not self.in_bounds(cell):
                raise ValueError(f"detected obstacle {cell} out of bounds")
            if cell == self.station:
                raise MapConflictError(f"obstacle detected on the station cell {cell}")
            st = self.flat[self.index(cell)]
            if st == CellState.EXPLORED:
                raise MapConflictError(f"obstacle detected on explored cell {cell}")
            if st == CellState.UNEXPLORED:
                new.append(cell)
        if new:
            new.sort()
            for cell in new:
                self.flat[self.index(cell)] = CellState.OBSTACLE
            self._reachable = None  # a new obstacle may cut the free space
        return new

    def mark_traversed(self, cell: Cell) -> None:
        """Record that the vehicle traversed the cell (unexplored -> explored)."""
        if not self.in_bounds(cell):
            raise ValueError(f"traversed cell {cell} out of bounds")
        i = self.index(cell)
        st = self.flat[i]
        if st == CellState.OBSTACLE:
            raise MapConflictError(f"cannot traverse obstacle cell {cell}")
        if st == CellState.EXPLORED:
            return
        self.flat[i] = CellState.EXPLORED
        if self._reachable is not None:
            self._reachable.discard(cell)  # connectivity is unchanged

    # -- queries ------------------------------------------------------------

    def reachable_unexplored(self) -> set[Cell]:
        """Unexplored cells 8-connected to the station through non-obstacle cells.

        The flood fill is cached until a sensor update adds an obstacle. The
        returned set is the live cache: callers must not modify it, and
        traversing a cell removes that cell from it.
        """
        if self._reachable is None:
            self._reachable = self._flood_unexplored()
        return self._reachable

    def _flood_unexplored(self) -> set[Cell]:
        # the station is never an obstacle (apply_sensor_update refuses it)
        flat = self.flat
        obstacle = int(CellState.OBSTACLE)
        offsets = [off for off, _ in self.steps]
        reached = [self.index(self.station)]
        seen = bytearray(len(flat))
        seen[reached[0]] = 1
        for i in reached:  # breadth-first: visits the cells appended meanwhile
            for off in offsets:
                j = i + off
                if not seen[j]:
                    seen[j] = 1
                    if flat[j] < obstacle:  # neither obstacle nor border
                        reached.append(j)
        return {self.cell_at(i) for i in reached if flat[i] == CellState.UNEXPLORED}

    def counts(self) -> dict[CellState, int]:
        return {s: self.flat.count(s) for s in CellState}


# -- ASCII map format ---------------------------------------------------------
#
# One line per row, top row first. Characters: '#' obstacle, '.' free,
# 'C' the single charging station. All lines must have equal length.


class ParsedMap:
    """Raw content of an ASCII map file."""

    def __init__(self, width: int, height: int, obstacles: frozenset[Cell], station: Cell):
        self.width = width
        self.height = height
        self.obstacles = obstacles
        self.station = station


def parse_map_text(text: str) -> ParsedMap:
    """Parse an ASCII map; blank lines may lead or trail it, not split its rows.

    Error messages number lines as in ``text``.
    """
    lines = text.splitlines()
    filled = [n for n, line in enumerate(lines) if line.strip()]
    if not filled:
        raise MapFormatError("map file is empty")
    first = filled[0]
    rows = lines[first : filled[-1] + 1]
    width = len(rows[0])
    height = len(rows)
    obstacles: set[Cell] = set()
    station: Cell | None = None
    for i, line in enumerate(rows):
        lineno = first + i + 1
        if not line.strip():
            raise MapFormatError(f"line {lineno} is blank inside the map")
        if len(line) != width:
            raise MapFormatError(
                f"line {lineno} has length {len(line)}, expected {width} (all rows must match)"
            )
        row = height - 1 - i
        for col, ch in enumerate(line):
            if ch == "#":
                obstacles.add((col, row))
            elif ch == "C":
                if station is not None:
                    raise MapFormatError(
                        f"multiple station cells: {station} and {(col, row)}"
                    )
                station = (col, row)
            elif ch != ".":
                raise MapFormatError(f"invalid character {ch!r} at line {lineno}, column {col + 1}")
    if station is None:
        raise MapFormatError("map has no station cell 'C'")
    return ParsedMap(width, height, frozenset(obstacles), station)

