"""Belief map: the finest tiling and per-cell symbolic state.

One cell is a 1 m square, the vehicle's footprint, so distances between
cell centers are in meters. Cells are addressed as ``(col, row)`` tuples
with column 0 at the left and row 0 at the bottom. Each cell carries one of
three symbolic states:

* ``UNEXPLORED`` -- nothing known yet (initial state of every cell),
* ``EXPLORED``   -- the vehicle has traversed the cell,
* ``OBSTACLE``   -- a detected obstacle occupies the cell.

State transitions are one-way: unexplored cells may become explored or
obstacle; explored and obstacle are absorbing. So each cell changes state
at most once, and the two mutators append the flat index of every cell
they change to ``changes``, an append-only log of at most width x height
ints. Caches derived from the states (the visibility-graph cores in
``pathfind``) remember how far into the log they have read, and catch up
by reading only the cells changed since.

The states live in one ``bytearray``, ``flat``: column-major inside a
one-cell frame of ``BORDER`` bytes, so cell ``(c, r)`` is at
``(c + 1) * stride + r + 1`` with ``stride = height + 2``. Flat indices
order like ``(col, row)`` tuples, and an offset from ``steps`` added to a
cell's index lands on a cell or the frame, so walks need no bounds checks.

``reachable_unexplored()`` returns a mask indexed like ``flat``: 1 at each
unexplored cell 8-connected to the station through non-obstacle cells. The
first call floods the map. After that every update keeps the mask exact:

* A traversal clears its cell's bit; connectivity is unchanged.
* A sensor update marks its new obstacles one at a time, in sorted order,
  and tests each right after marking it, so the batch's later cells still
  count as free. A cell that was not reachable cuts nothing reachable.
* A reachable cell whose free 8-neighbours are 8-connected inside its ring
  is a simple point (Rosenfeld): removing it cuts nothing. Two orthogonal
  neighbours touch diagonally. A table of the 256 free-ring masks, built at
  import, gives one seed per ring component.
* Otherwise one search per ring component runs in lockstep over
  non-obstacle cells, explored ones included, and searches that meet merge.
  Once at most one group is still searching, each finished group is a
  whole component cut off from the station, and its bits are cleared. This
  is the interleaved search of Even & Shiloach ("An on-line edge-deletion
  problem", J. ACM 1981); it costs about the pocket's size per search.
* If a finished group holds the station, the mask is dropped instead, and
  the next call floods only the station's small component.

The static field ``b`` assigns every unexplored cell a positive integer
potential that is constant along a column and strictly decreasing from left
to right (``b(col) = width - col``), which biases the sweep into a
left-to-right column pattern. The planner applies it through its neighbour
order (``planner._NEIGHBOR_ORDER``), so the grid stores no field.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from enum import IntEnum
from typing import Iterable

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


def _ring_seeds(free: int) -> tuple[int, ...]:
    """One ring position per 8-connected component of the free ring cells.

    Bit k of ``free`` is set when ``NEIGHBORS_8[k]`` is free. Ring cells
    touch when they are 8-adjacent, so two orthogonal neighbours such as N
    and W touch diagonally.
    """
    left = [k for k in range(8) if free >> k & 1]
    seeds = []
    while left:
        seeds.append(left[0])
        stack = [left.pop(0)]
        while stack:
            ac, ar = NEIGHBORS_8[stack.pop()]
            touching = [
                k for k in left
                if abs(NEIGHBORS_8[k][0] - ac) < 2 and abs(NEIGHBORS_8[k][1] - ar) < 2
            ]
            for k in touching:
                left.remove(k)
                stack.append(k)
    return tuple(seeds)


# free-ring bits -> seeds; fewer than two seeds make the center a simple point
_RING_SEEDS = tuple(_ring_seeds(free) for free in range(256))


class CellGrid:
    """Dense belief grid of cell states inside a one-cell border frame."""

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
        self.changes = array("i")  # flat index of every state change, in order
        self._reach: bytearray | None = None  # reachable-unexplored mask, see reachable_unexplored
        self._vis_cores: dict = {}  # visibility-graph cores, kept by pathfind

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

    # -- updates ------------------------------------------------------------

    def apply_sensor_update(self, detected_obstacles: Iterable[Cell]) -> list[Cell]:
        """Mark detected obstacle cells, returning the newly marked ones, sorted.

        A detection on an explored cell or on the station contradicts the
        ground truth assumptions and raises :class:`MapConflictError`
        before any cell is marked. Repeated detections of the same cell are
        no-ops. The reachable mask, once filled, stays exact (module docstring).
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
        new.sort()
        flat = self.flat
        for cell in new:
            # in marking order, so the batch's later cells still count as free
            i = self.index(cell)
            flat[i] = CellState.OBSTACLE
            self.changes.append(i)
            if self._reach is not None and self._reach[i]:
                self._cut(i)
        return new

    def mark_traversed(self, cell: Cell) -> bool:
        """Record that the vehicle traversed the cell (unexplored -> explored).

        Returns True when this call marked the cell explored, False when it
        already was; traversing an obstacle cell raises :class:`MapConflictError`.
        """
        if not self.in_bounds(cell):
            raise ValueError(f"traversed cell {cell} out of bounds")
        i = self.index(cell)
        st = self.flat[i]
        if st == CellState.OBSTACLE:
            raise MapConflictError(f"cannot traverse obstacle cell {cell}")
        if st == CellState.EXPLORED:
            return False
        self.flat[i] = CellState.EXPLORED
        self.changes.append(i)
        if self._reach is not None:  # connectivity is unchanged
            self._reach[i] = 0
        return True

    # -- queries ------------------------------------------------------------

    def reachable_unexplored(self) -> bytearray:
        """Mask of the unexplored cells 8-connected to the station through non-obstacle cells.

        The mask is indexed like ``flat`` (1 = reachable and unexplored)
        and filled by the first call; the updates keep it exact after that.
        It is the live mask: callers must not modify it.
        """
        if self._reach is None:
            self._flood_unexplored()
        return self._reach

    def _flood_unexplored(self) -> None:
        # the station is never an obstacle (apply_sensor_update refuses it)
        flat = self.flat
        unexplored, obstacle = int(CellState.UNEXPLORED), int(CellState.OBSTACLE)
        offsets = [off for off, _ in self.steps]
        reached = [self.index(self.station)]
        seen, reach = bytearray(len(flat)), bytearray(len(flat))
        seen[reached[0]] = 1
        for i in reached:  # breadth-first: visits the cells appended meanwhile
            reach[i] = flat[i] == unexplored
            for off in offsets:
                j = i + off
                if not seen[j]:
                    seen[j] = 1
                    if flat[j] < obstacle:  # neither obstacle nor border
                        reached.append(j)
        self._reach = reach

    def _cut(self, i: int) -> None:
        """Keep the mask exact after the reachable cell at flat index ``i`` became an obstacle.

        A simple point, whose free ring cells are 8-connected inside the
        ring, cuts nothing; any other cell may cut off pockets.
        """
        self._reach[i] = 0
        flat = self.flat
        obstacle = int(CellState.OBSTACLE)
        free = 0
        for k, (off, _) in enumerate(self.steps):
            if flat[i + off] < obstacle:
                free |= 1 << k
        seeds = _RING_SEEDS[free]
        if len(seeds) > 1:
            self._clear_pockets([i + self.steps[k][0] for k in seeds])

    def _clear_pockets(self, starts: list[int]) -> None:
        """Clear from the mask the components of ``starts`` cut off from the station.

        One search per start runs in lockstep over non-obstacle cells
        (Even & Shiloach, J. ACM 1981), breadth-first from a frontier of
        its own; ``label`` maps every cell a search reached to the group of
        the start it came from. Searches that meet merge: the absorbing
        group takes the other's frontier, and ``into`` sends the other
        group to it. Once at most one group is still searching, every
        finished group is a whole component, and one without the station
        is a pocket whose labelled cells are cleared. A finished group
        that holds the station drops the mask instead, so the next fill
        floods only the station's component.
        """
        flat = self.flat
        obstacle = int(CellState.OBSTACLE)
        offsets = [off for off, _ in self.steps]
        n = len(starts)
        frontier = [deque([j]) for j in starts]  # per group: labelled cells still to expand
        into = list(range(n))  # group -> the group it merged into (itself while open)
        label = {j: g for g, j in enumerate(starts)}

        def root(g: int) -> int:
            while into[g] != g:
                g = into[g]
            return g

        searching = list(range(n))
        while len(searching) > 1:
            for g in searching:  # one expansion per searching group and round
                if into[g] != g or not frontier[g]:
                    continue
                c = frontier[g].popleft()
                for off in offsets:
                    j = c + off
                    if flat[j] >= obstacle:
                        continue
                    h = label.get(j)
                    if h is None:
                        label[j] = g
                        frontier[g].append(j)
                    elif (h := root(h)) != g:  # the searches met: one group from now on
                        frontier[g] += frontier[h]
                        frontier[h].clear()
                        into[h] = g
            searching = [g for g in searching if into[g] == g and frontier[g]]
        pocket = [into[g] == g and not frontier[g] for g in range(n)]
        station = label.get(self.index(self.station))
        if station is not None and pocket[root(station)]:
            self._reach = None
            return
        reach = self._reach
        for j, g in label.items():
            if pocket[root(g)]:
                reach[j] = 0

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


_MAP_CHARS_DELETED = str.maketrans("", "", ".#C")  # a row's invalid characters remain


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
        # whichever of a second station and an invalid character comes first raises
        invalid = line.translate(_MAP_CHARS_DELETED)
        end = line.find(invalid[0]) if invalid else width
        col = line.find("C", 0, end)
        while col >= 0:
            if station is not None:
                raise MapFormatError(f"multiple station cells: {station} and {(col, row)}")
            station = (col, row)
            col = line.find("C", col + 1, end)
        if invalid:
            raise MapFormatError(
                f"invalid character {invalid[0]!r} at line {lineno}, column {end + 1}"
            )
        col = line.find("#")
        while col >= 0:
            obstacles.add((col, row))
            col = line.find("#", col + 1)
    if station is None:
        raise MapFormatError("map has no station cell 'C'")
    return ParsedMap(width, height, frozenset(obstacles), station)

