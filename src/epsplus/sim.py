"""Ground-truth world model: true obstacle map, sonar queries, move validation.

The sensor has a disk field of view: an obstacle cell is detected when its
center lies within range of the vehicle's cell center and the straight ray
between the two centers is not blocked by a nearer obstacle cell. Rays are
traced over the supercover cells of the segment, so obstacles hiding behind
other obstacles (including diagonal corner contacts) stay undetected until
seen from a better vantage point.

Ranges are in meters and cells are 1 m squares. ``supercover_line`` is
translation-invariant, so the rays of one range are the same from every
pose: on the first use of a range, the ground truth builds the ray
templates of that range once. They index a copy of the obstacle map as
flat bytes, with a border wide enough that no target off the map wraps onto
another row. The disk's offsets from a pose span one window of those bytes,
from its first offset ``lo`` (top row, leftmost column) to its last; the
templates hold the disk as an int with bit ``k`` set for the window's byte
``k``, and per set bit the target's column and row offsets and the flat
offsets of the supercover cells strictly between the pose and the target.

The disk is clipped to the map's extent: no offset reaches further than the
map is wide or tall, so a range beyond the map's diagonal senses the whole
map without enumerating a disk larger than it.

Nothing is memoized per pose. Instead a caller keeps a target mask
(``GroundTruth.targets``): one int with bit ``i`` set when byte ``i`` of the
templates' layout is an obstacle some ray can reach and not yet reported.
A reading shifts the mask right to the pose's window and ANDs it with the
disk, one shift-and-AND per pose; an empty result returns at once.
Otherwise it walks the cells between only for the set bits, lowest first,
and clears every reported bit with one XOR. A ray's last cell before its
target is a 4-neighbour of the target, so an obstacle whose 4-neighbours on
the map are all obstacles is never detected and never a target. Occlusion
is tested on the true obstacle bytes, so a reading reports exactly what a
fresh mask would, minus the cells reported before under the same mask. A
mission keeps one mask and marks every report on its belief grid, so what
the mask hides is already marked, and most readings walk no occluders at
all (see ``mission``).
"""

from __future__ import annotations

import math
from array import array

from .grid import Cell, ParsedMap
from .pathfind import supercover_line


class SensorModel:
    """Disk field-of-view sonar with a fixed range in meters."""

    def __init__(self, range_m: float):
        if not 0 < range_m < math.inf:
            raise ValueError(f"sensor range must be a positive finite number, got {range_m}")
        self.range_m = float(range_m)


class _RayTemplates:
    """The ray templates of one sensor range over one map, and the bytes they index."""

    __slots__ = ("stride", "origin", "obstacle", "visible", "lo", "disk", "window")

    def __init__(self, gt: "GroundTruth", range_m: float):
        reach = math.floor(range_m)
        reach_c = min(reach, gt.width - 1)
        reach_r = min(reach, gt.height - 1)
        # a border of reach_c columns on each side and reach_r rows above and
        # below holds every in-range target of every pose on the map
        self.stride = stride = gt.width + 2 * reach_c
        self.origin = reach_r * stride + reach_c  # flat index of cell (0, 0)
        self.obstacle = obstacle = bytearray(stride * (gt.height + 2 * reach_r))
        for c, r in gt.obstacles:
            obstacle[self.origin + r * stride + c] = 1
        # the obstacles some ray can reach: those with a free 4-neighbour on
        # the map (module docstring), as '1' digits of a base-2 literal whose
        # last digit is byte 0
        visible = bytearray(b"0") * len(obstacle)
        last_c, last_r = gt.width - 1, gt.height - 1
        for c, r in gt.obstacles:
            i = self.origin + r * stride + c
            if (
                (c > 0 and not obstacle[i - 1])
                or (c < last_c and not obstacle[i + 1])
                or (r > 0 and not obstacle[i - stride])
                or (r < last_r and not obstacle[i + stride])
            ):
                visible[i] = ord("1")
        # base 2 converts in linear time and is exempt from the int-string digit limit
        self.visible = int(visible[::-1], 2)
        limit = range_m * range_m + 1e-12
        # the disk's offsets in one row are a run -span..span around the
        # pose's column; the pose itself is free, so its bit is never a target
        spans = [
            (dr, max(dc for dc in range(reach_c + 1) if dc * dc + dr * dr <= limit))
            for dr in range(-reach_r, reach_r + 1)
        ]
        self.lo = lo = -reach_r * stride - spans[0][1]
        disk = 0
        window = [None] * (reach_r * stride + spans[-1][1] + 1 - lo)
        for dr, span in spans:
            for dc in range(-span, span + 1):
                k = dr * stride + dc - lo
                disk |= 1 << k
                # the cells strictly between pose and target; a supercover
                # line stays inside the bounding box of its ends, so these lie
                # on the map whenever pose and target do
                between = array("i", (r * stride + c for c, r in supercover_line((0, 0), (dc, dr))[1:-1]))
                window[k] = (dc, dr, between)
        self.disk = disk
        self.window = window


class _Targets:
    """A target mask: bit ``i`` is set while the obstacle at byte ``i`` of the layout is unreported."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        self.bits = bits


class GroundTruth:
    """True map used by the simulator; never read by the planner.

    The map never changes. The ray templates of a sensor range are derived
    from it on the first ``targets`` or ``sense`` at that range.
    """

    def __init__(
        self,
        width: int,
        height: int,
        obstacles: frozenset[Cell],
        station: Cell,
    ):
        if width < 1 or height < 1:
            raise ValueError(f"bad dimensions {width}x{height}")
        for cell in obstacles:
            if not (0 <= cell[0] < width and 0 <= cell[1] < height):
                raise ValueError(f"obstacle {cell} out of bounds")
        if station in obstacles:
            raise ValueError(f"station {station} lies on an obstacle")
        if not (0 <= station[0] < width and 0 <= station[1] < height):
            raise ValueError(f"station {station} out of bounds")
        self.width = width
        self.height = height
        self.obstacles = frozenset(obstacles)
        self.station = station
        self._templates: dict[float, _RayTemplates] = {}

    @classmethod
    def from_parsed(cls, parsed: ParsedMap) -> "GroundTruth":
        return cls(parsed.width, parsed.height, parsed.obstacles, parsed.station)

    def is_obstacle(self, cell: Cell) -> bool:
        return cell in self.obstacles

    def _rays(self, range_m: float) -> _RayTemplates:
        rays = self._templates.get(range_m)
        if rays is None:
            rays = self._templates[range_m] = _RayTemplates(self, range_m)
        return rays

    def targets(self, sensor: SensorModel) -> _Targets:
        """A fresh target mask for ``sense``: every obstacle a ray can reach is still to be reported."""
        return _Targets(self._rays(sensor.range_m).visible)

    def sense(self, sensor: SensorModel, pose: Cell, targets: _Targets) -> frozenset[Cell]:
        """Obstacle cells visible from the pose cell (in range, not occluded) and set in ``targets``.

        ``targets`` is a mask from ``targets(sensor)``; each reported cell is
        cleared from it, so a later reading with the same mask leaves it out.
        """
        col, row = pose
        if not (0 <= col < self.width and 0 <= row < self.height):
            raise ValueError(f"sensor pose {pose} is off the map")
        if self.is_obstacle(pose):
            raise ValueError(f"sensor pose {pose} is inside an obstacle")
        rays = self._rays(sensor.range_m)
        base = rays.origin + row * rays.stride + col  # flat index of the pose
        shift = base + rays.lo  # flat index of the window's bit 0
        hits = (targets.bits >> shift) & rays.disk
        if not hits:
            return frozenset()
        obstacle = rays.obstacle
        window = rays.window
        detected = []
        reported = 0
        while hits:
            low = hits & -hits
            hits ^= low
            dc, dr, between = window[low.bit_length() - 1]
            for off in between:
                if obstacle[base + off]:
                    break
            else:
                detected.append((col + dc, row + dr))
                reported |= low
        if reported:
            targets.bits ^= reported << shift
        return frozenset(detected)

    def validate_move(self, frm: Cell, to: Cell) -> bool:
        """True iff the target is free and at most one 8-connected step away."""
        for cell in (frm, to):
            if not (0 <= cell[0] < self.width and 0 <= cell[1] < self.height):
                return False
        if self.is_obstacle(to):
            return False
        return abs(to[0] - frm[0]) <= 1 and abs(to[1] - frm[1]) <= 1
