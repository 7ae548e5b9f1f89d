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
another row. The disk's targets in one row are a run of adjacent bytes, so
the templates hold, per disk row, the flat offsets where its run starts and
ends and, per target, the flat offsets of the supercover cells strictly
between the pose and the target. A pose then costs one byte search per
disk row, plus a walk of the cells between only where the search finds an
obstacle target.

The disk is clipped to the map's extent: no offset reaches further than the
map is wide or tall, so a range beyond the map's diagonal senses the whole
map without enumerating a disk larger than it.

Nothing is memoized per pose. Instead a caller keeps a target mask: a copy
of the templates' bytes of the obstacles some ray can reach
(``GroundTruth.targets``), from which ``sense`` clears every target it
reports. A ray's last cell before its target is a 4-neighbour of the
target, so an obstacle whose 4-neighbours on the map are all obstacles is
never detected and never a target. The byte search runs over the mask,
and occlusion is still tested on the true obstacle bytes, so a reading
reports exactly what a fresh mask would, minus the cells reported before
under the same mask. A mission keeps one mask and marks every report on
its belief grid, so what the mask hides is already marked, and most senses
walk no occluders at all (see ``mission``).
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

    __slots__ = ("stride", "origin", "obstacle", "visible", "rows")

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
        # the map (module docstring)
        self.visible = visible = bytearray(len(obstacle))
        last_c, last_r = gt.width - 1, gt.height - 1
        for c, r in gt.obstacles:
            i = self.origin + r * stride + c
            if (
                (c > 0 and not obstacle[i - 1])
                or (c < last_c and not obstacle[i + 1])
                or (r > 0 and not obstacle[i - stride])
                or (r < last_r and not obstacle[i + stride])
            ):
                visible[i] = 1
        limit = range_m * range_m + 1e-12
        rows = []
        for dr in range(-reach_r, reach_r + 1):
            # the disk's offsets in one row are a run -span..span around the
            # pose's column; the pose itself is free, so its template never fires
            span = max(dc for dc in range(reach_c + 1) if dc * dc + dr * dr <= limit)
            # the cells strictly between pose and target; a supercover line
            # stays inside the bounding box of its ends, so these lie on the
            # map whenever pose and target do
            between = tuple(
                array("i", (r * stride + c for c, r in supercover_line((0, 0), (dc, dr))[1:-1]))
                for dc in range(-span, span + 1)
            )
            rows.append((dr * stride - span, dr * stride + span + 1, -span, dr, between))
        self.rows = rows


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

    def targets(self, sensor: SensorModel) -> bytearray:
        """A fresh target mask for ``sense``: every obstacle a ray can reach is still to be reported."""
        return bytearray(self._rays(sensor.range_m).visible)

    def sense(self, sensor: SensorModel, pose: Cell, targets: bytearray) -> frozenset[Cell]:
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
        obstacle = rays.obstacle
        base = rays.origin + row * rays.stride + col  # flat index of the pose
        detected = []
        find = targets.find
        for lo, hi, dc0, dr, between in rays.rows:
            lo += base
            hi += base
            i = find(1, lo, hi)
            while i >= 0:
                for off in between[i - lo]:
                    if obstacle[base + off]:
                        break
                else:
                    detected.append((col + dc0 + i - lo, row + dr))
                    targets[i] = 0
                i = find(1, i + 1, hi)
        return frozenset(detected)

    def validate_move(self, frm: Cell, to: Cell) -> bool:
        """True iff the target is free and at most one 8-connected step away."""
        for cell in (frm, to):
            if not (0 <= cell[0] < self.width and 0 <= cell[1] < self.height):
                return False
        if self.is_obstacle(to):
            return False
        return abs(to[0] - frm[0]) <= 1 and abs(to[1] - frm[1]) <= 1
