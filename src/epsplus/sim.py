"""Ground-truth world model: true obstacle map, sonar queries, move validation.

The sensor has a disk field of view: an obstacle cell is detected when its
center lies within range of the vehicle's cell center and the straight ray
between the two centers is not blocked by a nearer obstacle cell. Rays are
traced over the supercover cells of the segment, so obstacles hiding behind
other obstacles (including diagonal corner contacts) stay undetected until
seen from a better vantage point.

Ranges are in meters and cells are 1 m squares, so the cell offsets inside
the disk depend on the range alone: each :class:`SensorModel` computes them
once.
"""

from __future__ import annotations

import math

from .grid import Cell, ParsedMap
from .pathfind import supercover_line


class SensorModel:
    """Disk field-of-view sonar with a fixed range in meters."""

    def __init__(self, range_m: float):
        if not 0 < range_m < math.inf:
            raise ValueError(f"sensor range must be a positive finite number, got {range_m}")
        self.range_m = range_m = float(range_m)
        # cell offsets whose centers lie within range, in (dc, dr) order
        r_int = int(math.floor(range_m))
        limit = range_m * range_m + 1e-12
        self.offsets = sorted(
            (dc, dr)
            for dr in range(-r_int, r_int + 1)
            for dc in range(-r_int, r_int + 1)
            if (dc or dr) and dc * dc + dr * dr <= limit
        )


class GroundTruth:
    """Immutable true map used by the simulator; never read by the planner."""

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
        self._sense_cache: dict[tuple[float, Cell], frozenset[Cell]] = {}

    @classmethod
    def from_parsed(cls, parsed: ParsedMap) -> "GroundTruth":
        return cls(parsed.width, parsed.height, parsed.obstacles, parsed.station)

    def is_obstacle(self, cell: Cell) -> bool:
        return cell in self.obstacles

    def sense(self, sensor: SensorModel, pose: Cell) -> frozenset[Cell]:
        """Obstacle cells visible from the pose cell (in range, not occluded)."""
        if self.is_obstacle(pose):
            raise ValueError(f"sensor pose {pose} is inside an obstacle")
        key = (sensor.range_m, pose)
        cached = self._sense_cache.get(key)
        if cached is not None:
            return cached
        detected = set()
        for dc, dr in sensor.offsets:
            target = (pose[0] + dc, pose[1] + dr)
            if not (0 <= target[0] < self.width and 0 <= target[1] < self.height):
                continue
            if not self.is_obstacle(target):
                continue
            blocked = False
            for cell in supercover_line(pose, target):
                if cell == target:
                    break
                if cell != pose and self.is_obstacle(cell):
                    blocked = True
                    break
            if not blocked:
                detected.add(target)
        result = frozenset(detected)
        self._sense_cache[key] = result
        return result

    def validate_move(self, frm: Cell, to: Cell) -> bool:
        """True iff the target is free and at most one 8-connected step away."""
        for cell in (frm, to):
            if not (0 <= cell[0] < self.width and 0 <= cell[1] < self.height):
                return False
        if self.is_obstacle(to):
            return False
        return abs(to[0] - frm[0]) <= 1 and abs(to[1] - frm[1]) <= 1
