"""Online coverage path planning for an energy-constrained vehicle.

The planner sweeps an a-priori-unknown 2D grid with back-and-forth motion
driven by potential surfaces, monitors the energy budget, retreats to the
charging station before the battery runs out, and resumes from a nearby
unexplored cell after each recharge.
"""

from .config import MissionConfig, parse_config
from .energy import EnergyState, SegmentKind
from .errors import EnergyExhaustedError, MapConflictError, MapFormatError, PlanningError
from .grid import CellGrid, CellState, ParsedMap, parse_map_text
from .hierarchy import MapsHierarchy
from .mission import (
    Mission,
    MissionEvent,
    MissionReport,
    Trajectory,
    TrajectorySegment,
    log_to_csv,
    report_to_text,
)
from .pathfind import (
    DistanceField,
    PathResult,
    VisibilityGraph,
    astar,
    build_visibility_graph,
    explored_only,
    grid_astar,
    non_obstacle,
    obstacle_vertices,
    supercover_line,
)
from .planner import next_waypoint, restart_point
from .render import render_svg
from .sim import GroundTruth, SensorModel

__version__ = "0.1.0"

__all__ = [
    "CellGrid",
    "CellState",
    "DistanceField",
    "EnergyExhaustedError",
    "EnergyState",
    "GroundTruth",
    "MapConflictError",
    "MapFormatError",
    "MapsHierarchy",
    "Mission",
    "MissionConfig",
    "MissionEvent",
    "MissionReport",
    "ParsedMap",
    "PathResult",
    "PlanningError",
    "SegmentKind",
    "SensorModel",
    "Trajectory",
    "TrajectorySegment",
    "VisibilityGraph",
    "astar",
    "build_visibility_graph",
    "explored_only",
    "grid_astar",
    "log_to_csv",
    "next_waypoint",
    "non_obstacle",
    "obstacle_vertices",
    "parse_config",
    "parse_map_text",
    "render_svg",
    "report_to_text",
    "restart_point",
    "supercover_line",
]
