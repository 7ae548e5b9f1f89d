"""Online coverage path planning for an energy-constrained vehicle.

The planner sweeps an a-priori-unknown 2D grid with back-and-forth motion
driven by potential surfaces, monitors the energy budget, retreats to the
charging station before the battery runs out, and resumes from a nearby
unexplored cell after each recharge.

The package exports what a mission needs end to end: parse a map and a
config, run or step a ``Mission``, and write its log, report and SVG. The
planners, the belief grid and the other layers live in their submodules.
"""

from .config import MissionConfig, parse_config
from .errors import EnergyExhaustedError, MapConflictError, MapFormatError, PlanningError
from .grid import parse_map_text
from .mission import Mission, MissionEvent, log_to_csv, report_to_text
from .render import render_svg
from .sim import GroundTruth

__version__ = "0.1.0"

__all__ = [
    "EnergyExhaustedError",
    "GroundTruth",
    "MapConflictError",
    "MapFormatError",
    "Mission",
    "MissionConfig",
    "MissionEvent",
    "PlanningError",
    "log_to_csv",
    "parse_config",
    "parse_map_text",
    "render_svg",
    "report_to_text",
]
