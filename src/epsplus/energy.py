"""Energy budget tracking and the retreat decision rule.

Motion costs are proportional to distance: advance and retreat segments are
priced at the travel rate, coverage motion at the coverage rate (twice the
travel rate by default). The vehicle keeps covering while the remaining
energy still pays for reaching the next waypoint plus retreating from it;
equality counts as affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import EnergyExhaustedError

_DUST = 1e-9


class SegmentKind(Enum):
    ADVANCE = "advance"
    COVERAGE = "coverage"
    RETREAT = "retreat"


@dataclass
class EnergyState:
    """Full-charge capacity, the monitored remaining budget and the two rates."""

    capacity: float
    travel_rate: float = 0.5
    coverage_rate: float = 1.0
    remaining: float = field(init=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.travel_rate <= 0 or self.coverage_rate <= 0:
            raise ValueError("capacity and rates must be positive")
        self.remaining = self.capacity

    def rate_for(self, kind: SegmentKind) -> float:
        return self.coverage_rate if kind is SegmentKind.COVERAGE else self.travel_rate

    def charge_full(self) -> None:
        self.remaining = self.capacity

    def consume(self, distance: float, kind: SegmentKind) -> float:
        """Deduct the cost of moving ``distance`` meters; returns the cost."""
        if distance < 0:
            raise ValueError(f"negative distance {distance}")
        cost = distance * self.rate_for(kind)
        dust = _DUST * self.capacity  # rounding slack, in proportion to a charge
        if cost > self.remaining + dust:
            raise EnergyExhaustedError(
                f"needed {cost} units for {kind.value}, only {self.remaining} left"
            )
        self.remaining -= cost
        if -dust < self.remaining < 0.0:
            self.remaining = 0.0
        return cost

    def can_continue(self, step_cost: float, retreat_cost_from_waypoint: float) -> bool:
        """True while the budget covers the next step plus the retreat after it."""
        if step_cost < 0 or retreat_cost_from_waypoint < 0:
            raise ValueError("costs must be non-negative")
        # not remaining >= step + retreat: at large magnitudes the sum can
        # round the retreat cost away
        return self.remaining - step_cost >= retreat_cost_from_waypoint
