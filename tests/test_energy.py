import math
import random

import pytest

from epsplus.energy import EnergyState, SegmentKind
from epsplus.errors import EnergyExhaustedError


def test_charge_full_resets():
    e = EnergyState(capacity=14.0)
    e.remaining = 0.5
    e.charge_full()
    assert e.remaining == 14.0
    e.charge_full()
    assert e.remaining == 14.0


def test_consume_travel_rate():
    e = EnergyState(capacity=14.0, travel_rate=0.5, coverage_rate=1.0)
    e.consume(4.0, SegmentKind.RETREAT)
    assert e.remaining == pytest.approx(12.0)


def test_consume_coverage_rate():
    e = EnergyState(capacity=14.0, travel_rate=0.5, coverage_rate=1.0)
    e.consume(3.0, SegmentKind.COVERAGE)
    assert e.remaining == pytest.approx(11.0)


def test_consume_zero_distance():
    e = EnergyState(capacity=10.0)
    e.consume(0.0, SegmentKind.ADVANCE)
    assert e.remaining == 10.0


def test_consume_insufficient_raises():
    e = EnergyState(capacity=1.0, travel_rate=0.5, coverage_rate=1.0)
    with pytest.raises(EnergyExhaustedError):
        e.consume(3.0, SegmentKind.COVERAGE)


def test_consume_slack_scales_with_the_capacity():
    # an absolute slack would let a tiny charge be overdrawn by half again
    e = EnergyState(capacity=1e-12, travel_rate=0.5, coverage_rate=1.0)
    with pytest.raises(EnergyExhaustedError):
        e.consume(1.5e-12, SegmentKind.COVERAGE)
    assert e.remaining == 1e-12
    # rounding dust well inside the slack still spends the whole charge
    e.consume(1e-12 * (1.0 + 1e-12), SegmentKind.COVERAGE)
    assert e.remaining == 0.0


def test_can_continue_examples():
    e = EnergyState(capacity=14.0, travel_rate=0.5, coverage_rate=1.0)
    assert e.can_continue(1.0, 5.0)
    e.remaining = 3.0
    assert not e.can_continue(1.0, 2.5)
    e.remaining = 3.5
    assert e.can_continue(1.0, 2.5)  # boundary: >= not >


def test_can_continue_keeps_a_retreat_the_sum_would_round_away():
    # 1e17 + 1.0 == 1e17: comparing against the sum would admit a step that
    # leaves nothing for the retreat
    e = EnergyState(capacity=1e17, travel_rate=1.0, coverage_rate=1e17)
    assert not e.can_continue(1e17, 1.0)


def test_can_continue_after_recharge():
    e = EnergyState(capacity=20.0)
    e.remaining = 0.0
    assert not e.can_continue(1.0, 1.0)
    e.charge_full()
    assert e.can_continue(1.0, 1.0)


def test_conservation_identity():
    rng = random.Random(1)
    e = EnergyState(capacity=500.0, travel_rate=0.5, coverage_rate=1.0)
    costs = []
    for _ in range(200):
        kind = rng.choice(list(SegmentKind))
        d = rng.uniform(0.0, 2.0)
        costs.append(e.consume(d, kind))
    assert abs((e.capacity - e.remaining) - math.fsum(costs)) <= 1e-9


def test_validation():
    with pytest.raises(ValueError):
        EnergyState(capacity=0.0)
    with pytest.raises(ValueError):
        EnergyState(capacity=1.0, travel_rate=-1.0)
    e = EnergyState(capacity=1.0)
    with pytest.raises(ValueError):
        e.can_continue(-1.0, 0.0)
    with pytest.raises(ValueError):
        e.consume(-1.0, SegmentKind.RETREAT)
