import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from epsplus.config import MissionConfig
from epsplus.grid import parse_map_text
from epsplus.sim import GroundTruth, SensorModel

from helpers import full_sense, map_text, random_rect_obstacles, reference_sense, supercover_oracle

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def oracle_sense(gt, range_m, pose):
    """Ray-cast oracle using the rational supercover enumeration."""
    out = set()
    for target in sorted(gt.obstacles):
        d = math.hypot(target[0] - pose[0], target[1] - pose[1])
        if d > range_m:
            continue
        ray = supercover_oracle(pose, target)
        blocked = any(c in gt.obstacles for c in ray if c not in (pose, target))
        if not blocked:
            out.add(target)
    return out


def test_from_parsed_and_validation():
    parsed = parse_map_text("#..\n.C.\n")
    gt = GroundTruth.from_parsed(parsed)
    assert gt.station == (1, 0)
    assert gt.is_obstacle((0, 1))
    with pytest.raises(ValueError):
        GroundTruth(3, 3, frozenset({(1, 1)}), (1, 1))
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SensorModel(bad)


def test_sense_empty_world():
    gt = GroundTruth(5, 5, frozenset(), (0, 0))
    assert full_sense(gt, SensorModel(2.5), (2, 2)) == frozenset()


def test_sense_single_obstacle_in_range():
    gt = GroundTruth(5, 5, frozenset({(3, 2)}), (0, 0))
    assert full_sense(gt, SensorModel(1.5), (2, 2)) == frozenset({(3, 2)})
    assert full_sense(gt, SensorModel(0.5), (2, 2)) == frozenset()


def test_sense_occlusion_behind_obstacle():
    gt = GroundTruth(7, 3, frozenset({(3, 1), (5, 1)}), (0, 0))
    detected = full_sense(gt, SensorModel(6.0), (1, 1))
    assert detected == frozenset({(3, 1)})
    assert detected == oracle_sense(gt, 6.0, (1, 1))


def test_sense_diagonal_squeeze_hides_cell():
    # flanking obstacles block the corner-grazing ray to the diagonal cell
    gt = GroundTruth(4, 4, frozenset({(1, 2), (2, 1), (2, 2)}), (0, 0))
    detected = full_sense(gt, SensorModel(3.0), (1, 1))
    assert (2, 2) not in detected
    assert detected == oracle_sense(gt, 3.0, (1, 1))


def test_sense_matches_oracle_on_random_maps():
    rng = random.Random(9)
    for _ in range(25):
        w, h = rng.randint(5, 14), rng.randint(5, 14)
        obstacles = random_rect_obstacles(rng, w, h, (0, 0), rng.uniform(0.05, 0.3))
        gt = GroundTruth(w, h, frozenset(obstacles), (0, 0))
        free = [(c, r) for r in range(h) for c in range(w) if (c, r) not in obstacles]
        pose = free[rng.randrange(len(free))]
        range_m = rng.choice([1.5, 2.5, 4.0])
        detected = full_sense(gt, SensorModel(range_m), pose)
        assert detected == oracle_sense(gt, range_m, pose)
        # soundness and range
        for cell in detected:
            assert gt.is_obstacle(cell)
            assert math.hypot(cell[0] - pose[0], cell[1] - pose[1]) <= range_m


def test_occlusion_monotonicity():
    rng = random.Random(13)
    for _ in range(15):
        w, h = rng.randint(6, 12), rng.randint(6, 12)
        obstacles = random_rect_obstacles(rng, w, h, (0, 0), 0.2)
        if not obstacles:
            continue
        gt = GroundTruth(w, h, frozenset(obstacles), (0, 0))
        pose = min((c, r) for c in range(w) for r in range(h) if (c, r) not in obstacles)
        sensor = SensorModel(5.0)
        base = full_sense(gt, sensor, pose)
        removed = sorted(obstacles)[0]
        gt2 = GroundTruth(w, h, frozenset(obstacles - {removed}), (0, 0))
        after = full_sense(gt2, sensor, pose)
        assert (base - {removed}) <= after


def test_validate_move():
    gt = GroundTruth(5, 5, frozenset({(2, 2)}), (0, 0))
    assert gt.validate_move((1, 1), (1, 2))
    assert gt.validate_move((1, 1), (2, 1))
    assert gt.validate_move((1, 1), (1, 1))
    assert not gt.validate_move((1, 1), (2, 2))  # obstacle target
    assert not gt.validate_move((1, 1), (3, 1))  # two-cell jump
    assert not gt.validate_move((0, 0), (-1, 0))


def test_map_text_helper_round_trip():
    obstacles = {(1, 1), (2, 3)}
    text = map_text(4, 5, obstacles, (0, 0))
    parsed = parse_map_text(text)
    assert parsed.obstacles == frozenset(obstacles)
    assert parsed.station == (0, 0)


# the sensor range of each bundled scenario's golden config
SCENARIO_RANGES = {
    "field_a": MissionConfig().sensor_range,
    "field_b": MissionConfig().sensor_range,
    "small_office": 1.5,
}


@pytest.mark.parametrize("name", sorted(SCENARIO_RANGES))
def test_templated_sense_matches_reference_on_every_free_pose(name):
    gt = GroundTruth.from_parsed(parse_map_text((SCENARIOS / f"{name}.txt").read_text()))
    range_m = SCENARIO_RANGES[name]
    sensor = SensorModel(range_m)
    poses = [(c, r) for r in range(gt.height) for c in range(gt.width) if not gt.is_obstacle((c, r))]
    for pose in poses:
        assert full_sense(gt, sensor, pose) == reference_sense(gt, range_m, pose), pose


@st.composite
def small_maps(draw):
    """A map of 1-8 by 1-8 cells with any obstacles except on the station (0, 0)."""
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = [(c, r) for r in range(h) for c in range(w) if (c, r) != (0, 0)]
    obstacles = draw(st.sets(st.sampled_from(cells))) if cells else set()
    return w, h, frozenset(obstacles)


@given(small_maps())
@example((1, 7, frozenset({(0, 2), (0, 5)})))
@example((7, 1, frozenset({(3, 0), (6, 0)})))
@example((1, 1, frozenset()))
@example((6, 5, frozenset({(2, 0), (0, 2), (5, 2), (3, 4), (2, 2), (3, 1)})))
@settings(max_examples=200, deadline=None)
def test_templated_sense_matches_reference_on_random_maps(shape):
    # every free pose, so every free edge and corner cell, at ranges below a
    # cell, on the diagonal step, and beyond the map's diagonal
    w, h, obstacles = shape
    gt = GroundTruth(w, h, obstacles, (0, 0))
    ranges = (0.5, 1.0, math.sqrt(2.0), 1.5, 2.5, 3.0, 5.0, math.hypot(w, h) + 1.0)
    for range_m in ranges:
        sensor = SensorModel(range_m)
        for pose in ((c, r) for r in range(h) for c in range(w) if (c, r) not in obstacles):
            assert full_sense(gt, sensor, pose) == reference_sense(gt, range_m, pose), (range_m, pose)


@given(small_maps(), st.data())
@settings(max_examples=200, deadline=None)
def test_a_shared_mask_reports_only_cells_not_reported_before(shape, data):
    # each reading under one mask is the full reading minus every cell
    # reported before, and the mask loses exactly the reported cells' bits
    w, h, obstacles = shape
    gt = GroundTruth(w, h, obstacles, (0, 0))
    sensor = SensorModel(data.draw(st.sampled_from((1.0, 1.5, 2.5, 4.0)), label="range"))
    free = [(c, r) for r in range(h) for c in range(w) if (c, r) not in obstacles]
    poses = data.draw(st.lists(st.sampled_from(free), max_size=12), label="poses")
    fresh = gt.targets(sensor).bits
    mask = gt.targets(sensor)
    reported = set()
    for pose in poses:
        before = mask.bits
        report = gt.sense(sensor, pose, mask)
        assert report == full_sense(gt, sensor, pose) - reported, pose
        assert mask.bits & ~before == 0, pose  # bits are only cleared
        reported |= report
    rays = gt._templates[sensor.range_m]
    cleared = fresh ^ mask.bits
    assert cleared == sum(1 << (rays.origin + r * rays.stride + c) for c, r in reported)
    assert mask.bits & ~fresh == 0


def test_sense_matches_reference_at_the_borders_of_larger_maps():
    # masks of a few thousand bits, read from every corner and every free
    # border pose, where a pose's window reaches into the padding; walking
    # the border in order, neighbouring poses share most of their targets
    rng = random.Random(23)
    for _ in range(4):
        w, h = rng.randint(30, 60), rng.randint(30, 60)
        corners = {(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)}
        obstacles = frozenset(random_rect_obstacles(rng, w, h, (0, 0), rng.uniform(0.1, 0.3)) - corners)
        gt = GroundTruth(w, h, obstacles, (0, 0))
        sensor = SensorModel(5.0)
        border = (
            [(c, 0) for c in range(w)]
            + [(w - 1, r) for r in range(1, h)]
            + [(c, h - 1) for c in range(w - 2, -1, -1)]
            + [(0, r) for r in range(h - 2, 0, -1)]
        )
        mask = gt.targets(sensor)
        reported = set()
        for pose in (cell for cell in border if cell not in obstacles):
            full = reference_sense(gt, 5.0, pose)
            assert full_sense(gt, sensor, pose) == full, (w, h, pose)
            report = gt.sense(sensor, pose, mask)
            assert report == full - reported, (w, h, pose)
            reported |= report


def test_sense_rejects_a_pose_off_the_map():
    gt = GroundTruth(3, 2, frozenset(), (0, 0))
    for pose in ((-1, 0), (3, 0), (0, 2), (0, -1)):
        with pytest.raises(ValueError):
            full_sense(gt, SensorModel(1.5), pose)


def test_ground_truth_rejects_a_bad_map():
    with pytest.raises(ValueError, match="bad dimensions 0x3"):
        GroundTruth(0, 3, frozenset(), (0, 0))
    with pytest.raises(ValueError, match=r"obstacle \(3, 0\) out of bounds"):
        GroundTruth(3, 3, frozenset({(3, 0)}), (0, 0))
    with pytest.raises(ValueError, match=r"station \(0, 3\) out of bounds"):
        GroundTruth(3, 3, frozenset(), (0, 3))


def test_sense_rejects_a_pose_on_an_obstacle():
    gt = GroundTruth(3, 2, frozenset({(1, 1)}), (0, 0))
    with pytest.raises(ValueError, match=r"sensor pose \(1, 1\) is inside an obstacle"):
        full_sense(gt, SensorModel(1.5), (1, 1))
