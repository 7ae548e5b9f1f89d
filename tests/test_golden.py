"""Golden outputs: SHA-256 of ``trajectory.csv``, ``report.txt`` and
``trajectory.svg`` per bundled scenario.

A refactor must keep these byte-identical. A change that alters the outputs
on purpose re-pins the hashes and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from epsplus.config import MissionConfig
from epsplus.grid import parse_map_text
from epsplus.mission import Mission, log_to_csv, report_to_text
from epsplus.render import render_svg
from epsplus.sim import GroundTruth

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SMALL_OFFICE_CONFIG = MissionConfig(
    capacity_e0=14.0, travel_rate=0.5, coverage_rate=1.0, sensor_range=1.5
)

GOLDEN = {
    "field_a": (
        MissionConfig(),
        "1426904c223b4f402b1eaf8b6b585d4c5f8004b024ae7555157e1c9b5d173667",
        "4ac7fbd437b300b8b38aa547bbf9b231af11092bde79856112611ece649eb000",
        "24e9e290880b84c8b65d77bbbd62e2d7a35f06c73718e852a7809ac4834f8c8d",
    ),
    "field_b": (
        MissionConfig(),
        "e3aca093ec5c1fbfb097cae13c1b364f0285bfd5c5c3660ce6a17d92aaa7a151",
        "f526174033315845ac8784ad9f0e665a6a72214aa3368ae3d21857368f44c76d",
        "3197ea31aca9b85faf3f8fa310c3648f55d18613e5d9381ef536fd13d5475f85",
    ),
    "small_office": (
        SMALL_OFFICE_CONFIG,
        "5082f6c8bef5c8430915c8675430e9ff557e57a657a43bd72fd0847d42c8a123",
        "2832dcd7a62c51e766c3d19cabc34773bce2cad37690fa7b827ebbd6a2bfc5ba",
        "f967381c2a49e1253039f00826bb61bc7ad2a145cc0ff07c26f57e181f4ad68e",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name):
    config, csv_sha, report_sha, svg_sha = GOLDEN[name]
    parsed = parse_map_text((SCENARIOS / f"{name}.txt").read_text())
    mission = Mission(GroundTruth.from_parsed(parsed), config)
    report = mission.run()
    assert _sha256(log_to_csv(mission.log_rows)) == csv_sha
    assert _sha256(report_to_text(report)) == report_sha
    assert _sha256(render_svg(parsed, mission.log_rows)) == svg_sha
