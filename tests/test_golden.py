"""Golden outputs: SHA-256 of ``trajectory.csv``, ``report.txt`` and
``trajectory.svg`` per bundled scenario, and per tight-budget map for the
first 8 of ``helpers.tight_budget_maps()`` (21-34 recharges each, with
sight-line retreat edges).

A refactor must keep these byte-identical. A change that alters the outputs
on purpose re-pins the hashes and says why in CHANGES.md.
"""

import hashlib
from itertools import islice
from pathlib import Path

import pytest

from epsplus.config import MissionConfig
from epsplus.grid import ParsedMap, parse_map_text
from epsplus.mission import Mission, log_to_csv, report_to_text
from epsplus.render import render_svg
from epsplus.sim import GroundTruth

from helpers import tight_budget_maps

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

# CSV, report and SVG per map, in tight_budget_maps() order
TIGHT_GOLDEN = (
    (
        "ed6b4641c680ac4d87a2c0c2d29f0e1c79ddef3865a1cad67f438aa5e16f58fe",
        "e9297fcc6de6142abdb0421b5017fcc94ae6ae8ee4071074008d0f883aa0bade",
        "aef09b1b83d5e8b54616e13db1fe31648d2837b4302bb3885f4858df38be7715",
    ),
    (
        "53d35ea5e6302a7e1f4b5807112de7bb579be57533b60e1898bc12ec7620e8ae",
        "ecb23256c4121bb6be488f8d9ca6ab613605e69e8207ed65f4940addbd6306c9",
        "0fc13f8b961211f896b410604358cd3914c20339350e200437e4ad5392f6bb46",
    ),
    (
        "56c164492e3383912ce7715b212384f1491ddeec64bac451490b051260babfab",
        "ab4607e6cbdd49240af88e3a679db415a8dd414d40546e22666a94383e08c459",
        "6168fdbbb3c806cedf85b0089e137d8a71e994bb1340d9e89342a791eebba202",
    ),
    (
        "bbc9d171f6918d8b5882423a83f9d675deddd2de43a77d48df8f725194526c82",
        "de2ab999d77a87e7a3f29fb554bc2f5a60a695c1618b95702204ec4dd91f08ef",
        "b59d4832e777ea3da9ae1894c6eee01b3330184af5e5c42a88ac33d2eb886691",
    ),
    (
        "eeaa5065b8ef31c7a81347f1b7d756a8b78e9588c3b22ae27bf705fd9c90e820",
        "624a1d26ed03b64fbb14770fec1a5382563c86ad77a94ed299b802cceaf0d143",
        "ebe9be9a9d1100b2fb9c4f67dafccb2f1cedd5f58e7594edcd6e3b2eccc80c02",
    ),
    (
        "c597411632022091d5b262dd67176f0b3652af851cefb1b9a5b876fbb19feca9",
        "358c509cc123815b71134e8453eceadf2f4d4dcaae7b26da723d5288c11096b6",
        "d2a4e749ad1009ee3702a7064418618b6963219343c69677053c171572ba1e8d",
    ),
    (
        "9fd67fc4db6318e6de4048e616868c296b64a158ec71ed93e07fcf72a94b8335",
        "003e529bc4cda5814a70af5e7079c4b606192f322360fccbc659fb591dcfdc1b",
        "1ac7106118a0ddb6f83ff8fa6ed3dbefaf4171b54c35e4af96fdb5210f8efe95",
    ),
    (
        "0a0ff208fbc973c5044f4d32b9f81c8677dce5cde40c01444baa0c7dd72220d0",
        "b1de1f33ef7e04927c765519b3aeb90e5f9b5157d0c5380758765ce1771a6957",
        "9d9cca404f0654ab17f2eda875201ef112007e11d4ec907cb9be5e5bb4e86aa3",
    ),
)


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


@pytest.mark.parametrize("index", range(len(TIGHT_GOLDEN)))
def test_golden_outputs_on_tight_budgets(index):
    gt, config, _ = next(islice(tight_budget_maps(), index, None))
    mission = Mission(gt, config)
    report = mission.run()
    parsed = ParsedMap(gt.width, gt.height, gt.obstacles, gt.station)
    hashes = (
        _sha256(log_to_csv(mission.log_rows)),
        _sha256(report_to_text(report)),
        _sha256(render_svg(parsed, mission.log_rows)),
    )
    assert hashes == TIGHT_GOLDEN[index]
