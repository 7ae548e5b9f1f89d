import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from epsplus.cli import main, read_log_csv
from epsplus.config import parse_config
from epsplus.grid import ParsedMap, parse_map_text
from epsplus.render import COLORS, render_svg

from helpers import reference_render_svg

SMALL_MAP = "....\n.#..\nC...\n"
SEALED_MAP = (
    "......\n"
    ".####.\n"
    ".#..#.\n"
    ".####.\n"
    "C.....\n"
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    out = tmp_path / "out"
    rc = main(["run", map_path, "--out", str(out)])
    assert rc == 0
    for name in ("trajectory.csv", "report.txt", "trajectory.svg"):
        assert (out / name).is_file()
    report = (out / "report.txt").read_text()
    assert "covered_cells: 11" in report
    assert "uncoverable_cells: 0" in report


def test_run_deterministic_bytes(tmp_path):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    rc1 = main(["run", map_path, "--out", str(tmp_path / "a")])
    rc2 = main(["run", map_path, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    for name in ("trajectory.csv", "report.txt", "trajectory.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_sealed_room_exit_2(tmp_path):
    map_path = write(tmp_path, "m.txt", SEALED_MAP)
    rc = main(["run", map_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "uncoverable_cells: 2" in (tmp_path / "out" / "report.txt").read_text()


def test_run_huge_costs_keep_the_retreat_exit_2(tmp_path):
    # one coverage step costs the whole charge; the energy gate must still
    # count the 1.0 units of the retreat after it, not round them away
    map_path = write(tmp_path, "m.txt", "C....\n.#...\n.....\n")
    cfg_path = write(tmp_path, "cfg.txt", "capacity_e0 = 1e17\ncoverage_rate = 1e17\ntravel_rate = 1\n")
    rc = main(["run", map_path, "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "covered_cells: 1\n" in report and "uncoverable_cells: 13\n" in report


def test_run_map_without_station_exit_1(tmp_path, capsys):
    map_path = write(tmp_path, "m.txt", "....\n....\n")
    rc = main(["run", map_path, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "no station" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("....\n...\nC...\n", "line 2 has length 3"),
        ("", "map file is empty"),
        ("....\n.x..\nC...\n", "invalid character 'x'"),
        ("....\n\nC...\n", "line 2 is blank"),
    ],
    ids=["ragged_row", "empty_file", "invalid_character", "blank_interior_line"],
)
def test_run_malformed_map_exit_1(tmp_path, text, message):
    # run as a process, so an uncaught exception would show as a traceback
    map_path = write(tmp_path, "m.txt", text)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "epsplus.cli", "run", map_path, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["capacity_e0 = nan", "sensor_range = inf"])
def test_run_non_finite_config_exit_1(tmp_path, capsys, line):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    cfg_path = write(tmp_path, "cfg.txt", line + "\n")
    rc = main(["run", map_path, "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert "Traceback" not in err


def test_run_with_config(tmp_path):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    cfg_path = write(
        tmp_path,
        "cfg.txt",
        "# tight budget\ncapacity_e0 = 12\ntravel_rate = 0.5\nsensor_range = 1.5\n",
    )
    rc = main(["run", map_path, "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 0
    csv_rows = read_log_csv((tmp_path / "out" / "trajectory.csv").read_text())
    assert max(r[4] for r in csv_rows) <= 12.0


def test_env_var_default_out(tmp_path, monkeypatch):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    monkeypatch.setenv("EPSPLUS_OUT", str(tmp_path / "envout"))
    rc = main(["run", map_path])
    assert rc == 0
    assert (tmp_path / "envout" / "trajectory.csv").is_file()


def test_render_round_trip(tmp_path):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    out = tmp_path / "out"
    assert main(["run", map_path, "--out", str(out)]) == 0
    svg_path = tmp_path / "re.svg"
    rc = main(["render", str(out / "trajectory.csv"), map_path, "--out", str(svg_path)])
    assert rc == 0
    assert svg_path.read_bytes() == (out / "trajectory.svg").read_bytes()


def test_render_default_output_path(tmp_path):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    out = tmp_path / "out"
    main(["run", map_path, "--out", str(out)])
    rc = main(["render", str(out / "trajectory.csv"), map_path])
    assert rc == 0
    assert (out / "trajectory.svg").is_file()


def test_render_empty_log(tmp_path):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    log_path = write(
        tmp_path, "empty.csv",
        "trajectory_index,segment_kind,col,row,remaining_energy,cumulative_length\n",
    )
    svg_path = tmp_path / "empty.svg"
    rc = main(["render", log_path, map_path, "--out", str(svg_path)])
    assert rc == 0
    assert svg_path.read_text().startswith("<svg")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "error: log file is empty"),
        ("a,b\n", "error: unexpected log header: 'a,b'"),
    ],
)
def test_render_rejects_a_log_without_its_header(tmp_path, capsys, text, message):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    log_path = write(tmp_path, "bad.csv", text)
    rc = main(["render", log_path, map_path])
    assert rc == 1
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "bad.svg").exists()


def test_render_skips_blank_log_lines():
    header = "trajectory_index,segment_kind,col,row,remaining_energy,cumulative_length\n"
    rows = "1,coverage,0,0,5.0,0.0\n\n1,coverage,1,0,4.0,1.0\n"
    assert read_log_csv(header + rows) == [(1, "coverage", 0, 0, 5.0, 0.0), (1, "coverage", 1, 0, 4.0, 1.0)]


def test_render_out_of_bounds_cell_errors(tmp_path, capsys):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    log_path = write(
        tmp_path, "bad.csv",
        "trajectory_index,segment_kind,col,row,remaining_energy,cumulative_length\n"
        "1,coverage,9,9,1.0,0.0\n",
    )
    rc = main(["render", log_path, map_path])
    assert rc == 1
    assert "outside" in capsys.readouterr().err


def test_render_unknown_segment_kind_exit_1(tmp_path, capsys):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    log_path = write(
        tmp_path, "bad.csv",
        "trajectory_index,segment_kind,col,row,remaining_energy,cumulative_length\n"
        "1,coverage,0,0,5.0,0.0\n"
        "1,bogus,1,0,4.0,1.0\n",
    )
    rc = main(["render", log_path, map_path])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3" in err and "'bogus'" in err
    assert not (tmp_path / "bad.svg").exists()


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,coverage,x,0,5.0,0.0", "error: log line 2: col needs an integer, got 'x'"),
        ("1,coverage,0,0,full,0.0", "error: log line 2: remaining_energy needs a number, got 'full'"),
        ("1,coverage,0,0,5.0", "error: log line 2: 5 fields, expected 6"),
    ],
)
def test_render_malformed_log_row_names_line_and_column(tmp_path, capsys, row, message):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    log_path = write(
        tmp_path, "bad.csv",
        "trajectory_index,segment_kind,col,row,remaining_energy,cumulative_length\n" + row + "\n",
    )
    rc = main(["render", log_path, map_path])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not (tmp_path / "bad.svg").exists()


def test_render_single_step_log(tmp_path):
    parsed = parse_map_text(SMALL_MAP)
    rows = [(1, "coverage", 0, 0, 5.0, 0.0), (1, "coverage", 1, 0, 4.0, 1.0)]
    svg = render_svg(parsed, rows)
    assert svg.count("<polyline") == 1


@pytest.mark.parametrize("cell", [(-1, 0), (0, -1)])
def test_render_negative_cell_errors(cell):
    # a negative column or row would index the coordinate tables from their end
    parsed = parse_map_text(SMALL_MAP)
    rows = [(1, "coverage", 0, 0, 5.0, 0.0), (1, "coverage", *cell, 4.0, 1.0)]
    with pytest.raises(ValueError, match="outside"):
        render_svg(parsed, rows)


@pytest.mark.parametrize("station", [(-1, 0), (4, 0), (0, 3)])
def test_render_station_outside_the_map_errors(station):
    parsed = ParsedMap(4, 3, frozenset(), station)
    with pytest.raises(ValueError, match="outside"):
        render_svg(parsed, [])


@st.composite
def _maps_and_logs(draw):
    """A map of 1 to 6 cells a side and a log over its cells; the trajectory
    index rises by 0 or 1 a row, so one-row groups and one kind in
    consecutive trajectories both occur."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    parsed = ParsedMap(width, height, draw(st.frozensets(cells, max_size=8)), draw(cells))
    steps = st.tuples(st.booleans(), st.sampled_from(sorted(COLORS)), cells)
    rows, ti = [], 1
    for new_trajectory, kind, (col, row) in draw(st.lists(steps, max_size=25)):
        ti += new_trajectory
        rows.append((ti, kind, col, row, 1.0, 0.0))
    return parsed, rows


@given(_maps_and_logs())
@settings(max_examples=200)
@example((ParsedMap(1, 1, frozenset(), (0, 0)), []))
@example((ParsedMap(1, 4, frozenset({(0, 3)}), (0, 0)), [(1, "coverage", 0, 0, 5.0, 0.0)]))
@example(
    (
        # one-row groups, retreat in trajectories 1 and 2, and all four edges
        ParsedMap(4, 3, frozenset({(1, 1), (3, 2)}), (0, 0)),
        [
            (1, "coverage", 0, 0, 5.0, 0.0),
            (1, "coverage", 3, 0, 4.0, 3.0),
            (1, "retreat", 3, 1, 3.0, 4.0),
            (2, "retreat", 2, 2, 2.0, 5.4),
            (2, "advance", 0, 2, 1.0, 7.4),
            (2, "coverage", 0, 1, 0.5, 8.4),
        ],
    )
)
def test_render_svg_matches_the_per_row_renderer(case):
    parsed, rows = case
    assert render_svg(parsed, rows) == reference_render_svg(parsed, rows)


def test_run_bundled_field_scenario(tmp_path):
    from pathlib import Path

    field = Path(__file__).resolve().parent.parent / "scenarios" / "field_b.txt"
    out = tmp_path / "out"
    rc = main(["run", str(field), "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    recharges = int(next(l for l in report.splitlines() if l.startswith("recharge_count:")).split()[1])
    assert recharges >= 1


def test_config_defaults_and_overrides():
    cfg = parse_config("")
    assert cfg.capacity_e0 == 320.0
    assert cfg.travel_rate == 0.5
    assert cfg.coverage_rate == 1.0  # derived 2x travel
    assert cfg.sensor_range == 5.0

    cfg2 = parse_config("travel_rate = 0.25\n")
    assert cfg2.coverage_rate == 0.5

    cfg3 = parse_config("coverage_rate = 0.7\ntravel_rate=0.5")
    assert cfg3.coverage_rate == 0.7


@pytest.mark.parametrize(
    "text",
    [
        "unknown_key = 3",
        "capacity_e0 = fast",
        "capacity_e0 : 3",
        "levels = 2.5",
        "levels = 3",
        "levels = auto",
        "capacity_e0 = -1",
        "capacity_e0 = nan",
        "travel_rate = inf",
        "coverage_rate = -inf",
        "sensor_range = inf",
        "capacity_e0 = 3\n# later\ncapacity_e0 = 500",
    ],
)
def test_config_rejects_bad_input(text):
    with pytest.raises(ValueError):
        parse_config(text)


@pytest.mark.parametrize("key", ["capacity_e0", "travel_rate", "coverage_rate", "sensor_range"])
@pytest.mark.parametrize("value", ["0", "-0.5"])
def test_run_rejects_a_rate_or_range_that_is_not_positive(tmp_path, capsys, key, value):
    map_path = write(tmp_path, "m.txt", SMALL_MAP)
    cfg = write(tmp_path, "cfg.txt", f"{key} = {value}\n")
    out = tmp_path / "out"
    rc = main(["run", map_path, "--config", cfg, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {key} must be positive\n"
    assert not out.exists()


def test_config_repeated_key_names_both_lines():
    with pytest.raises(ValueError, match="line 3: capacity_e0 already set on line 1"):
        parse_config("capacity_e0 = 3\n# later\ncapacity_e0 = 500")


def test_run_sensor_range_beyond_the_map(tmp_path):
    # the sonar's disk is clipped to the map, so a range far beyond it
    # senses exactly what a range of the map's diagonal senses
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "small_office.txt"
    parsed = parse_map_text(scenario.read_text())
    outputs = []
    for range_m in (1e9, math.hypot(parsed.width, parsed.height)):
        cfg = write(tmp_path, "cfg.txt", f"capacity_e0 = 14\nsensor_range = {range_m!r}\n")
        out = tmp_path / f"out-{range_m!r}"
        rc = main(["run", str(scenario), "--config", cfg, "--out", str(out)])
        outputs.append((rc, (out / "trajectory.csv").read_bytes(), (out / "report.txt").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
