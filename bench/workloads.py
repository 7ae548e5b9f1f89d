"""Seeded workload generators.

A workload is a list of cases; the program under test only ever sees a
case's map text and config text, exactly what ``epsplus run`` reads from
disk. The generators are copied here rather than imported from the tests so
that the benchmark keeps working whatever the test suite becomes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

STATION = (0, 0)

# Generator seeds the workloads are defined with; ``--gen-seed`` replaces them.
DEFAULT_GEN_SEED = {"rect80": 7, "tight": 1}

# Fixed prefix of the tight stream: per-map cost is heavy-tailed (0.1-2.6 s
# on the first 40 maps of seed 1), so a prefix keeps the work per pass fixed.
TIGHT_MAPS = 12


@dataclass(frozen=True)
class Case:
    name: str
    map_text: str
    config_text: str | None  # None: the default config, as for a CLI run without --config
    full_coverage: bool  # every free cell 8-connected to the station must be covered


def random_rect_obstacles(rng: random.Random, width: int, height: int, station, density: float):
    """Random axis-aligned rectangles up to roughly the requested obstacle density."""
    target = int(density * width * height)
    obstacles = set()
    for _ in range(60):
        if len(obstacles) >= target:
            break
        w = rng.randint(1, max(1, width // 4))
        h = rng.randint(1, max(1, height // 4))
        c0 = rng.randrange(width - w + 1)
        r0 = rng.randrange(height - h + 1)
        rect = {(c, r) for c in range(c0, c0 + w) for r in range(r0, r0 + h)}
        if station in rect:
            continue
        obstacles |= rect
    return obstacles


def map_text(width: int, height: int, obstacles, station) -> str:
    """ASCII map in the ``epsplus`` format (top row first)."""
    lines = []
    for r in range(height - 1, -1, -1):
        lines.append(
            "".join(
                "#" if (c, r) in obstacles else "C" if (c, r) == station else "."
                for c in range(width)
            )
        )
    return "\n".join(lines) + "\n"


def fields(root: Path) -> list[Case]:
    """The bundled 50x50 field scenarios under the default config."""
    return [
        Case(name, (root / "scenarios" / f"{name}.txt").read_text(encoding="utf-8"), None, True)
        for name in ("field_a", "field_b")
    ]


def rect80(seed: int) -> list[Case]:
    """One 80x80 random-rectangle map at 20 % obstacles, default config."""
    rng = random.Random(seed)
    obstacles = random_rect_obstacles(rng, 80, 80, STATION, 0.2)
    return [Case(f"rect80-{seed}", map_text(80, 80, obstacles, STATION), None, True)]


def tight(seed: int) -> list[Case]:
    """Small maps with budgets of 0.6-1.1 x the diagonal and a 3 m sonar.

    Far cells cost more than a full charge, so missions recharge often, rule
    out infeasible restart points and end with uncoverable cells; the
    flood-fill coverage check does not apply.
    """
    rng = random.Random(seed)
    cases = []
    for i in range(TIGHT_MAPS):
        w = rng.randint(12, 20)
        h = rng.randint(12, 20)
        obstacles = random_rect_obstacles(rng, w, h, STATION, rng.uniform(0.05, 0.3))
        e0 = rng.uniform(0.6, 1.1) * math.hypot(w, h)
        config = f"capacity_e0 = {e0!r}\nsensor_range = 3.0\n"
        cases.append(Case(f"tight-{seed}-{i:02d}", map_text(w, h, obstacles, STATION), config, False))
    return cases


def build(workload: str, root: Path, gen_seed: int | None) -> list[Case]:
    """The cases of a workload; ``gen_seed`` None means the workload's default."""
    if workload == "fields":
        if gen_seed is not None:
            raise ValueError("fields runs the bundled scenarios and takes no generator seed")
        return fields(root)
    seed = DEFAULT_GEN_SEED[workload] if gen_seed is None else gen_seed
    return rect80(seed) if workload == "rect80" else tight(seed)


def flood_reachable(width: int, height: int, obstacles, station) -> set:
    """Free cells 8-connected to the station: the coverage oracle."""
    reached = {station}
    frontier = [station]
    while frontier:
        nxt = []
        for c, r in frontier:
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    n = (c + dc, r + dr)
                    if n in reached or n in obstacles:
                        continue
                    if 0 <= n[0] < width and 0 <= n[1] < height:
                        reached.add(n)
                        nxt.append(n)
        frontier = nxt
    return reached
