"""Mission configuration: defaults and the flat key = value file format."""

from __future__ import annotations

import math
from dataclasses import dataclass

_FLOAT_KEYS = ("capacity_e0", "travel_rate", "coverage_rate", "sensor_range")


@dataclass
class MissionConfig:
    """Run parameters; defaults match the bundled 50x50 field scenarios."""

    capacity_e0: float = 320.0
    travel_rate: float = 0.5
    coverage_rate: float | None = None  # None -> 2 * travel_rate
    sensor_range: float = 5.0

    def __post_init__(self) -> None:
        if self.coverage_rate is None:
            self.coverage_rate = 2.0 * self.travel_rate
        for key in _FLOAT_KEYS:
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be a finite number, got {value}")
        for key in _FLOAT_KEYS:
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")


def parse_config(text: str) -> MissionConfig:
    """Parse the flat ``key = value`` format ('#' starts a comment)."""
    values: dict[str, float] = {}
    seen_at: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in seen_at:
            raise ValueError(f"config line {lineno}: {key} already set on line {seen_at[key]}")
        if key not in _FLOAT_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = float(value)
        except ValueError:
            raise ValueError(f"config line {lineno}: {key} needs a number, got {value!r}")
        seen_at[key] = lineno
    return MissionConfig(**values)
