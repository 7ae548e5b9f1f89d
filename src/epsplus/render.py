"""SVG rendering of a mission log over its map.

Obstacles are filled dark, the station is the yellow marker, and the three
segment kinds keep the usual color convention: coverage red, retreat blue,
advance green. Output is plain SVG text built with fixed formatting so the
same inputs always produce the same bytes.

A pixel coordinate depends on one axis only, so each render formats every
column and every row once, into four string tables: the cell centers that
log points and the station use, and the cell corners that obstacles use.
A log point is then two table strings joined by a comma, and an obstacle two
table strings and a constant tail. An entry is ``_fmt`` of the same
expression a point's own coordinate would be, so a lookup writes the same
bytes as formatting that point. The bounds checks over all log rows and the
station run before any table lookup: a negative column or row would
otherwise index a table from its end and draw a wrong point instead of
raising.
"""

from __future__ import annotations

from .grid import ParsedMap
from .mission import LogRow

SCALE = 14.0  # px per cell
MARGIN = 12.0

COLORS = {
    "coverage": "#d62728",
    "retreat": "#1f77b4",
    "advance": "#2ca02c",
}

OBSTACLE_FILL = "#3b3b3b"
STATION_FILL = "#ffcc00"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(parsed: ParsedMap, rows: list[LogRow]) -> str:
    width, height = parsed.width, parsed.height
    width_px = width * SCALE + 2 * MARGIN
    height_px = height * SCALE + 2 * MARGIN

    for _, _, col, row, _, _ in rows:
        if not (0 <= col < width and 0 <= row < height):
            raise ValueError(f"log cell ({col},{row}) outside {width}x{height} map")
    sc, sr = parsed.station
    if not (0 <= sc < width and 0 <= sr < height):
        raise ValueError(f"station ({sc},{sr}) outside {width}x{height} map")

    xs = [_fmt(MARGIN + (col + 0.5) * SCALE) for col in range(width)]
    ys = [_fmt(MARGIN + (height - 1 - row + 0.5) * SCALE) for row in range(height)]
    corner_xs = [_fmt(MARGIN + col * SCALE) for col in range(width)]
    corner_ys = [_fmt(MARGIN + (height - 1 - row) * SCALE) for row in range(height)]

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width_px)}"'
        f' height="{_fmt(height_px)}" viewBox="0 0 {_fmt(width_px)} {_fmt(height_px)}">',
        f'<rect x="0" y="0" width="{_fmt(width_px)}" height="{_fmt(height_px)}" fill="#ffffff"/>',
        f'<rect x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" width="{_fmt(width * SCALE)}"'
        f' height="{_fmt(height * SCALE)}" fill="none" stroke="#999999" stroke-width="1"/>',
    ]
    obstacle_tail = f'" width="{_fmt(SCALE)}" height="{_fmt(SCALE)}" fill="{OBSTACLE_FILL}"/>'
    for col, row in sorted(parsed.obstacles):
        out.append(f'<rect x="{corner_xs[col]}" y="{corner_ys[row]}{obstacle_tail}')

    # consecutive rows of one segment kind form one polyline; each group is
    # anchored at the previous row's point so segments connect visually
    prev_point: str | None = None
    group_kind: str | None = None
    group_points: list[str] = []

    def flush() -> None:
        if group_kind is not None and len(group_points) >= 2:
            pts = " ".join(group_points)
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{COLORS[group_kind]}"'
                f' stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
            )

    last_group: tuple[int, str] | None = None
    for ti, kind, col, row, _, _ in rows:
        point = xs[col] + "," + ys[row]
        if (ti, kind) != last_group:
            flush()
            group_points = [prev_point] if prev_point is not None else []
            group_kind = kind
            last_group = (ti, kind)
        group_points.append(point)
        prev_point = point
    flush()

    out.append(
        f'<circle cx="{xs[sc]}" cy="{ys[sr]}" r="{_fmt(SCALE * 0.45)}"'
        f' fill="{STATION_FILL}" stroke="#806000" stroke-width="1"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
