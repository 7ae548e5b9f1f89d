import pytest
from hypothesis import example, given, settings, strategies as st

from epsplus.errors import MapConflictError, MapFormatError
from epsplus.grid import _RING_SEEDS, BORDER, NEIGHBORS_8, CellGrid, CellState, parse_map_text

from helpers import (
    b_field,
    flood_reachable,
    grid_cells,
    map_text,
    neighbors8,
    reachable_cells,
    reference_parse_map_text,
    ring_components,
)


def test_new_grid_50x50():
    grid = CellGrid(50, 50, (0, 0))
    assert all(grid.state(c) is CellState.UNEXPLORED for c in grid_cells(grid))
    assert b_field(grid, (0, 0)) == 50
    assert b_field(grid, (49, 17)) == 1


def test_new_grid_degenerate():
    grid = CellGrid(1, 1, (0, 0))
    assert grid.state((0, 0)) is CellState.UNEXPLORED
    assert b_field(grid, (0, 0)) == 1


def test_new_grid_column_plateaus():
    grid = CellGrid(3, 2, (0, 0))
    assert [b_field(grid, (c, 0)) for c in range(3)] == [3, 2, 1]
    assert [b_field(grid, (c, 1)) for c in range(3)] == [3, 2, 1]


def test_new_grid_station_out_of_bounds():
    with pytest.raises(ValueError):
        CellGrid(5, 5, (5, 0))
    with pytest.raises(ValueError):
        CellGrid(0, 5, (0, 0))


def test_sensor_update_single():
    grid = CellGrid(5, 5, (0, 0))
    assert grid.apply_sensor_update({(2, 3)}) == [(2, 3)]
    assert grid.state((2, 3)) is CellState.OBSTACLE


def test_sensor_update_empty():
    grid = CellGrid(5, 5, (0, 0))
    assert grid.apply_sensor_update(set()) == []


def test_sensor_update_absorbing():
    grid = CellGrid(5, 5, (0, 0))
    assert grid.apply_sensor_update({(2, 3)}) == [(2, 3)]
    assert grid.apply_sensor_update([(2, 3), (4, 1), (0, 4), (2, 3)]) == [(0, 4), (4, 1)]


def test_sensor_update_conflicts():
    grid = CellGrid(5, 5, (0, 0))
    grid.mark_traversed((1, 1))
    with pytest.raises(MapConflictError):
        grid.apply_sensor_update({(1, 1)})
    with pytest.raises(MapConflictError):
        grid.apply_sensor_update({(0, 0)})
    # a conflicting batch marks none of its cells
    with pytest.raises(MapConflictError):
        grid.apply_sensor_update([(2, 2), (1, 1), (3, 3)])
    assert grid.counts()[CellState.OBSTACLE] == 0
    with pytest.raises(ValueError):
        grid.apply_sensor_update({(9, 9)})


def test_flat_index_round_trip():
    grid = CellGrid(5, 3, (0, 0))
    indices = [grid.index(c) for c in grid_cells(grid)]
    assert [grid.cell_at(i) for i in indices] == list(grid_cells(grid))
    # flat indices order like (col, row) tuples
    assert sorted(indices) == [grid.index(c) for c in sorted(grid_cells(grid))]
    frame = set(range(len(grid.flat))) - set(indices)
    assert len(frame) == 2 * (5 + 3) + 4
    assert all(grid.flat[i] == BORDER for i in frame)
    for cell in [(0, 0), (4, 2), (2, 1)]:
        moved = [(cell[0] + dc, cell[1] + dr) for dc, dr in NEIGHBORS_8]
        assert [grid.cell_at(grid.index(cell) + off) for off, _ in grid.steps] == moved
        assert neighbors8(grid, cell) == [n for n in moved if grid.in_bounds(n)]
    with pytest.raises(ValueError):
        grid.mark_traversed((5, 0))


def test_mark_traversed():
    grid = CellGrid(4, 4, (0, 0))
    grid.mark_traversed((2, 2))
    assert grid.state((2, 2)) is CellState.EXPLORED
    grid.mark_traversed((2, 2))  # explored is absorbing
    assert grid.state((2, 2)) is CellState.EXPLORED
    grid.apply_sensor_update({(3, 3)})
    with pytest.raises(MapConflictError):
        grid.mark_traversed((3, 3))


def test_reachable_unexplored_open_grid():
    grid = CellGrid(3, 3, (0, 0))
    assert reachable_cells(grid) == {(c, r) for c in range(3) for r in range(3)}


def test_reachable_unexplored_sealed_cell():
    grid = CellGrid(5, 5, (0, 0))
    ring = {(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (1, 3), (2, 3), (3, 3)}
    grid.apply_sensor_update(ring)
    assert (2, 2) not in reachable_cells(grid)


def test_reachable_unexplored_wall_vs_oracle():
    grid = CellGrid(5, 5, (0, 0))
    wall = {(2, r) for r in range(5)}
    grid.apply_sensor_update(wall)
    expected = {
        c for c in flood_reachable(5, 5, wall, (0, 0))
        if grid.state(c) is CellState.UNEXPLORED
    }
    assert reachable_cells(grid) == expected


def test_parse_map_round_trip():
    text = "...#\n.#..\nC..#\n"
    parsed = parse_map_text(text)
    assert parsed.width == 4 and parsed.height == 3
    assert parsed.station == (0, 0)
    assert parsed.obstacles == {(3, 2), (1, 1), (3, 0)}
    assert map_text(parsed.width, parsed.height, parsed.obstacles, parsed.station) == text
    # leading and trailing blank lines are ignored
    padded = parse_map_text("\n \n" + text + "\n\t\n")
    assert (padded.width, padded.height, padded.obstacles, padded.station) == (
        parsed.width, parsed.height, parsed.obstacles, parsed.station
    )


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("..\n...\n", "length"),
        ("...\n...\n", "no station"),
        ("C..\n..C\n", "multiple station"),
        ("C.x\n...\n", "invalid character"),
        ("..\n\n.C\n", "line 2 is blank"),
        ("..\n  \n.C\n", "line 2 is blank"),
        ("\n\n..\n.x\nC.\n", "invalid character 'x' at line 4"),
        ("\n..\n...\nC.\n", "line 3 has length 3"),
    ],
)
def test_parse_map_errors(text, fragment):
    with pytest.raises(MapFormatError) as exc:
        parse_map_text(text)
    assert fragment in str(exc.value)


@st.composite
def _map_texts(draw):
    """Map-like texts: rows mostly of one width and of ``.#C``, with stray
    characters, whitespace, ragged and blank rows, and other line breaks."""
    width = draw(st.integers(1, 6))
    row = st.one_of(
        st.text(st.sampled_from("..##."), min_size=width, max_size=width),
        st.text(st.sampled_from("..#C"), min_size=width, max_size=width),
        st.text(st.sampled_from(".#C x\tc"), max_size=width + 1),
    )
    rows = draw(st.lists(row, min_size=1, max_size=5))
    station = draw(st.integers(0, len(rows) - 1))
    rows[station] = "C" + rows[station][1:]
    breaks = st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n", "\n \n"])
    return draw(st.sampled_from(["", "\n", " \n"])) + "".join(r + draw(breaks) for r in rows)


def _parsed_or_error(parse, text):
    try:
        parsed = parse(text)
    except MapFormatError as exc:
        return str(exc)
    return parsed.width, parsed.height, parsed.obstacles, parsed.station


@given(st.one_of(_map_texts(), st.text(".#C x\t\r\n", max_size=40)))
@settings(max_examples=250)
@example("C.C\n..x\n")
@example("C.x\nC..\n")
@example("..\n.C\nCx\n")
def test_parse_map_text_matches_the_per_character_parser(text):
    # the same map or the same error message, raised in the same scan order
    assert _parsed_or_error(parse_map_text, text) == _parsed_or_error(reference_parse_map_text, text)


def test_b_field_invariants_direct_scan():
    grid = CellGrid(17, 9, (0, 0))
    for col in range(17):
        plateau = {b_field(grid, (col, row)) for row in range(9)}
        assert len(plateau) == 1
        b = plateau.pop()
        assert 1 <= b <= grid.width
        if col > 0:
            assert b_field(grid, (col - 1, 0)) > b


def assert_blocks_whole(grid, reachable):
    """Each 2x2 block's unexplored cells lie in ``reachable`` all together or not at all.

    Coarse selection rests on this: it tests a block's reachability by its
    mask bytes and then takes every unexplored cell of the block.
    """
    blocks = {}
    for c in grid_cells(grid):
        if grid.state(c) is CellState.UNEXPLORED:
            blocks.setdefault((c[0] // 2, c[1] // 2), []).append(c)
    for block, cells in blocks.items():
        inside = [c in reachable for c in cells]
        assert all(inside) or not any(inside), (block, cells)


@given(
    st.lists(
        st.tuples(st.sampled_from(["sense", "traverse"]), st.integers(0, 35)),
        max_size=40,
    )
)
def test_state_transitions_monotone(ops):
    grid = CellGrid(6, 6, (0, 0))
    history = {c: [grid.state(c)] for c in grid_cells(grid)}
    for kind, raw in ops:
        cell = (raw % 6, raw // 6)
        if kind == "sense":
            if grid.state(cell) is CellState.UNEXPLORED and cell != grid.station:
                grid.apply_sensor_update({cell})
        else:
            if grid.state(cell) is not CellState.OBSTACLE:
                grid.mark_traversed(cell)
        for c in grid_cells(grid):
            if grid.state(c) is not history[c][-1]:
                history[c].append(grid.state(c))
        # the frame around the cells stays BORDER, and counts match the cells
        inside = {grid.index(c) for c in grid_cells(grid)}
        assert all(b == BORDER for i, b in enumerate(grid.flat) if i not in inside)
        assert grid.counts() == {s: sum(grid.state(c) is s for c in grid_cells(grid)) for s in CellState}
        # the reachable mask must match a fresh flood after every op
        obstacles = {c for c in grid_cells(grid) if grid.state(c) is CellState.OBSTACLE}
        expected = {
            c for c in flood_reachable(6, 6, obstacles, grid.station)
            if grid.state(c) is CellState.UNEXPLORED
        }
        assert reachable_cells(grid) == expected
        assert_blocks_whole(grid, expected)
    for c, seq in history.items():
        assert len(seq) <= 2
        if len(seq) == 2:
            assert seq[0] is CellState.UNEXPLORED


def _bits(*offsets):
    return sum(1 << NEIGHBORS_8.index(o) for o in offsets)


N, NE, E, SE, S, SW, W, NW = (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)


def _component(ring, a):
    """The ring cells 8-connected to ``a`` through ring cells."""
    reached, stack = {a}, [a]
    while stack:
        c = stack.pop()
        for b in ring - reached:
            if max(abs(b[0] - c[0]), abs(b[1] - c[1])) == 1:
                reached.add(b)
                stack.append(b)
    return reached


def test_ring_seed_table_matches_brute_force():
    # bit k of an entry's index marks NEIGHBORS_8[k] free; the entry holds one
    # free ring position per 8-connected component of the free ring cells
    for free in range(256):
        ring = {o for k, o in enumerate(NEIGHBORS_8) if free >> k & 1}
        seeds = [NEIGHBORS_8[k] for k in _RING_SEEDS[free]]
        assert len(seeds) == ring_components(ring), free
        parts = [_component(ring, a) for a in seeds]
        assert sum(len(part) for part in parts) == len(ring), free
        assert set().union(*parts) == ring, free
    # two orthogonal neighbours touch diagonally, whatever the corner between them holds
    assert len(_RING_SEEDS[_bits(N, W)]) == 1
    assert len(_RING_SEEDS[_bits(N, E)]) == 1
    assert len(_RING_SEEDS[_bits(N, E, S, W)]) == 1
    assert len(_RING_SEEDS[_bits(N, S)]) == 2
    assert len(_RING_SEEDS[_bits(E, W)]) == 2
    assert len(_RING_SEEDS[_bits(NW, NE)]) == 2
    assert len(_RING_SEEDS[_bits(NW, NE, SE, SW)]) == 4
    assert len(_RING_SEEDS[_bits(NW, N, NE)]) == 1
    assert _RING_SEEDS[0] == () and len(_RING_SEEDS[255]) == 1


class CutRecording(CellGrid):
    """Records, per reachable cell that a sensor update turns into an obstacle,
    the number of components of its free ring and whether it searched for pockets."""

    def __init__(self, width, height, station):
        super().__init__(width, height, station)
        self.cuts = []

    def _cut(self, i):
        col, row = self.cell_at(i)
        ring = {
            (dc, dr) for dc, dr in NEIGHBORS_8
            if self.in_bounds((col + dc, row + dr))
            and self.state((col + dc, row + dr)) is not CellState.OBSTACLE
        }
        self.cuts.append([ring_components(ring), False])
        super()._cut(i)

    def _clear_pockets(self, starts):
        self.cuts[-1][1] = True
        super()._clear_pockets(starts)


_RING_AROUND_33 = [(2, 2), (3, 2), (4, 2), (4, 3), (4, 4), (3, 4), (2, 4), (2, 3)]
_WALL_AROUND_CORNER = [(5, 7), (5, 6), (5, 5), (6, 5), (7, 5)]  # of an 8x8 grid

_carve = st.one_of(
    st.tuples(st.just("wall"), st.integers(0, 8), st.integers(0, 8), st.integers(1, 3), st.integers(1, 3)),
    st.tuples(st.just("traverse"), st.integers(0, 8), st.integers(0, 8), st.just(1), st.just(1)),
)


@given(st.integers(3, 9), st.integers(3, 9), st.integers(0, 80), st.lists(_carve, max_size=30))
# a 3x3 batch across a corridor: each of its cells is simple once all are marked
@example(9, 3, 0, [("wall", 4, 0, 3, 3)])
# the station (3, 3) enclosed by one batch, then cell by cell
@example(7, 7, 24, [("wall", 2, 2, 3, 3)])
@example(7, 7, 24, [("wall", c, r, 1, 1) for c, r in _RING_AROUND_33])
# a pocket of explored and unexplored cells cut off far from the station
@example(8, 8, 0, [("traverse", 7, 7, 1, 1)] + [("wall", c, r, 1, 1) for c, r in _WALL_AROUND_CORNER])
# the two sides of a cut meet around the wall
@example(8, 8, 0, [("wall", 4, 2, 1, 1), ("wall", 4, 4, 1, 1), ("wall", 4, 3, 1, 1)])
def test_pocket_carving_keeps_mask_exact_and_blocks_whole(width, height, station_raw, ops):
    station = (station_raw % width, (station_raw // width) % height)
    grid = CutRecording(width, height, station)
    reachable_cells(grid)  # fill the mask, so that every op below updates it
    for kind, col, row, w, h in ops:
        if kind == "wall":
            grid.apply_sensor_update([
                (c, r)
                for c in range(col, min(col + w, width))
                for r in range(row, min(row + h, height))
                if (c, r) != station and grid.state((c, r)) is CellState.UNEXPLORED
            ])
        elif grid.in_bounds((col, row)) and grid.state((col, row)) is not CellState.OBSTACLE:
            grid.mark_traversed((col, row))
        obstacles = {c for c in grid_cells(grid) if grid.state(c) is CellState.OBSTACLE}
        expected = {
            c for c in flood_reachable(width, height, obstacles, station)
            if grid.state(c) is CellState.UNEXPLORED
        }
        assert reachable_cells(grid) == expected
        assert_blocks_whole(grid, expected)
    # a cut searches for pockets exactly when it is not a simple point
    for components, searched in grid.cuts:
        assert searched == (components > 1)
