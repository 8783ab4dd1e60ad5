"""Byte identity of the array emitters against the row-at-a-time formatting
they replace; the oracles below are that formatting, kept verbatim."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affinevis.report import CSV_CHUNK_ROWS, _SVG_FOOTER, _svg_header, svg_cells, write_csv
from affinevis.visibility import OccupancyGrid

SPECIAL_FLOATS = [
    np.nan,
    np.inf,
    -np.inf,
    -0.0,
    0.0,
    5e-324,
    -2.2250738585072014e-308 / 3,  # subnormal
    1e16,
    -1e16,
    1e-5,
    0.1,
    1 / 3,
]


def _csv_oracle(header, rows) -> bytes:
    """``csv.writer`` over the rows, each numpy scalar written as its item."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([v.item() if isinstance(v, np.generic) else v for v in row])
    return buf.getvalue().encode()


def _svg_oracle(path, layers) -> None:
    """svg_cells with its per-cell formatting loop."""
    x0 = y0 = np.inf
    x1 = y1 = -np.inf
    for grid, color in layers:
        if len(grid) == 0:
            continue
        origin = np.asarray(grid.origin)
        lo = origin + grid.cells.min(axis=0) * grid.delta
        hi = origin + (grid.cells.max(axis=0) + 1) * grid.delta
        x0, y0 = min(x0, lo[0]), min(y0, lo[1])
        x1, y1 = max(x1, hi[0]), max(y1, hi[1])
    if not np.isfinite([x0, y0, x1, y1]).all():
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    pad = 0.02 * max(x1 - x0, y1 - y0, 1e-9)
    parts = [_svg_header(x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)]
    for grid, color in layers:
        d = grid.delta
        origin = np.asarray(grid.origin)
        parts.append(f'<g fill="{color}" stroke="none">\n')
        for i, j in grid.cells:
            x = origin[0] + i * d
            y = origin[1] + j * d
            parts.append(f'<rect x="{x}" y="{y}" width="{d}" height="{d}"/>\n')
        parts.append("</g>\n")
    parts.append(_SVG_FOOTER)
    path.write_bytes("".join(parts).encode())


# a float as a Python float or a numpy scalar, as tables built from cones,
# verdicts and rectangles may hold either
ANY_FLOAT = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64)).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)])
)
SCAN_ROWS = st.tuples(
    ANY_FLOAT,
    st.integers(0, 1),
    st.integers(0, 1),
    st.one_of(ANY_FLOAT, st.just("")),
    st.one_of(st.integers(1, 30), st.just("")),
)
TANGENT_ROWS = st.tuples(st.integers(1, 10**6), *[ANY_FLOAT] * 6)
SHAPES = st.tuples(st.integers(0, 12), st.integers(1, 4))
FLOAT_ARRAYS = hnp.arrays(
    np.float64,
    SHAPES,
    elements=st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64)),
)
INT_ARRAYS = hnp.arrays(
    np.int64,
    SHAPES,
    elements=st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
)


class TestCsvArrays:
    @settings(max_examples=150, deadline=None)
    @given(FLOAT_ARRAYS)
    @example(np.array([SPECIAL_FLOATS[:6], SPECIAL_FLOATS[6:]]))
    @example(np.empty((0, 2)))
    def test_float_rows_match_csv_writer(self, tmp_path_factory, rows):
        p = tmp_path_factory.mktemp("csv") / "f.csv"
        header = [f"c{k}" for k in range(rows.shape[1])]
        write_csv(p, header, rows)
        assert p.read_bytes() == _csv_oracle(header, rows)

    @settings(max_examples=100, deadline=None)
    @given(INT_ARRAYS)
    @example(np.array([[-1, 0], [np.iinfo(np.int64).min, np.iinfo(np.int64).max]]))
    @example(np.empty((0, 2), dtype=np.int64))
    def test_int_rows_match_csv_writer(self, tmp_path_factory, rows):
        p = tmp_path_factory.mktemp("csv") / "i.csv"
        header = [f"n{k}" for k in range(rows.shape[1])]
        write_csv(p, header, rows)
        assert p.read_bytes() == _csv_oracle(header, rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(SCAN_ROWS, max_size=12), st.lists(TANGENT_ROWS, max_size=12))
    @example([(0.5, 1, 0, "", "")], [(1, 0.0, -0.0, 0.25, np.float64(1e16), 1e-5, 3.0)])
    def test_mixed_rows_match_csv_writer(self, tmp_path_factory, scan, tangent):
        out = tmp_path_factory.mktemp("csv")
        tables = [
            (["angle", "exceptional", "passed", "worst_gap", "first_pass_depth"], scan),
            (["n", "center_x", "center_y", "scale", "h", "v", "orientation"], tangent),
        ]
        for k, (header, rows) in enumerate(tables):
            write_csv(out / f"{k}.csv", header, rows)
            assert (out / f"{k}.csv").read_bytes() == _csv_oracle(header, rows)

    def test_array_matches_sequence_path(self, tmp_path):
        rows = np.array([[0.5, -0.0], [np.nan, 1e16], [3.0, 1e-5]])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["x", "y"], rows)
        write_csv(b, ["x", "y"], [tuple(r) for r in rows])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "count", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 10_000]
    )
    @pytest.mark.parametrize("kind", ["float", "int", "mixed"])
    def test_chunk_boundaries(self, tmp_path, count, kind):
        # rows are formatted CSV_CHUNK_ROWS at a time: the file has the bytes
        # of the whole table formatted in one piece, at every chunk boundary
        rng = np.random.default_rng(count)
        if kind == "float":
            rows = rng.standard_normal((count, 3)) * 10.0 ** rng.integers(-20, 20, (count, 3))
        elif kind == "int":
            rows = rng.integers(-(2**62), 2**62, (count, 2))
        else:
            rows = [
                (float(x), k % 2, "" if k % 3 else np.float64(x / 3), k % 7 or "")
                for k, x in enumerate(rng.standard_normal(count))
            ]
        p = tmp_path / "t.csv"
        header = [f"c{k}" for k in range({"float": 3, "int": 2, "mixed": 4}[kind])]
        write_csv(p, header, rows)
        assert p.read_bytes() == _csv_oracle(header, rows)

    def test_failed_table_leaves_no_file(self, tmp_path):
        # a row that fails to format past the first chunk leaves neither the
        # target nor a temporary file: the table is written in one rename
        rows = [(0.5, 1.0)] * (CSV_CHUNK_ROWS + 10) + [(0.5, 1.0, 2.0)]
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["x", "y"], rows)
        assert list(tmp_path.iterdir()) == []


CELLS = st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), max_size=40)
ORIGINS = st.tuples(
    st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e3, 1e3, allow_nan=False)
)
DELTAS = st.one_of(
    st.integers(0, 20).map(lambda k: 2.0**-k),
    st.floats(1e-7, 10.0, allow_nan=False),
)


def _grid(delta, origin, cells):
    """A grid of the distinct cells, in the sorted order a grid holds them."""
    rows = np.unique(np.array(cells, dtype=np.int64).reshape(-1, 2), axis=0)
    return OccupancyGrid(delta, origin, rows)


class TestSvgCells:
    @settings(max_examples=100, deadline=None)
    @given(DELTAS, ORIGINS, CELLS, DELTAS, ORIGINS, CELLS)
    @example(0.25, (0.0, 0.0), [], 0.125, (-1.5, 2.0), [(-3, 4), (5, -6)])  # empty + full
    @example(2.0**-12, (0.0, 0.0), [(7, 9)], 2.0**-12, (0.0, 0.0), [])  # single cell
    @example(1 / 3, (0.1, -0.2), [(-1, -1), (0, 2)], 1 / 7, (0.3, 0.0), [(-2, 5), (-2, 6)])
    @example(0.5, (0.0, 0.0), [], 0.5, (0.0, 0.0), [])  # nothing drawn at all
    def test_layers_match_per_cell_loop(self, tmp_path_factory, d1, o1, c1, d2, o2, c2):
        layers = [(_grid(d1, o1, c1), "#bbbbbb"), (_grid(d2, o2, c2), "#b03030")]
        out = tmp_path_factory.mktemp("svg")
        svg_cells(out / "new.svg", layers)
        _svg_oracle(out / "old.svg", layers)
        assert (out / "new.svg").read_bytes() == (out / "old.svg").read_bytes()
