import ast
import functools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinevis.errors import BudgetError, DirectionInConeError, budget_scope
from affinevis.linalg2 import Direction
from affinevis.scenarios import carpet_ifs, harmonic_product_sample, positive_cone_ifs
from affinevis.symbolic import PointCloud, attractor_cloud
from affinevis import symbolic, visibility
from affinevis.visibility import (
    ALIGN_TOL,
    KakeyaSet,
    OccupancyGrid,
    _CellColumns,
    _column_ends,
    _dense,
    _int64_cells,
    _lowest_per_line,
    rasterize,
    rotation_to_down,
    visible_bruteforce,
    visible_exact,
    visible_envelope,
    visible_sweep,
)
from test_linalg2 import proj_distance

DOWN = Direction(-math.pi / 2)
INT64_MAX = 2**63 - 1

# cell coordinates: a small pool (heavy duplication, negatives), values near
# +/-2^62, and the whole int64 range
BIG = 2**62
COORD = st.one_of(
    st.integers(-3, 3),
    st.integers(BIG - 2, BIG + 2),
    st.integers(-BIG - 2, -BIG + 2),
    st.integers(-(2**63), 2**63 - 1),
)

# sight directions: the four cardinal ones (exact rotations) and any other
SIGHT = st.one_of(
    st.sampled_from([-math.pi / 2, 0.0, math.pi / 2, math.pi]),
    st.floats(0.0, 2 * math.pi),
).map(Direction)


def snapped_cloud(rng, n_cells, delta, extent=64):
    """Random distinct cells of the absolute delta-grid, points at centers."""
    raw = rng.integers(-extent, extent, size=(n_cells, 2))
    cells = np.unique(raw, axis=0)
    pts = (cells + 0.5) * delta
    return PointCloud(pts, delta)


class TestRasterize:
    def test_single_point(self):
        g = rasterize(PointCloud(np.array([[0.31, 0.77]]), 0.1), 0.1)
        assert len(g) == 1

    def test_segment_cell_count(self):
        delta = 1.0 / 64
        xs = np.arange(0.0, 1.0, delta / 2)
        pts = np.stack([xs, np.zeros_like(xs)], axis=1)
        g = rasterize(PointCloud(pts, delta / 2), delta)
        assert abs(len(g) - 64) <= 2

    def test_finer_than_resolution_rejected(self):
        cloud = PointCloud(np.array([[0.0, 0.0]]), 0.1)
        with pytest.raises(ValueError):
            rasterize(cloud, 0.05)

    def test_nan_delta_rejected(self):
        cloud = PointCloud(np.array([[0.0, 0.0]]), 0.1)
        with budget_scope(1000), pytest.raises(ValueError):
            rasterize(cloud, math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        cloud = PointCloud(np.array([[0.0, 0.0], [0.5, 0.3], [bad, 0.2]]), 0.1)
        with pytest.raises(ValueError):
            rasterize(cloud, 0.1)

    def test_cells_past_int64_rejected(self, carpet):
        # the carpet scaled by 1e19: its 2^-4 cells lie past int64, where the
        # float-to-int cast would wrap them
        cloud = attractor_cloud(carpet, 2.0**-5)
        huge = PointCloud(cloud.points * 1e19, cloud.resolution)
        with pytest.raises(ValueError, match="int64"):
            rasterize(huge, 2.0**-4)

    def test_carpet_cell_count_near_cylinder_box_count(self, carpet):
        # independent count: cells touched by the bounding boxes of the
        # alpha1 <= delta cylinders (each cylinder maps the unit square).
        # They are the 3^8 words of length 8, which share one linear part,
        # and map 1 fixes the origin, so each anchor is its translation
        from affinevis.symbolic import cylinder

        delta = 2.0**-8
        grid = rasterize(attractor_cloud(carpet, delta / 2), delta)
        box_cells = set()
        unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        m = cylinder(carpet, (1,) * 8).map.linear.as_array()
        trans = attractor_cloud(carpet, delta).points
        assert len(trans) == 3**8 and not carpet.anchor_point().any()
        for t in trans:
            img = unit @ m.T + t
            i0, j0 = np.floor(img.min(axis=0) / delta).astype(int)
            i1, j1 = np.floor((img.max(axis=0) - 1e-12) / delta).astype(int)
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    box_cells.add((i, j))
        ratio = len(grid) / len(box_cells)
        assert 0.5 <= ratio <= 2.0


def int_cells(cells):
    """The column kernel on int cells as they are."""
    return _CellColumns(cells, lambda v, axis: v)


def distinct_cells(cells):
    """Distinct rows of (n, 2) int cells in lexicographic (i, j) order: the
    column kernel's dedup."""
    return int_cells(cells).distinct()


def grid_of(delta, origin, rows):
    """A grid of raw int rows, made distinct and sorted as a grid holds them."""
    cells = distinct_cells(np.array(rows, dtype=np.int64).reshape(-1, 2))
    return OccupancyGrid(delta, origin, cells)


def assert_matches_unique(cells):
    """``distinct_cells`` and the kernel's count against numpy's row-wise unique."""
    want = np.unique(cells, axis=0)
    got = distinct_cells(cells)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert int_cells(cells).count() == len(want)


def sort_dedup(cells):
    """The sort path alone: one stable argsort of the packed key."""
    i, j = cells[:, 0], cells[:, 1]
    span_j = int(j.max()) - int(j.min()) + 1
    key = (i - int(i.min())) * span_j
    key += j - int(j.min())
    order = np.argsort(key, kind="stable")
    first = np.ones(len(key), dtype=bool)
    key = key[order]
    first[1:] = key[1:] != key[:-1]
    return cells[order[first]]


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDistinctCells:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(COORD, COORD), max_size=60))
    @example([])
    @example([(5, -7)])
    @example([(-2, 9)] * 7)
    @example([(1, 2)] * 5 + [(-1, 2)] * 3)
    # span product 7 * (2^63 - 1) / 7 = 2^63 - 1: the largest that packs into int64
    @example([(0, 0), (6, INT64_MAX // 7 - 1), (3, 5), (0, 0), (6, INT64_MAX // 7 - 1)])
    # span product 2 * 2^62 = 2^63: one past it, so the two-column lexsort runs
    @example([(0, 0), (1, 2**62 - 1), (0, 5), (1, 2**62 - 1), (0, 0)])
    def test_matches_numpy_unique(self, rows):
        assert_matches_unique(np.array(rows, dtype=np.int64).reshape(-1, 2))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(-2, 2),
        st.booleans(),
        st.tuples(st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12)),
        st.data(),
    )
    def test_spans_at_the_density_bound(self, n, over, along_i, origin, data):
        # n rows whose key span is 16 n + over along one axis: the bitmap
        # runs up to 16 bytes a row (over <= 0) and the sort past it
        span = 16 * n + over
        inner = data.draw(st.lists(st.integers(0, span - 1), min_size=n - 2, max_size=n - 2))
        offsets = np.array([span - 1, 0] + inner, dtype=np.int64)
        cells = np.tile(np.array(origin, dtype=np.int64), (n, 1))
        cells[:, 0 if along_i else 1] += offsets
        assert (int_cells(cells).occupancy()[0] is not None) == (over <= 0)
        assert_matches_unique(cells)

    def test_sparse_input_allocates_no_more_than_the_sort(self):
        # two clusters 2^40 cells apart: a bitmap over their span would need
        # about 2^46 bytes, so the dedup must take the sort path
        rng = np.random.default_rng(11)
        cells = rng.integers(-32, 32, size=(20_000, 2))
        cells[::2, 0] += 2**40
        assert int_cells(cells).occupancy()[0] is None
        assert_matches_unique(cells)
        # the same arrays as the sort alone, up to a few small Python objects
        assert traced_peak(distinct_cells, cells) <= traced_peak(sort_dedup, cells) + 4096


def floor_unique(pts, origin, delta, snap=0.0):
    """The distinct cells of float points by numpy's row-wise unique: the
    oracle of the column kernel."""
    return np.unique(np.floor((pts - origin) / delta + snap).astype(np.int64), axis=0)


def point_cells(pts, origin, delta, snap=0.0):
    """The column kernel on float points, with the oracle's cell map."""
    return _CellColumns(pts, lambda v, axis: np.floor((v - origin[axis]) / delta + snap))


class TestColumnKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=80),
        st.tuples(st.sampled_from([0.0, -7.5, 1e6]), st.sampled_from([0.0, 0.25, -1e9])),
        st.lists(st.sampled_from([0.0, 1e5, -1e7]), min_size=1, max_size=80),
        st.sampled_from([1.0, 0.1, 2.0**-6, 3.0**-5]),
        st.sampled_from([0.0, 1e-9]),
        st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    )
    @example([(0.3, -0.7)], (0.0, 0.0), [0.0], 0.1, 0.0, (0.0, 0.0))
    def test_matches_floor_unique(self, rows, shift, far, delta, snap, origin):
        # negative and far-translated points; some rows moved far along x
        # spread the key span past the density rule, so both paths run
        pts = np.array(rows) + np.array(shift)
        pts[:, 0] += np.resize(np.array(far), len(pts))
        origin = np.array(origin)
        want = floor_unique(pts, origin, delta, snap)
        cells = point_cells(pts, origin, delta, snap)
        got = cells.distinct()
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert cells.count() == len(want)

    @pytest.mark.parametrize("n", [1, 2**15 - 1, 2**15, 2**15 + 1])
    @pytest.mark.parametrize("far", [0.0, 1e6], ids=["dense", "sparse"])
    def test_chunk_edges(self, n, far):
        # point counts around the 2^15-row chunks, on both sides of the
        # density rule
        pts = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 2))
        pts[1::7, 1] -= far
        origin, delta = np.array([-1.0, -1.0 - far]), 2.0**-6
        cells = point_cells(pts, origin, delta)
        assert _dense(cells.span, n) == (far == 0.0 or n == 1)
        want = floor_unique(pts, origin, delta)
        assert np.array_equal(cells.distinct(), want)
        assert cells.count() == len(want)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=80),
        st.tuples(st.sampled_from([0.0, -7.5, 1e6]), st.sampled_from([0.0, -1e9])),
        st.sampled_from([1.0, 0.1, 2.0**-6]),
    )
    def test_rasterize_matches_floor_unique(self, rows, shift, delta):
        pts = np.array(rows) + np.array(shift)
        grid = rasterize(PointCloud(pts, delta), delta)
        origin = np.floor(pts.min(axis=0) / delta) * delta
        assert grid.origin == tuple(origin.tolist())
        assert np.array_equal(grid.cells, floor_unique(pts, origin, delta))


def plain_column_ends(data):
    x, y = data[:, 0], data[:, 1]
    return np.array([[x.min(), y.min()], [x.max(), y.max()]])


class TestColumnEnds:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.sampled_from([1, 511, 512, 513, 1025, 1031]), st.integers(1, 5000)),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 1e-9, 1e12]),
        st.tuples(st.sampled_from([0.0, -7.5, 1e9]), st.sampled_from([0.0, -1e15])),
        st.sampled_from(["float", "int", "strided"]),
    )
    def test_matches_plain_column_extremes(self, n, seed, scale, shift, layout):
        # whole 512-row blocks, a tail, or both; negative and far-translated
        # values, int cells, and rows that are not contiguous
        rng = np.random.default_rng(seed)
        data = rng.uniform(-1.0, 1.0, size=(n, 2)) * scale + np.array(shift)
        if layout == "int":
            data = np.floor(data).astype(np.int64)
        elif layout == "strided":
            data = np.repeat(data, 2, axis=0)[::2]
        got, want = _column_ends(data), plain_column_ends(data)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def sort_sweep(grid, e):
    """``visible_sweep`` by one argsort of the rotated columns and a
    ``minimum.reduceat`` over each column's run: the sort the scatter-min
    replaced, kept as its oracle."""
    if len(grid) == 0:
        return grid
    uv = np.floor(grid.centers() @ rotation_to_down(e).T / grid.delta).astype(np.int64)
    order = np.argsort(uv[:, 0])
    u_s, v_s = uv[order, 0], uv[order, 1]
    starts = np.flatnonzero(np.diff(u_s, prepend=u_s[0] - 1))
    bound = np.repeat(np.minimum.reduceat(v_s, starts), np.diff(starts, append=len(v_s)))
    keep = np.zeros(len(v_s), dtype=bool)
    keep[order] = v_s <= bound
    return OccupancyGrid(grid.delta, grid.origin, grid.cells[keep])


def rotated_column_span(grid, e):
    cols = np.floor(rotation_to_down(e) @ grid.centers().T / grid.delta)[0]
    return int(cols.max() - cols.min()) + 1


# far-apart cell pairs make the rotated column range sparse, so the sweep
# numbers the columns by their sort
CELL = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(-20, 20)),
    st.tuples(st.sampled_from([-(10**6), 10**6]), st.integers(-3, 3)),
)


class TestScatterMinSweep:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(CELL, min_size=1, max_size=120),
        SIGHT,
        st.sampled_from([1.0, 0.1, 2.0**-6]),
        st.sampled_from([(0.0, 0.0), (-0.35, 0.2)]),
    )
    # rotated columns 2^63 apart: their int64 gap would wrap and join them
    @example([(-BIG, 0), (BIG, 1)], DOWN, 1.0, (0.0, 0.0))
    def test_matches_the_sort_and_bruteforce(self, rows, e, delta, origin):
        grid = grid_of(delta, origin, rows)
        got = visible_sweep(grid, e)
        assert same_rows(got.cells, sort_sweep(grid, e).cells)
        # the pairwise oracle on the cell centers keeps the same centers
        brute = visible_bruteforce(PointCloud(grid.centers(), delta), e, delta)
        assert np.array_equal(got.centers(), brute.points)

    @pytest.mark.parametrize("angle", [-math.pi / 2, -math.pi / 4, 0.3, 2.0])
    def test_dense_and_sparse_columns(self, angle):
        e = Direction(angle)
        rng = np.random.default_rng(17)
        block = rng.integers(-40, 40, size=(3000, 2))
        for cells, dense in ((block, True), (np.concatenate([block, block + 10**7]), False)):
            grid = grid_of(2.0**-6, (0.0, 0.0), cells)
            assert _dense(rotated_column_span(grid, e), len(grid)) == dense
            assert same_rows(visible_sweep(grid, e).cells, sort_sweep(grid, e).cells)


class TestCloudEnds:
    def test_equal_the_column_ends_of_the_points(self, carpet):
        for cloud in (attractor_cloud(carpet, 2.0**-7), harmonic_product_sample()):
            assert np.array_equal(cloud.ends, _column_ends(cloud.points))

    def test_found_once_for_every_rasterization(self, monkeypatch, carpet):
        # rasterize reads the cloud's cached extremes, so a second grid of
        # the same cloud makes no second pass over its points
        calls = []
        ends = symbolic._column_ends
        monkeypatch.setattr(symbolic, "_column_ends", lambda d: calls.append(len(d)) or ends(d))
        cloud = attractor_cloud(carpet, 2.0**-8)
        first = rasterize(cloud, 2.0**-6)
        again = rasterize(cloud, 2.0**-6)
        coarse = rasterize(cloud, 2.0**-4)
        assert calls == [len(cloud)]
        assert first.origin == again.origin and np.array_equal(first.cells, again.cells)
        fresh = rasterize(PointCloud(cloud.points.copy(), cloud.resolution), 2.0**-4)
        assert fresh.origin == coarse.origin and np.array_equal(fresh.cells, coarse.cells)

    def test_empty_cloud_rasterizes_to_an_empty_grid(self):
        # the extremes of no points do not exist: rasterize returns before it
        # reads them
        cloud = PointCloud(np.empty((0, 2)), 0.1)
        grid = rasterize(cloud, 0.1)
        assert len(grid) == 0 and grid.cells.shape == (0, 2)
        with pytest.raises(ValueError):
            cloud.ends


def broadcast_centers(grid):
    """The cell centres by one broadcast add of the origin: the formula that
    ``OccupancyGrid.centers`` keeps bit for bit."""
    return np.asarray(grid.origin) + (grid.cells + 0.5) * grid.delta


def broadcast_sweep(grid, e):
    """``visible_sweep`` with broadcast centres and out-of-place division,
    floor and column offset: the bit oracle of its in-place steps."""
    if len(grid) == 0:
        return grid
    col, row = _int64_cells(np.floor(rotation_to_down(e) @ broadcast_centers(grid).T / grid.delta))
    c_min = int(col.min())
    span = int(col.max()) - c_min + 1
    if _dense(span, len(col)):
        col = col - c_min
    else:
        distinct = np.unique(col)
        col, span = np.searchsorted(distinct, col), len(distinct)
    lowest = np.full(span, INT64_MAX)
    np.minimum.at(lowest, col, row)
    return OccupancyGrid(grid.delta, grid.origin, grid.cells[row == lowest[col]])


# cell indices: a small pool with negatives, and values up to +/-2^40
CENTRE_CELL = st.one_of(st.integers(-5, 5), st.integers(-(2**40), 2**40))
# dyadic, ternary and other cell sizes
CENTRE_DELTA = st.one_of(
    st.integers(0, 40).map(lambda k: 2.0**-k),
    st.integers(1, 25).map(lambda k: 3.0**-k),
    st.floats(1e-9, 10.0),
)
ORIGIN = st.floats(-1e6, 1e6, allow_nan=False)


class TestCentresByColumn:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(CENTRE_CELL, CENTRE_CELL), max_size=60),
        CENTRE_DELTA,
        st.tuples(ORIGIN, ORIGIN),
    )
    @example([(-(2**40), 2**40), (0, -1)], 3.0**-25, (-0.35, 1e6))
    def test_match_the_broadcast_formula_bit_for_bit(self, rows, delta, origin):
        grid = OccupancyGrid(delta, origin, np.array(rows, dtype=np.int64).reshape(-1, 2))
        got, want = grid.centers(), broadcast_centers(grid)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestInPlaceSweep:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(CELL, min_size=1, max_size=120),
        SIGHT,
        st.sampled_from([1.0, 0.1, 2.0**-6, 3.0**-7]),
        st.tuples(ORIGIN, ORIGIN),
    )
    @example([(-(10**6), 0), (10**6, 1), (0, 2)], DOWN, 1.0, (0.0, 0.0))
    @example([(0, 0), (0, 5), (1, 3)], Direction(0.0), 0.1, (-0.35, 0.2))
    def test_matches_the_out_of_place_sweep(self, rows, e, delta, origin):
        # dense and sparse column ranges (CELL's far-apart pairs), cardinal
        # and other directions
        grid = grid_of(delta, origin, rows)
        assert np.array_equal(visible_sweep(grid, e).cells, broadcast_sweep(grid, e).cells)

    @pytest.mark.parametrize("delta", [0.1, 3.0**-7, 1e-3])
    @pytest.mark.parametrize("angle", [-math.pi / 2, 0.0, math.pi / 2, math.pi])
    def test_centres_on_cell_boundaries(self, delta, angle):
        # an origin half a cell low puts each centre within rounding of a
        # cell boundary, where a quotient that is off by an ulp floors into
        # the neighbouring column or row
        i = np.repeat(np.arange(-400, 400), 2)
        cells = np.stack([i, np.tile([0, 1], 800) + i % 2], axis=1)
        grid = grid_of(delta, (-delta / 2, -delta / 2), cells)
        e = Direction(angle)
        assert np.array_equal(visible_sweep(grid, e).cells, broadcast_sweep(grid, e).cells)

    def test_carpet_ladder(self, carpet):
        cloud = attractor_cloud(carpet, 2.0**-10)
        for k in (4, 7, 10):
            grid = rasterize(cloud, 2.0**-k)
            for angle in np.linspace(0.0, 2 * math.pi, 9):
                e = Direction(angle)
                assert np.array_equal(visible_sweep(grid, e).cells, broadcast_sweep(grid, e).cells)


@functools.cache
def rotation_clouds():
    """Carpet and positive-cone points at 2^-8 and 2^-10, the centers of
    their cells, and the harmonic product sample (``visible_bruteforce``'s
    production input)."""
    out = [harmonic_product_sample().points]
    for ifs in (carpet_ifs(), positive_cone_ifs()):
        for k in (8, 10):
            cloud = attractor_cloud(ifs, 2.0**-k)
            out += [cloud.points, rasterize(cloud, 2.0**-k).centers()]
    return out


def callers(name):
    """Names of the functions of ``affinevis`` whose bodies call ``name``,
    as a bare name or a module attribute."""
    found = set()
    for path in pathlib.Path(visibility.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls = (n.func for n in ast.walk(fn) if isinstance(n, ast.Call))
                if any(name in (getattr(f, "id", None), getattr(f, "attr", None)) for f in calls):
                    found.add(fn.name)
    return found


class TestExactRaysAreALeaf:
    def test_sight_line_kernel_serves_only_exact_rays(self):
        # the sweep numbers its own columns, so deleting visible_exact can
        # take the float sight-line kernel with it
        assert callers("_lowest_per_line") == {"visible_exact"}
        assert callers("_split_at_anchors") == {"_lowest_per_line"}


class TestRotatedRows:
    @settings(max_examples=60, deadline=None)
    @given(SIGHT)
    def test_rows_equal_the_row_product(self, e):
        # every visibility mode rotates as rot @ pts.T, for contiguous u and
        # v rows; the reports were recorded with pts @ rot.T
        rot = rotation_to_down(e)
        for pts in rotation_clouds():
            rows = rot @ pts.T
            assert rows.flags.c_contiguous
            assert rows.tobytes() == np.ascontiguousarray((pts @ rot.T).T).tobytes()


def lexsort_sweep(grid, e):
    """``visible_sweep`` as a two-key lexsort on (column, row): the reference
    the one-key column sort must match row for row."""
    if len(grid) == 0:
        return grid
    uv = grid.centers() @ rotation_to_down(e).T
    cols = np.floor(uv[:, 0] / grid.delta).astype(np.int64)
    rows = np.floor(uv[:, 1] / grid.delta).astype(np.int64)
    order = np.lexsort((rows, cols))
    cols_s, rows_s = cols[order], rows[order]
    new_col = np.ones(len(cols_s), dtype=bool)
    new_col[1:] = cols_s[1:] != cols_s[:-1]
    # first entry of each column in (col, row)-sorted order carries min row
    min_row_per_col = rows_s[new_col]
    col_ids = np.cumsum(new_col) - 1
    keep_sorted = rows_s == min_row_per_col[col_ids]
    keep = np.zeros(len(cols), dtype=bool)
    keep[order] = keep_sorted
    return OccupancyGrid(grid.delta, grid.origin, grid.cells[keep])


def lexsort_exact(cloud, e):
    """``visible_exact`` as a two-key lexsort on (u, v) and a point-by-point
    anchor scan: the reference the one-key u sort must match row for row."""
    pts = cloud.points
    if pts.shape[0] == 0:
        return cloud
    uv = pts @ rotation_to_down(e).T
    return PointCloud(pts[lexsort_lowest(uv[:, 0], uv[:, 1])], cloud.resolution)


def lexsort_lowest(u, v):
    """The sight-line mask of ``lexsort_exact`` for given u and v."""
    order = np.lexsort((v, u))
    u_s, v_s = u[order], v[order]
    group_start = np.ones(len(u_s), dtype=bool)
    anchor = u_s[0]
    for k in range(1, len(u_s)):
        if u_s[k] - anchor > ALIGN_TOL:
            anchor = u_s[k]
        else:
            group_start[k] = False
    group_ids = np.cumsum(group_start) - 1
    min_v = np.minimum.reduceat(v_s, np.flatnonzero(group_start))
    keep_sorted = v_s <= min_v[group_ids] + ALIGN_TOL
    keep = np.zeros(len(u_s), dtype=bool)
    keep[order] = keep_sorted
    return keep


def same_rows(got, want):
    return np.array_equal(got, want) and got.tobytes() == want.tobytes()


# abscissas with repeats, +/-0.0, and neighbour gaps within ALIGN_TOL that
# chain past it
EXACT_U = st.sampled_from(
    [0.0, -0.0, 1e-10, 2.5e-10, 6e-10, 1.2e-9, 1.8e-9, 0.5, 0.5 + 5e-10, -0.25]
)


class TestOneKeySortsMatchLexsort:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-30, 30)), max_size=150),
        SIGHT,
        st.sampled_from([1.0, 0.1, 2.0**-6]),
        st.sampled_from([(0.0, 0.0), (-0.35, 0.2)]),
    )
    @example([(0, j) for j in range(-5, 5)] + [(-1, 3), (-1, -7), (-1, -7)], DOWN, 1.0, (0.0, 0.0))
    # a column range past the density rule, one cell a column: the columns
    # are numbered by their sort, and every cell is kept
    @example([(-(10**6), 0), (3, -2), (0, 5), (10**6, 1)], DOWN, 1.0, (0.0, 0.0))
    def test_sweep(self, rows, e, delta, origin):
        # few columns, many cells in each, negative indices
        grid = grid_of(delta, origin, rows)
        assert same_rows(visible_sweep(grid, e).cells, lexsort_sweep(grid, e).cells)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(EXACT_U, st.sampled_from([0.0, -0.0, 1e-10, 0.75, -0.75, 0.5])),
            min_size=1,
            max_size=80,
        ),
        SIGHT,
    )
    @example([(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 1e-10), (0.5, -0.0)], DOWN)
    @example([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1e-10, 0.5)], Direction(0.0))
    @example([(1.8e-9, 0.5), (0.0, 0.75), (6e-10, 0.0), (1.2e-9, -0.75), (6e-10, 0.5)], DOWN)
    # every point alone on its line, then all points on one line
    @example([(0.5, 0.0), (-0.25, 0.75), (0.0, -0.75), (1e-10, 0.5)], Direction(0.3))
    @example([(0.5, 0.0), (-0.25, 0.75), (0.0, -0.75), (1.2e-9, 0.5)], DOWN)
    @example([(0.5, 0.75), (0.5, -0.75), (0.5, 0.0), (0.5 + 5e-10, -0.75)], DOWN)
    # runs at the first and the last sorted position around a singleton
    @example([(0.5, 0.0), (-0.25, 0.5), (0.0, 0.75), (-0.25, 0.0), (0.5, -0.75)], DOWN)
    # a chain wider than ALIGN_TOL between singletons
    @example(
        [(-0.25, 0.0), (6e-10, 0.0), (0.5, 0.5), (1.2e-9, -0.75), (0.0, 0.75), (1.8e-9, 0.5)], DOWN
    )
    def test_exact(self, pts, e):
        # repeated u, neighbour gaps within ALIGN_TOL that chain past it, and
        # +/-0.0 in v
        cloud = PointCloud(np.array(pts), 1e-6)
        assert same_rows(visible_exact(cloud, e).points, lexsort_exact(cloud, e).points)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(EXACT_U, st.sampled_from([0.0, -0.0, 0.75, -0.75])), min_size=1, max_size=80
        )
    )
    # runs of +/-0.0 in u: the BLAS product that rotates a cloud gave +0.0
    # for every signed-zero point tried, so the kernel takes the rows as given
    @example([(-0.0, 0.5), (0.5, 0.75), (0.0, -0.75), (-0.0, 0.0), (0.0, 0.5)])
    @example([(-0.0, 0.5), (0.0, -0.75), (0.25, 0.0), (0.5, 0.0), (-0.0, 0.0)])
    def test_lines_of_given_rows(self, rows):
        u, v = uv = np.array(rows).T.copy()
        keep = _lowest_per_line(uv)
        want = lexsort_lowest(u, v)
        assert np.array_equal(np.ones(len(u), dtype=bool) if keep is None else keep, want)


class TestVisibleSweep:
    def test_two_stacked_cells(self):
        g = grid_of(1.0, (0.0, 0.0), [[0, 0], [0, 5]])
        vis = visible_sweep(g, DOWN)
        assert vis.cells.tolist() == [[0, 0]]

    def test_full_square_keeps_bottom_row(self):
        g = grid_of(1.0, (0.0, 0.0), [[i, j] for i in range(8) for j in range(8)])
        vis = visible_sweep(g, DOWN)
        assert len(vis) == 8
        assert np.all(vis.cells[:, 1] == 0)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        cloud = snapped_cloud(rng, 500, 2.0**-6)
        g = rasterize(cloud, 2.0**-6)
        for angle in rng.uniform(0, 2 * math.pi, 8):
            e = Direction(angle)
            once = visible_sweep(g, e)
            twice = visible_sweep(once, e)
            assert np.array_equal(once.cells, twice.cells), angle

    def test_projection_preserved(self):
        # the visible part shades the same columns as the full set
        rng = np.random.default_rng(3)
        cloud = snapped_cloud(rng, 800, 2.0**-5)
        g = rasterize(cloud, 2.0**-5)
        for angle in rng.uniform(0, 2 * math.pi, 6):
            e = Direction(angle)
            rot_cols = lambda grid: np.unique(
                np.floor((grid.centers() @ np.array([[math.cos(-math.pi / 2 - angle), -math.sin(-math.pi / 2 - angle)], [math.sin(-math.pi / 2 - angle), math.cos(-math.pi / 2 - angle)]]).T)[:, 0] / grid.delta).astype(int)
            )
            assert np.array_equal(rot_cols(visible_sweep(g, e)), rot_cols(g))


# cell i's absolute column, origin / delta + i + 1/2, near +/-2^63: floats
# there are 2^11 apart, so columns 2^11 cells apart stay apart and the half
# cell rounds away.  Origin x 2^49 - 1/4 and -2^49 put column 0 at
# 2^63 - 2^12 and -2^63, inside int64; 2^49, -2^49 - 1/4 and 1e15 put it at
# 2^63, -2^63 - 2^12 and 1.6e19, past it
CAST_DELTA = 2.0**-14
CAST_ROWS = [[0, 0], [0, 5], [2**11, 3], [2**11, 1]]


class TestCellCast:
    @pytest.mark.parametrize("x", [2.0**49 - 0.25, -(2.0**49)])
    def test_sweep_matches_bruteforce_just_inside_int64(self, x):
        grid = grid_of(CAST_DELTA, (x, 0.0), CAST_ROWS)
        got = visible_sweep(grid, DOWN)
        assert got.cells.tolist() == [[0, 0], [2**11, 1]]
        brute = visible_bruteforce(PointCloud(grid.centers(), CAST_DELTA), DOWN, CAST_DELTA)
        assert np.array_equal(got.centers(), brute.points)

    @pytest.mark.parametrize("x", [2.0**49, -(2.0**49) - 0.25, 1e15])
    def test_cells_just_past_int64_rejected(self, x):
        # the cast wrapped every column to -2^63, and the sweep and its
        # oracle kept one of the two visible cells
        grid = grid_of(CAST_DELTA, (x, 0.0), CAST_ROWS)
        with pytest.raises(ValueError, match="int64"):
            visible_sweep(grid, DOWN)
        with pytest.raises(ValueError, match="int64"):
            visible_bruteforce(PointCloud(grid.centers(), CAST_DELTA), DOWN, CAST_DELTA)


class TestVisibleBruteforce:
    def test_singleton(self):
        cloud = PointCloud(np.array([[0.3, 0.4]]), 0.01)
        out = visible_bruteforce(cloud, DOWN, 0.1)
        assert len(out) == 1

    def test_vertical_pair(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [0.0, 1.0]]), 0.01)
        out = visible_bruteforce(cloud, DOWN, 0.1)
        assert out.points.tolist() == [[0.0, 0.0]]

    def test_square_corners_looking_right(self):
        # rays travel rightward: the right corners occlude the left ones
        corners = PointCloud(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 0.01
        )
        out = visible_bruteforce(corners, Direction(0.0), 0.1)
        got = sorted(map(tuple, out.points))
        assert got == [(1.0, 0.0), (1.0, 1.0)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_point_rejected(self, bad, axis):
        pts = np.array([[0.0, 0.0], [0.5, 0.3], [0.25, 0.2]])
        pts[2, axis] = bad
        with pytest.raises(ValueError, match="finite"):
            visible_bruteforce(PointCloud(pts, 0.01), DOWN, 0.1)

    def test_budget_cap(self):
        pts = np.random.default_rng(0).uniform(size=(10_001, 2))
        with pytest.raises(BudgetError):
            visible_bruteforce(PointCloud(pts, 1e-4), DOWN, 0.01)


class TestOracleEquivalence:
    def test_sweep_equals_bruteforce_on_snapped_clouds(self):
        # the defining test: exact agreement on grid-snapped clouds
        rng = np.random.default_rng(2024)
        delta = 2.0**-6
        for trial in range(100):
            cloud = snapped_cloud(rng, rng.integers(5, 2000), delta)
            e = Direction(rng.uniform(0, 2 * math.pi))
            grid = rasterize(cloud, delta)
            vis_cells = visible_sweep(grid, e)
            vis_points = visible_bruteforce(cloud, e, delta)
            got = sorted(map(tuple, vis_cells.centers()))
            want = sorted(map(tuple, vis_points.points))
            assert got == pytest.approx(want), f"trial {trial}"


class TestVisibleExact:
    def test_keeps_lowest_of_aligned_pair(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.7]]), 0.01)
        out = visible_exact(cloud, DOWN)
        got = sorted(map(tuple, out.points))
        assert got == [(0.0, 0.0), (0.5, 0.7)]

    def test_sight_lines_group_against_their_anchor(self):
        # neighbour gaps of 0.6e-9 chain past ALIGN_TOL: the third point
        # leaves the first one's sight line and starts its own
        u = [0.0, 0.6e-9, 1.2e-9]
        cloud = PointCloud(np.array([[u[0], 0.0], [u[1], 1.0], [u[2], 2.0]]), 1e-6)
        got = visible_exact(cloud, DOWN).points.tolist()
        assert got == [[u[0], 0.0], [u[2], 2.0]]

    def test_close_pair_and_far_pair(self):
        close = PointCloud(np.array([[0.0, 0.0], [0.6e-9, 1.0]]), 1e-6)
        assert visible_exact(close, DOWN).points.tolist() == [[0.0, 0.0]]
        far = PointCloud(np.array([[0.0, 1.0], [0.5, 0.0]]), 1e-6)
        assert visible_exact(far, DOWN).points.tolist() == [[0.0, 1.0], [0.5, 0.0]]

    def test_no_alignment_keeps_everything(self, carpet):
        cloud = attractor_cloud(carpet, 2.0**-6)
        out = visible_exact(cloud, DOWN)
        assert same_rows(out.points, cloud.points)
        assert out.points is not cloud.points

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_point_rejected(self, bad, axis):
        # a NaN u sorts last and joined the sight line of (0.5, 0.3), whose
        # lowest v it then set: the unoccluded point was dropped
        pts = np.array([[0.0, 0.0], [0.5, 0.3], [0.25, 0.2]])
        pts[2, axis] = bad
        with pytest.raises(ValueError, match="finite"):
            visible_exact(PointCloud(pts, 1e-6), DOWN)

    def test_agrees_with_bruteforce_in_the_fine_limit(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(300, 2))
        pts[:50, 0] = pts[50:100, 0]  # plant exact vertical alignments
        cloud = PointCloud(pts, 1e-6)
        exact = visible_exact(cloud, DOWN)
        brute = visible_bruteforce(cloud, DOWN, 1e-7)
        assert sorted(map(tuple, exact.points)) == pytest.approx(
            sorted(map(tuple, brute.points))
        )


def random_kakeya(rng, n, e_angle, beta=0.35):
    """Half lines with carriers kept beta away from the sight carrier."""
    bases = rng.uniform(-0.8, 0.8, size=(n, 2))
    thetas = []
    while len(thetas) < n:
        t = rng.uniform(0, 2 * math.pi)
        d = Direction(t)
        if proj_distance(d.carrier(), Direction(e_angle).carrier()) >= beta:
            thetas.append(t)
    return KakeyaSet(bases, np.array(thetas))


class TestVisibleEnvelope:
    def test_single_chord_is_lipschitz(self):
        k = KakeyaSet(np.array([[-2.0, 0.1]]), np.array([0.2]))
        envs, exceptional = visible_envelope(k, DOWN, window=(-0.4, 0.4))
        assert len(envs) == 1
        assert envs[0].kind == "lipschitz"
        assert envs[0].max_violation() <= 1e-9
        # endpoints only, no jumps
        assert exceptional == [-0.4, 0.4]

    def test_two_rightward_halflines_jump(self):
        k = KakeyaSet(
            np.array([[-0.1, 0.0], [0.1, -0.5]]), np.array([0.1, 0.05])
        )
        envs, exceptional = visible_envelope(k, DOWN, window=(-0.3, 0.3))
        dec = [f for f in envs if f.kind == "semi-decreasing"]
        assert len(dec) == 1
        assert dec[0].max_violation() <= 1e-9
        # the lower line starts at u = 0.1: detected as a jump abscissa
        assert any(abs(x - 0.1) < 1e-6 for x in exceptional)

    def test_crossing_diagonals(self):
        k = KakeyaSet(
            np.array([[-1.0, -0.5], [1.0, -0.5]]),
            np.array([math.pi / 4, 3 * math.pi / 4]),
        )
        envs, _ = visible_envelope(k, DOWN, window=(-0.2, 0.2), beta=0.3)
        assert len(envs) == 1
        env = envs[0]
        assert env.kind == "lipschitz"
        assert env.max_violation() <= 1e-9
        # pointwise minimum of the two crossing lines peaks at the crossing
        mid = env.values[np.argmin(np.abs(env.abscissas))]
        assert mid == pytest.approx(0.5, abs=1e-3)
        assert env.values[0] == pytest.approx(0.3, abs=1e-9)
        assert env.values[-1] == pytest.approx(0.3, abs=1e-9)

    def test_direction_in_cone_rejected(self):
        k = KakeyaSet(np.array([[0.0, 0.0]]), np.array([-math.pi / 2 + 0.01]))
        with pytest.raises(DirectionInConeError):
            visible_envelope(k, DOWN, beta=0.1)

    def test_random_sets_semi_monotone(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            k = random_kakeya(rng, rng.integers(2, 40), -math.pi / 2)
            envs, exceptional = visible_envelope(k, DOWN)
            assert len(exceptional) < math.inf  # finite list by construction
            for env in envs:
                assert env.max_violation() <= 1e-9, env.kind
