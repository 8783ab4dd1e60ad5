import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinevis.errors import BudgetError, DirectionInConeError
from affinevis.linalg2 import Direction
from affinevis.symbolic import PointCloud
from affinevis.visibility import (
    ALIGN_TOL,
    EnvelopeFn,
    KakeyaSet,
    OccupancyGrid,
    distinct_cells,
    rasterize,
    rotation_to_down,
    visible_bruteforce,
    visible_exact,
    visible_envelope,
    visible_sweep,
)

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
        with pytest.raises(ValueError):
            rasterize(cloud, math.nan, budget=1000)

    def test_carpet_cell_count_near_cylinder_box_count(self, carpet):
        # independent count: cells touched by the bounding boxes of the
        # alpha1 <= delta cylinders (each cylinder maps the unit square)
        from affinevis.symbolic import antichain, attractor_cloud

        delta = 2.0**-8
        grid = rasterize(attractor_cloud(carpet, delta / 2), delta)
        box_cells = set()
        unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        for m, t in zip(*antichain(carpet, delta)):
            img = unit @ m.T + t
            i0, j0 = np.floor(img.min(axis=0) / delta).astype(int)
            i1, j1 = np.floor((img.max(axis=0) - 1e-12) / delta).astype(int)
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    box_cells.add((i, j))
        ratio = len(grid) / len(box_cells)
        assert 0.5 <= ratio <= 2.0


class TestDistinctCells:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(COORD, COORD), max_size=60))
    @example([])
    @example([(5, -7)])
    @example([(1, 2)] * 5 + [(-1, 2)] * 3)
    # span product 7 * (2^63 - 1) / 7 = 2^63 - 1: the largest that packs into int64
    @example([(0, 0), (6, INT64_MAX // 7 - 1), (3, 5), (0, 0), (6, INT64_MAX // 7 - 1)])
    # span product 2 * 2^62 = 2^63: one past it, so the two-column lexsort runs
    @example([(0, 0), (1, 2**62 - 1), (0, 5), (1, 2**62 - 1), (0, 0)])
    def test_matches_numpy_unique(self, rows):
        cells = np.array(rows, dtype=np.int64).reshape(-1, 2)
        ref_rows, ref_index = np.unique(cells, axis=0, return_index=True)
        index = distinct_cells(cells)
        assert np.array_equal(index, ref_index)
        assert np.array_equal(cells[index], ref_rows)

    def test_grid_stores_sorted_distinct_cells(self):
        cells = np.array([[2, -1], [0, 3], [2, -1], [-4, 0], [0, 3], [0, -2]])
        g = OccupancyGrid(1.0, (0.0, 0.0), cells)
        assert g.cells.dtype == np.int64
        assert g.cells.tolist() == [[-4, 0], [0, -2], [0, 3], [2, -1]]


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
    """``visible_exact`` as a two-key lexsort on (u, v): the reference the
    one-key u sort must match row for row."""
    pts = cloud.points
    if pts.shape[0] == 0:
        return cloud
    uv = pts @ rotation_to_down(e).T
    order = np.lexsort((uv[:, 1], uv[:, 0]))
    u_s, v_s = uv[order, 0], uv[order, 1]
    group_start = np.ones(len(u_s), dtype=bool)
    group_start[1:] = np.diff(u_s) > ALIGN_TOL
    group_ids = np.cumsum(group_start) - 1
    min_v = np.minimum.reduceat(v_s, np.flatnonzero(group_start))
    keep_sorted = v_s <= min_v[group_ids] + ALIGN_TOL
    keep = np.zeros(len(u_s), dtype=bool)
    keep[order] = keep_sorted
    return PointCloud(pts[keep], cloud.resolution)


def same_rows(got, want):
    return np.array_equal(got, want) and got.tobytes() == want.tobytes()


# sight directions: the four cardinal ones (exact rotations) and any other
SIGHT = st.one_of(
    st.sampled_from([-math.pi / 2, 0.0, math.pi / 2, math.pi]),
    st.floats(0.0, 2 * math.pi),
).map(Direction)


class TestOneKeySortsMatchLexsort:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-30, 30)), max_size=150),
        SIGHT,
        st.sampled_from([1.0, 0.1, 2.0**-6]),
        st.sampled_from([(0.0, 0.0), (-0.35, 0.2)]),
    )
    @example([(0, j) for j in range(-5, 5)] + [(-1, 3), (-1, -7), (-1, -7)], DOWN, 1.0, (0.0, 0.0))
    def test_sweep(self, rows, e, delta, origin):
        # few columns, many cells in each, negative indices
        grid = OccupancyGrid(delta, origin, np.array(rows, dtype=np.int64))
        assert same_rows(visible_sweep(grid, e).cells, lexsort_sweep(grid, e).cells)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 1e-10, 2.5e-10, 0.5, 0.5 + 5e-10, -0.25]),
                st.sampled_from([0.0, -0.0, 1e-10, 0.75, -0.75, 0.5]),
            ),
            min_size=1,
            max_size=80,
        ),
        SIGHT,
    )
    @example([(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 1e-10), (0.5, -0.0)], DOWN)
    @example([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1e-10, 0.5)], Direction(0.0))
    def test_exact(self, pts, e):
        # repeated u, chains of u within ALIGN_TOL, and +/-0.0 in v
        cloud = PointCloud(np.array(pts), 1e-6)
        assert same_rows(visible_exact(cloud, e).points, lexsort_exact(cloud, e).points)


class TestVisibleSweep:
    def test_two_stacked_cells(self):
        g = OccupancyGrid(1.0, (0.0, 0.0), np.array([[0, 0], [0, 5]]))
        vis = visible_sweep(g, DOWN)
        assert vis.cells.tolist() == [[0, 0]]

    def test_full_square_keeps_bottom_row(self):
        cells = np.array([[i, j] for i in range(8) for j in range(8)])
        g = OccupancyGrid(1.0, (0.0, 0.0), cells)
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

    def test_no_alignment_keeps_everything(self, carpet):
        from affinevis.symbolic import attractor_cloud

        cloud = attractor_cloud(carpet, 2.0**-6)
        out = visible_exact(cloud, DOWN)
        assert len(out) == len(cloud)

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
        from affinevis.linalg2 import proj_distance

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
