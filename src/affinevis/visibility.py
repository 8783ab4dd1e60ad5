"""Finite-resolution visible parts and envelope decompositions.

The sight direction is rotated to point straight down; a point is visible
when nothing lies below it in its rotated grid column.  Three visibility
computations share that contract:

* ``visible_sweep``   - grid cells, one pass per column (production path);
* ``visible_bruteforce`` - O(n^2) pairwise occlusion over points (oracle);
* ``visible_exact``   - zero-width columns: occlusion only for exactly
  aligned points, the finite surrogate of true line-of-sight visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DirectionInConeError, budget_limit
from .linalg2 import PI, Direction, proj_distance
from .symbolic import PointCloud

BRUTE_FORCE_CAP = 10_000
# visible_exact: sorted rotated abscissas at most this far apart chain into one
# sight line; points within it of the line's lowest point stay visible
ALIGN_TOL = 1e-9
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class OccupancyGrid:
    """Set of occupied delta-cells, kept distinct in lexicographic (i, j)
    order; cell (i, j) covers origin + [i*delta, (i+1)*delta) x [j*delta, (j+1)*delta)."""

    delta: float
    origin: tuple[float, float]
    cells: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.cells, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "cells", c[distinct_cells(c)])

    def __len__(self) -> int:
        return self.cells.shape[0]

    def centers(self) -> np.ndarray:
        return np.asarray(self.origin) + (self.cells + 0.5) * self.delta


def distinct_cells(cells: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row of an (n, 2) int
    array, rows in lexicographic order: the ``return_index`` of numpy's
    row-wise ``unique``.  Every cell-set dedup runs on it.

    One stable argsort of the packed key ``(i - i_min) * span_j + (j - j_min)``,
    which orders rows as (i, j) does; a stable lexsort of the two columns
    only when ``span_i * span_j`` exceeds the int64 range.
    """
    n = len(cells)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    i, j = cells[:, 0], cells[:, 1]
    i_min, j_min = int(i.min()), int(j.min())
    span_j = int(j.max()) - j_min + 1
    if (int(i.max()) - i_min + 1) * span_j <= _INT64_MAX:
        key = (i - i_min) * span_j  # no overflow: every key is below the span product
        key += j - j_min
        order, keys = np.argsort(key, kind="stable"), (key,)
    else:
        order, keys = np.lexsort((j, i)), (i, j)
    first = np.zeros(n, dtype=bool)
    first[0] = True
    for col in keys:  # a column at a time: no sorted (n, 2) copy
        col = col[order]
        first[1:] |= col[1:] != col[:-1]
    return order[first]


def rotation_to_down(e: Direction) -> np.ndarray:
    """Rotation matrix sending the direction e to (0, -1).

    Entries within 1e-12 of 0 or +/-1 are snapped so cardinal directions
    rotate exactly; otherwise axis-aligned inputs land a hair across cell
    boundaries.
    """
    psi = -PI / 2 - e.angle
    c, s = math.cos(psi), math.sin(psi)
    if abs(c) < 1e-12:
        c = 0.0
    if abs(s) < 1e-12:
        s = 0.0
    if abs(abs(c) - 1.0) < 1e-12:
        c = math.copysign(1.0, c)
    if abs(abs(s) - 1.0) < 1e-12:
        s = math.copysign(1.0, s)
    return np.array([[c, -s], [s, c]])


def rasterize(cloud: PointCloud, delta: float, budget: int | None = None) -> OccupancyGrid:
    """Occupied cells of the delta-grid snapped to delta-multiples."""
    if not cloud.resolution <= delta < math.inf:
        raise ValueError(
            f"grid delta {delta} outside [cloud resolution {cloud.resolution}, inf)"
        )
    limit = budget_limit(budget)
    pts = cloud.points
    if pts.shape[0] == 0:
        return OccupancyGrid(delta, (0.0, 0.0), np.empty((0, 2), dtype=np.int64))
    if pts.shape[0] > limit:
        raise BudgetError(f"cloud size {pts.shape[0]} exceeds budget {limit}")
    # one column at a time: a min over axis 0 of an (n, 2) array is a slow strided reduce
    origin = np.floor(np.array([pts[:, 0].min(), pts[:, 1].min()]) / delta) * delta
    cells = np.floor((pts - origin) / delta).astype(np.int64)
    return OccupancyGrid(delta, (float(origin[0]), float(origin[1])), cells)


def visible_sweep(grid: OccupancyGrid, e: Direction) -> OccupancyGrid:
    """Cells whose rotated column has no occupied cell below them.

    Works on cell centers re-rasterized in the rotated frame on the absolute
    delta-grid (absolute indices keep the sweep idempotent); all cells
    mapping into a column's minimal-row rotated cell are retained (ties are
    unoccluded at resolution delta).  One argsort of the rotated column
    index, then the minimal row of each column by ``np.minimum.reduceat``.
    """
    if len(grid) == 0:
        return grid
    rot = rotation_to_down(e)
    uv = grid.centers() @ rot.T
    cols = np.floor(uv[:, 0] / grid.delta).astype(np.int64)
    rows = np.floor(uv[:, 1] / grid.delta).astype(np.int64)
    order = np.argsort(cols)
    cols_s, rows_s = cols[order], rows[order]
    new_col = np.ones(len(cols_s), dtype=bool)
    new_col[1:] = cols_s[1:] != cols_s[:-1]
    starts = np.flatnonzero(new_col)
    min_row = np.minimum.reduceat(rows_s, starts)
    keep = np.zeros(len(cols), dtype=bool)
    # keep is set in input order, so the order of ties within a column is moot
    keep[order] = rows_s == np.repeat(min_row, np.diff(starts, append=len(rows_s)))
    return OccupancyGrid(grid.delta, grid.origin, grid.cells[keep])


def visible_bruteforce(cloud: PointCloud, e: Direction, delta: float) -> PointCloud:
    """Pairwise occlusion oracle over points.

    q occludes p when both fall in the same rotated delta-column and q sits
    in a strictly lower delta-row.  Quadratic in the number of points, so
    capped; this is the reference implementation the sweep must match.
    """
    pts = cloud.points
    n = pts.shape[0]
    if n > BRUTE_FORCE_CAP:
        raise BudgetError(f"brute force capped at {BRUTE_FORCE_CAP} points, got {n}")
    if n == 0:
        return cloud
    rot = rotation_to_down(e)
    uv = pts @ rot.T
    cols = np.floor(uv[:, 0] / delta).astype(np.int64)
    rows = np.floor(uv[:, 1] / delta).astype(np.int64)
    occluded = np.zeros(n, dtype=bool)
    chunk = 512
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        same_col = cols[lo:hi, None] == cols[None, :]
        lower = rows[None, :] < rows[lo:hi, None]
        occluded[lo:hi] = np.any(same_col & lower, axis=1)
    return PointCloud(pts[~occluded], cloud.resolution)


def visible_exact(cloud: PointCloud, e: Direction) -> PointCloud:
    """Visible points under exact ray semantics.

    p is occluded only if another point lies on (numerically) the same
    rotated vertical line strictly below it.  Sets without exact alignments
    are entirely visible, which is what distinguishes sight lines at an
    exceptional orientation from the column-quantized sweep.
    """
    pts = cloud.points
    if pts.shape[0] == 0:
        return cloud
    rot = rotation_to_down(e)
    uv = pts @ rot.T
    order = np.argsort(uv[:, 0])
    u_s, v_s = uv[order, 0], uv[order, 1]
    group_start = np.ones(len(u_s), dtype=bool)
    group_start[1:] = np.diff(u_s) > ALIGN_TOL
    starts = np.flatnonzero(group_start)
    # the sorted u sequence, hence each group's point set, is the same for any
    # order of equal u; a min ignores order and keep is set in input order
    min_v = np.minimum.reduceat(v_s, starts)
    keep = np.zeros(len(u_s), dtype=bool)
    keep[order] = v_s <= np.repeat(min_v, np.diff(starts, append=len(v_s))) + ALIGN_TOL
    return PointCloud(pts[keep], cloud.resolution)


# ---------------------------------------------------------------------------
# Kakeya sets and envelopes


@dataclass(frozen=True)
class KakeyaSet:
    """Half lines {x} + t*(cos theta_x, sin theta_x), t >= 0."""

    bases: np.ndarray
    thetas: np.ndarray

    def __post_init__(self) -> None:
        b = np.atleast_2d(np.asarray(self.bases, dtype=float))
        t = np.atleast_1d(np.asarray(self.thetas, dtype=float)) % (2.0 * PI)
        if b.shape[0] != t.shape[0]:
            raise ValueError("bases and thetas length mismatch")
        object.__setattr__(self, "bases", b)
        object.__setattr__(self, "thetas", t)

    def __len__(self) -> int:
        return self.bases.shape[0]

    def directions(self) -> list[Direction]:
        return [Direction(t) for t in self.thetas]


@dataclass(frozen=True)
class EnvelopeFn:
    """Lower envelope samples with a monotonicity class and slope bound.

    kinds: 'lipschitz' (|f(t)-f(s)| <= L|t-s|), 'semi-decreasing'
    (f(t)-f(s) <= L(t-s) for t >= s), 'semi-increasing' (the mirror bound).
    """

    abscissas: np.ndarray
    values: np.ndarray
    kind: str
    slope_bound: float

    def __post_init__(self) -> None:
        a = np.asarray(self.abscissas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if a.shape != v.shape:
            raise ValueError("abscissas and values length mismatch")
        object.__setattr__(self, "abscissas", a)
        object.__setattr__(self, "values", v)

    def max_violation(self) -> float:
        """Worst violation of the declared inequality over all breakpoint pairs."""
        a, v = self.abscissas, self.values
        dt = a[None, :] - a[:, None]  # t - s with t = column index
        df = v[None, :] - v[:, None]
        upper = df - self.slope_bound * dt  # should be <= 0 for t >= s
        lower = -df - self.slope_bound * dt
        mask = dt > 0
        if self.kind == "semi-decreasing":
            worst = upper[mask]
        elif self.kind == "semi-increasing":
            worst = lower[mask]
        else:
            worst = np.maximum(upper, lower)[mask]
        return float(worst.max(initial=-math.inf))


def visible_envelope(
    k: KakeyaSet,
    e: Direction,
    window: tuple[float, float] | None = None,
    beta: float | None = None,
) -> tuple[list[EnvelopeFn], list[float]]:
    """Lower envelopes of a Kakeya set seen against direction ``e``.

    After rotating ``e`` to point down, half lines split into through-chords
    (covering the whole window; Lipschitz envelope), rightward lines
    (semi-decreasing envelope) and leftward lines (semi-increasing).
    Exceptional abscissas collect family-domain endpoints and detected
    jumps, the vertical lines along which visibility may concentrate.
    """
    if len(k) == 0:
        return [], []
    carrier_e = e.carrier()
    sep = min(proj_distance(d.carrier(), carrier_e) for d in k.directions())
    if beta is not None and sep < beta:
        raise DirectionInConeError(
            f"direction set comes within {sep:.4f} of the sight carrier"
        )
    if beta is None:
        if sep <= 1e-9:
            raise DirectionInConeError("direction set touches the sight carrier")
        beta = sep
    theta_max = PI / 2 - beta
    slope_bound = math.tan(theta_max)
    if window is None:
        gamma = 0.5 * math.cos(theta_max)
        window = (-gamma, gamma)
    w_lo, w_hi = window
    if not w_lo < w_hi:
        raise ValueError("empty window")

    rot = rotation_to_down(e)
    bases = k.bases @ rot.T
    psi = -PI / 2 - e.angle
    thetas = (k.thetas + psi) % (2.0 * PI)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    slopes = sin_t / cos_t

    starts = bases[:, 0]
    rightward = cos_t > 0
    # u-interval each half line covers inside the window
    lo_cov = np.where(rightward, np.maximum(starts, w_lo), w_lo)
    hi_cov = np.where(rightward, w_hi, np.minimum(starts, w_hi))
    covers = lo_cov < hi_cov

    full = covers & (lo_cov <= w_lo) & (hi_cov >= w_hi)
    fam_members = {
        "lipschitz": np.where(full)[0],
        "semi-decreasing": np.where(covers & ~full & rightward)[0],
        "semi-increasing": np.where(covers & ~full & ~rightward)[0],
    }

    grid = np.linspace(w_lo, w_hi, 512)
    interior = starts[(starts > w_lo) & (starts < w_hi)]
    abscissas = np.unique(np.concatenate([grid, interior]))

    envelopes: list[EnvelopeFn] = []
    exceptional: list[float] = []
    for kind, members in fam_members.items():
        if members.size == 0:
            continue
        b = bases[members]
        m = slopes[members]
        lo = lo_cov[members]
        hi = hi_cov[members]
        ys = b[:, 1][:, None] + m[:, None] * (abscissas[None, :] - b[:, 0][:, None])
        covered = (abscissas[None, :] >= lo[:, None] - 1e-12) & (
            abscissas[None, :] <= hi[:, None] + 1e-12
        )
        ys = np.where(covered, ys, np.inf)
        env = ys.min(axis=0)
        dom = np.isfinite(env)
        if not np.any(dom):
            continue
        a_dom = abscissas[dom]
        v_dom = env[dom]
        envelopes.append(EnvelopeFn(a_dom, v_dom, kind, slope_bound))
        exceptional.extend([float(a_dom[0]), float(a_dom[-1])])
        if a_dom.size >= 2:
            da = np.diff(a_dom)
            dv = np.abs(np.diff(v_dom))
            jumps = dv > 3.0 * slope_bound * np.maximum(da, 1e-15)
            exceptional.extend(float(x) for x in a_dom[1:][jumps])
    return envelopes, sorted(set(exceptional))
