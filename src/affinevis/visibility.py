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
from .linalg2 import PI, Direction, signed_gaps
from .symbolic import PointCloud

BRUTE_FORCE_CAP = 10_000
# visible_exact: a sight line holds the sorted rotated abscissas at most this
# far above its first (anchor) point; points within it of the line's lowest
# point stay visible
ALIGN_TOL = 1e-9
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class OccupancyGrid:
    """Set of occupied delta-cells: distinct int64 rows in lexicographic
    (i, j) order, as ``rasterize`` and ``visible_sweep`` make them; cell
    (i, j) covers origin + [i*delta, (i+1)*delta) x [j*delta, (j+1)*delta).
    The rows are stored as given and not checked: repeated or unsorted rows
    give a wrong ``len``, wrong visible counts and a wrong SVG, so raw rows
    go through ``rasterize`` (or a dedup such as ``np.unique(rows,
    axis=0)``) first."""

    delta: float
    origin: tuple[float, float]
    cells: np.ndarray

    def __len__(self) -> int:
        return self.cells.shape[0]

    def centers(self) -> np.ndarray:
        return np.asarray(self.origin) + (self.cells + 0.5) * self.delta


# rows per chunk of the column-wise cell kernel: a chunk's float and int
# temporaries stay a few hundred kB, whatever the number of rows
_CHUNK = 1 << 15


def _dense(span: int, n: int) -> bool:
    """The density rule: a table with one slot per key of a span (the
    occupancy bitmap of ``_CellColumns``, the per-column minimum of
    ``visible_sweep``) is taken over a sort of n rows when ``span <= 16 *
    n``.  Either table then takes O(n + span) time, not a sort, and the
    bitmap, a byte a slot, holds at most 16 bytes a row: an int64 key and
    its argsort order, or twice the key that the kernel sorts in place."""
    return span <= 16 * n


# rows per block of _column_ends: a block is one contiguous row of 1024 entries
_END_BLOCK = 512


def _column_ends(data: np.ndarray) -> np.ndarray:
    """(2, 2) array of the smallest (row 0) and largest (row 1) entry of each
    column of non-empty (n, 2) data.  A min over axis 0 of an (n, 2) array,
    or of one of its columns, is a slow strided reduce; so the whole blocks
    of ``_END_BLOCK`` rows reduce as rows of 2 * _END_BLOCK entries along
    axis 0 (contiguous inner loops), and the column extremes come from those
    partial extremes and the tail rows.  The extremes are exact; only the
    sign of a zero extreme may follow the reduction order."""
    whole = len(data) - len(data) % _END_BLOCK
    part = data[whole:]
    if whole:
        blocks = data[:whole].reshape(-1, 2 * _END_BLOCK)
        extremes = [blocks.min(axis=0), blocks.max(axis=0)]
        part = np.concatenate([part, *(e.reshape(-1, 2) for e in extremes)])
    x, y = part[:, 0], part[:, 1]
    return np.array([[x.min(), y.min()], [x.max(), y.max()]])


def _int64_cells(floored: np.ndarray) -> np.ndarray:
    """Floored cell coordinates as int64: the one checked cast that makes
    cells.  Float coordinates must lie in int64, or ValueError: the cast
    would wrap a cell past it, or make one of NaN.  Only their min and max
    are compared.  Int input fits by type and is not compared, since
    ``2.0**63`` would round int64 values near the top up to it."""
    if floored.dtype.kind == "f":
        lo, hi = floored.min(), floored.max()
        if not (lo >= -(2.0**63) and hi < 2.0**63):  # also false for NaN
            raise ValueError(
                f"cell indices from {lo} to {hi} do not fit int64: the set is "
                "too large for its cell size, or too far from the origin"
            )
    return floored.astype(np.int64, copy=False)


class _CellColumns:
    """The cells of the rows of (n, 2) ``data`` as one int64 index column per
    axis, made a chunk of rows at a time: no (n, 2) cell array is held.  The
    one distinct-cell kernel: every cell-set dedup and count runs on it.

    ``index(values, axis)`` maps coordinates along an axis to cell indices
    (a floor for points, a floor division for coarser cells).  It must be
    monotone, so the extreme cells ``bounds`` ((2, 2): smallest then largest
    i and j) are the cells of the extreme coordinates ``ends``
    (``_column_ends`` when not given); they must lie in int64
    (``_int64_cells``), or no cell index would.  Cell (i, j) packs into the
    key ``(i - i_min) * span_j + (j - j_min)``, which orders cells as (i, j)
    does; ``span`` is the number of keys from the lowest cell to the
    highest.
    """

    def __init__(self, data: np.ndarray, index, ends: np.ndarray | None = None) -> None:
        self.data, self.index, self.n = data, index, len(data)
        self.bounds = None
        if self.n == 0:
            return
        if ends is None:
            ends = _column_ends(data)
        bounds = np.stack([index(ends[:, a], a) for a in (0, 1)], axis=1)
        self.bounds = _int64_cells(bounds)
        (self.i_min, self.j_min), (i_max, j_max) = self.bounds.tolist()
        self.span_j = j_max - self.j_min + 1
        self.span = (i_max - self.i_min + 1) * self.span_j

    def _chunks(self):
        return ((lo, min(lo + _CHUNK, self.n)) for lo in range(0, self.n, _CHUNK))

    def columns(self, lo: int, hi: int) -> list[np.ndarray]:
        """The int64 i and j columns of rows lo:hi: a plain cast, since the
        cells of a monotone index lie within the checked ``bounds``."""
        return [self.index(self.data[lo:hi, a], a).astype(np.int64, copy=False) for a in (0, 1)]

    def key(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """The packed key of rows lo:hi; the caller checks ``span <= _INT64_MAX``."""
        i, j = self.columns(lo, hi)
        key = np.subtract(i, self.i_min, out=out)
        key *= self.span_j  # no overflow: every key is below the span
        key += j - self.j_min
        return key

    def occupancy(self):
        """``(occ, rows)``: the occupancy bitmap of the key when the span is
        dense (``_dense``: one byte a key, at most 16 a row), each chunk's
        keys set in it, and rows None; otherwise occ None and the distinct
        rows, from the int64 key sorted in place (9 bytes a row with the
        mask of first entries), or from a row-wise unique of the two columns
        when a key would overflow int64."""
        if self.n == 0:
            return None, np.empty((0, 2), dtype=np.int64)
        if _dense(self.span, self.n):
            occ = np.zeros(self.span, dtype=bool)
            for lo, hi in self._chunks():
                occ[self.key(lo, hi)] = True
            return occ, None
        if self.span <= _INT64_MAX:
            key = np.empty(self.n, dtype=np.int64)
            for lo, hi in self._chunks():
                self.key(lo, hi, out=key[lo:hi])
            key.sort()
            first = np.ones(self.n, dtype=bool)
            first[1:] = key[1:] != key[:-1]
            return None, self._decode(key[first])
        return None, np.unique(np.stack(self.columns(0, self.n), axis=1), axis=0)

    def _decode(self, keys: np.ndarray) -> np.ndarray:
        out = np.empty((len(keys), 2), dtype=np.int64)
        np.divmod(keys, self.span_j, out=(out[:, 0], out[:, 1]))
        out[:, 0] += self.i_min
        out[:, 1] += self.j_min
        return out

    def distinct(self) -> np.ndarray:
        """Distinct cells as (m, 2) int64 rows in lexicographic (i, j)
        order: the set bits of the bitmap read in key order, or the sort."""
        occ, rows = self.occupancy()
        return rows if occ is None else self._decode(np.flatnonzero(occ))

    def count(self) -> int:
        """Number of distinct cells: the set bits of the bitmap when dense,
        with no row decode."""
        occ, rows = self.occupancy()
        return len(rows) if occ is None else int(np.count_nonzero(occ))


def rotation_to_down(e: Direction) -> np.ndarray:
    """Rotation matrix sending the direction e to (0, -1).

    Every visibility mode rotates (n, 2) points X as ``rot @ X.T``: the
    rotated u and v as two contiguous rows, with the bits of ``X @ rot.T``.
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


def rasterize(cloud: PointCloud, delta: float) -> OccupancyGrid:
    """Occupied cells of the delta-grid snapped to delta-multiples.  A
    non-finite coordinate raises ValueError."""
    if not cloud.resolution <= delta < math.inf:
        raise ValueError(
            f"grid delta {delta} outside [cloud resolution {cloud.resolution}, inf)"
        )
    limit = budget_limit()
    pts = cloud.points
    if pts.shape[0] == 0:
        return OccupancyGrid(delta, (0.0, 0.0), np.empty((0, 2), dtype=np.int64))
    if pts.shape[0] > limit:
        raise BudgetError(f"cloud size {pts.shape[0]} exceeds budget {limit}")
    ends = _column_ends(pts)
    _check_finite(ends)  # the extremes carry any NaN or infinite coordinate
    origin = np.floor(ends[0] / delta) * delta
    cells = _CellColumns(pts, lambda v, axis: np.floor((v - origin[axis]) / delta), ends)
    return OccupancyGrid(delta, (float(origin[0]), float(origin[1])), cells.distinct())


def visible_sweep(grid: OccupancyGrid, e: Direction) -> OccupancyGrid:
    """Cells whose rotated column has no occupied cell below them.

    Works on cell centers re-rasterized in the rotated frame on the absolute
    delta-grid (absolute indices keep the sweep idempotent); all cells
    mapping into a column's minimal-row rotated cell are retained (ties are
    unoccluded at resolution delta).  Each column's lowest row comes from one
    ``minimum.at`` scatter into a slot per column: the columns are numbered
    from the lowest when their range is dense (``_dense``), else by the sort
    of the distinct columns.  A rotated cell index past int64 raises
    ValueError.
    """
    if len(grid) == 0:
        return grid
    # the rotated cells as two contiguous rows, column then row; the floats
    # are freed before the scatter
    col, row = _int64_cells(np.floor(rotation_to_down(e) @ grid.centers().T / grid.delta))
    c_min = int(col.min())
    span = int(col.max()) - c_min + 1
    if _dense(span, len(col)):
        col = col - c_min
    else:
        distinct = np.unique(col)
        col, span = np.searchsorted(distinct, col), len(distinct)
    lowest = np.full(span, _INT64_MAX)
    np.minimum.at(lowest, col, row)
    # a subset of sorted distinct rows is sorted and distinct
    return OccupancyGrid(grid.delta, grid.origin, grid.cells[row == lowest[col]])


def _check_finite(pts: np.ndarray) -> None:
    """ValueError if a coordinate is NaN or infinite: such a point sorts
    among the others on no sight line, or on a wrong one, and can occlude
    points that nothing lies below."""
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")


def visible_bruteforce(cloud: PointCloud, e: Direction, delta: float) -> PointCloud:
    """Pairwise occlusion oracle over points.

    q occludes p when both fall in the same rotated delta-column and q sits
    in a strictly lower delta-row.  Quadratic in the number of points, so
    capped; this is the reference implementation the sweep must match.
    A non-finite coordinate, or a cell index past int64, raises ValueError.
    """
    pts = cloud.points
    n = pts.shape[0]
    if n > BRUTE_FORCE_CAP:
        raise BudgetError(f"brute force capped at {BRUTE_FORCE_CAP} points, got {n}")
    _check_finite(pts)
    if n == 0:
        return cloud
    # the rotated cells as two contiguous rows, which the pairwise loop
    # reads n / 512 times: column, then row
    cols, rows = _int64_cells(np.floor(rotation_to_down(e) @ pts.T / delta))
    occluded = np.zeros(n, dtype=bool)
    chunk = 512
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        same_col = cols[lo:hi, None] == cols[None, :]
        lower = rows[None, :] < rows[lo:hi, None]
        occluded[lo:hi] = np.any(same_col & lower, axis=1)
    return PointCloud(pts[~occluded], cloud.resolution)


def _lowest_per_line(uv: np.ndarray) -> np.ndarray | None:
    """``visible_exact``'s mask of the points, given as the (2, n) float rows
    u and v, at most ALIGN_TOL above the lowest v of their sight line, which
    starts where sorted u exceeds its first u by more than ALIGN_TOL
    (``_split_at_anchors``); None when every point is kept.  A line's points
    are the same for any order of equal u, a min ignores order, and the mask
    is set in input order, so the sort's order of ties is moot.

    A point whose sorted neighbours both lie more than ALIGN_TOL away is
    alone on its line, and a finite v is kept, as v <= fl(v + ALIGN_TOL).
    So only the run members, the points with a close neighbour, are reduced.
    Whole runs are members, so their lines are the lines of the full sort.
    """
    u, v = uv
    del uv
    order = np.argsort(u)
    u_s = u[order]
    # each per-point array is dropped after its last use, so the step's peak
    # holds as few as it can
    del u
    # gap[k]: sorted point k starts a run (gap[n] closes the last one)
    gap = np.ones(len(u_s) + 1, dtype=bool)
    np.greater(u_s[1:] - u_s[:-1], ALIGN_TOL, out=gap[1:-1])
    member = ~(gap[:-1] & gap[1:])
    pos = order[member]
    if pos.size == 0:
        return None
    del order
    n, v_m = len(v), v[pos]
    # the rotated points are freed here when the caller holds no reference
    del v
    u_m = u_s[member]
    del u_s
    starts = _split_at_anchors(u_m, np.flatnonzero(gap[:-1][member]))
    del u_m, gap, member
    sizes = np.diff(starts, append=len(v_m))
    bound = np.repeat(np.minimum.reduceat(v_m, starts), sizes)
    bound += ALIGN_TOL  # in place: no second member array
    keep = np.ones(n, dtype=bool)
    keep[pos] = v_m <= bound
    return keep


def _split_at_anchors(u_s: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sight-line starts of sorted ``u_s``, given the ``starts`` of its runs of
    neighbour gaps <= ALIGN_TOL: a new line starts wherever u exceeds the
    first u of its line by more than ALIGN_TOL.  Only a wider run holds more
    than one line, and such chains are rare, so each is split point by point.
    """
    sizes = np.diff(starts, append=len(u_s))
    runs = sizes > 1
    lo = starts[runs]
    hi = lo + sizes[runs]
    wide = np.flatnonzero(u_s[hi - 1] - u_s[lo] > ALIGN_TOL)
    if wide.size == 0:
        return starts
    line_start = np.zeros(len(u_s), dtype=bool)
    line_start[starts] = True
    for a, b in zip(lo[wide].tolist(), hi[wide].tolist()):
        anchor = float(u_s[a])
        for k, u in enumerate(u_s[a + 1 : b].tolist(), a + 1):
            if u - anchor > ALIGN_TOL:
                line_start[k] = True
                anchor = u
    return np.flatnonzero(line_start)


def visible_exact(cloud: PointCloud, e: Direction) -> PointCloud:
    """Visible points under exact ray semantics.

    p is occluded only if another point lies on (numerically) the same
    rotated vertical line strictly below it: a sight line of
    ``_lowest_per_line``, ALIGN_TOL wide.  Sets without exact
    alignments are entirely visible, which is what distinguishes sight
    lines at an exceptional orientation from the column-quantized sweep.
    A non-finite coordinate raises ValueError.
    """
    pts = cloud.points
    _check_finite(pts)
    if pts.shape[0] == 0:
        return cloud
    keep = _lowest_per_line(rotation_to_down(e) @ pts.T)
    return PointCloud(pts.copy() if keep is None else pts[keep], cloud.resolution)


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
    sep = float(np.min(np.abs(signed_gaps(k.thetas, e.carrier().angle))))
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

    starts, heights = rotation_to_down(e) @ k.bases.T
    psi = -PI / 2 - e.angle
    thetas = (k.thetas + psi) % (2.0 * PI)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    slopes = sin_t / cos_t

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
        u, v = starts[members], heights[members]
        m = slopes[members]
        lo = lo_cov[members]
        hi = hi_cov[members]
        ys = v[:, None] + m[:, None] * (abscissas[None, :] - u[:, None])
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
