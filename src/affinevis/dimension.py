"""Box-counting over scale ladders and a heuristic local-scaling estimator.

Counts come from a single fine grid coarsened level by level; the ladder
must consist of integer multiples of its finest scale (dyadic by default,
ternary for middle-thirds constructions).  The local estimator is a
sampled lower bound for the Assouad dimension and is labeled heuristic in
every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, TooFewScalesError, budget_limit
from .symbolic import PointCloud
from .visibility import _CellColumns

# drop the two coarsest scales and refit when the residual exceeds this
RESIDUAL_TRIM_THRESHOLD = 0.1
# centers sampled by assouad_estimate when none are supplied
ASSOUAD_BALLS = 64


@dataclass(frozen=True)
class DimEstimate:
    """Least-squares slope of log N versus log(1/delta).

    ``scales`` are strictly decreasing; ``counts`` are the matching box
    counts; ``residual`` is max |log2 N - fit| / log 2 over the fitted
    points; ``trimmed`` records whether the two coarsest scales were
    dropped as a transient.
    """

    slope: float
    intercept: float
    residual: float
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    trimmed: bool = False


# snap tolerance in cell units: absorbs fp error of non-dyadic scales
# (e.g. 2/3 * 3^8 floors one cell low without it)
_CELL_SNAP = 1e-9


def _snapped_cells(pts: np.ndarray, finest: float) -> _CellColumns:
    """The finest-scale cells of (n, 2) points, ``floor(p / finest + _CELL_SNAP)``."""
    return _CellColumns(pts, lambda v, axis: np.floor(v / finest + _CELL_SNAP))


def _first_per_cell(pts: np.ndarray, delta: float) -> np.ndarray:
    """Index of the first point in each occupied delta-cell, in point order.

    The cells of a coarse grid are few, so the first index of each packed
    key is a ``minimum.at`` into one slot per key of the span.
    """
    cells = _CellColumns(pts, lambda v, axis: np.floor(v / delta))
    n = len(pts)
    first = np.full(cells.span, n)
    np.minimum.at(first, cells.key(0, n), np.arange(n))
    return np.sort(first[first < n])


def _checked_scales(scales) -> list[float]:
    """The scales as floats; ValueError names one not positive and finite."""
    scales = [float(s) for s in scales]
    for s in scales:
        if not 0.0 < s < math.inf:
            raise ValueError(f"scale {s} must be positive and finite")
    return scales


def box_count(data: np.ndarray, delta_ladder) -> list[int]:
    """Occupied-cell counts of (n, 2) points ``data`` per ladder scale,
    coarsest first.

    Every ladder scale must be positive, finite and an integer multiple of
    the finest one, so that counts come from exact block merges of a single
    fine grid: the distinct fine cells, floor-divided per level and counted
    by the column-wise cell kernel (a bitmap count when the level's key
    range is dense, a sort otherwise).  A cell index past int64 raises
    ValueError.
    """
    ladder = sorted(_checked_scales(delta_ladder), reverse=True)
    if not ladder:
        raise ValueError("empty ladder")
    finest = ladder[-1]
    multiples = [round(delta / finest) for delta in ladder]
    for delta, r in zip(ladder, multiples):
        if abs(delta / finest - r) > 1e-9 * max(r, 1):
            raise ValueError(f"ladder scale {delta} is not an integer multiple of {finest}")
    limit = budget_limit()
    fine = _snapped_cells(np.asarray(data, dtype=float), finest)
    cells = fine.distinct()
    if cells.shape[0] > limit:
        raise BudgetError(f"{cells.shape[0]} occupied cells exceed budget {limit}")
    # the extreme fine cells floor-divide to the extreme coarse cells
    return [_CellColumns(cells, lambda v, axis: v // r, fine.bounds).count() for r in multiples]


def fit_dimension(counts, scales) -> DimEstimate:
    """Slope of log N against log(1/delta) with a transient-trim rule.

    Requires at least four scales.  When the residual of the full fit
    exceeds 0.1 and enough points remain, the two coarsest scales are
    dropped and the fit is rerun (slowly converging constructions pollute
    the coarse end first).
    """
    scales = _checked_scales(scales)
    counts = [int(c) for c in counts]
    if len(scales) != len(counts):
        raise ValueError("counts and scales length mismatch")
    if len(scales) < 4:
        raise TooFewScalesError(f"need >= 4 scales, got {len(scales)}")
    order = np.argsort(scales)[::-1]
    s = np.array(scales)[order]
    c = np.array(counts)[order]
    if np.any(c <= 0):
        raise ValueError("counts must be positive")

    def run(sa, ca):
        x = np.log(1.0 / sa)
        y = np.log(ca)
        slope, intercept = np.polyfit(x, y, 1)
        resid = float(np.max(np.abs(y - (slope * x + intercept))) / math.log(2))
        return float(slope), float(intercept), resid

    slope, intercept, resid = run(s, c)
    trimmed = False
    if resid > RESIDUAL_TRIM_THRESHOLD and len(s) >= 6:
        slope, intercept, resid = run(s[2:], c[2:])
        s, c = s[2:], c[2:]
        trimmed = True
    return DimEstimate(
        slope, intercept, resid, tuple(s.tolist()), tuple(int(v) for v in c), trimmed
    )


def assouad_estimate(
    cloud: PointCloud,
    scale_pairs: list[tuple[float, float]] | None = None,
    seed: int = 0,
    centers: np.ndarray | None = None,
) -> float:
    """Heuristic local-scaling exponent: worst sampled ball wins.

    The functional is max over sampled centers x and pairs (R, r) of
    log N(B(x, R), r) / log(R / r), with N the number of occupied r-cells
    inside the radius-R ball.  Covering constants are not divided out, so
    at ratio gap g = log2(R/r) even a straight segment reads 1 + 1/g; keep
    g >= 6 when absolute accuracy matters.

    Unless supplied, up to ASSOUAD_BALLS centers are sampled from a
    stratified coarse grid; default pairs use R/r in {2^4, 2^6, 2^8}.  The
    result samples a lower bound of the worst-case local scaling and carries
    no convergence guarantee.
    """
    pts = cloud.points
    if pts.shape[0] == 0:
        raise ValueError("empty cloud")
    extent = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
    if extent == 0.0:
        return 0.0
    if scale_pairs is None:
        big_r = extent / 4.0
        scale_pairs = [(big_r, big_r / 2.0**g) for g in (4, 6, 8)]
    rng = np.random.default_rng(seed)

    if centers is None:
        coarse = extent / 8.0
        centers = pts[_first_per_cell(pts, coarse)]
        if centers.shape[0] > ASSOUAD_BALLS:
            idx = rng.choice(centers.shape[0], size=ASSOUAD_BALLS, replace=False)
            centers = centers[np.sort(idx)]
    else:
        centers = np.atleast_2d(np.asarray(centers, dtype=float))

    pairs = [(big_r, max(small_r, cloud.resolution)) for big_r, small_r in scale_pairs]
    pairs = [(big_r, small_r) for big_r, small_r in pairs if big_r > small_r]
    radii = dict.fromkeys(big_r for big_r, _ in pairs)
    best = 0.0
    for center in centers:
        d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        # the default pairs share one R: each ball is masked once per center
        balls = {big_r: pts[d <= big_r] for big_r in radii}
        for big_r, small_r in pairs:
            local = balls[big_r]
            if local.shape[0] == 0:
                continue
            n = _snapped_cells(local, small_r).count()
            best = max(best, math.log(n) / math.log(big_r / small_r))
    return best
