"""Composed end-to-end runs shared by the CLI and the scenario assertions."""

from __future__ import annotations

import math

from .dimension import DimEstimate, box_count, fit_dimension
from .linalg2 import Direction, ProjLine, proj_distance
from .symbolic import PointCloud
from .visibility import rasterize, visible_exact, visible_sweep


def ladder_scales(lo_exp: int, hi_exp: int, base: float = 2.0) -> list[float]:
    if not 1 < base < math.inf:  # an infinite base makes every scale 0
        raise ValueError(f"ladder base {base} must be > 1 and finite")
    if hi_exp < lo_exp:
        raise ValueError("ladder hi exponent must be >= lo exponent")
    return [base**-k for k in range(lo_exp, hi_exp + 1)]


def ladder_grids(cloud: PointCloud, scales: list[float]) -> list:
    """One rasterization per ladder scale, coarsest first; reusable across
    directions since rasterization does not depend on the direction."""
    return [rasterize(cloud, delta) for delta in sorted(scales, reverse=True)]


def vis_dim(
    cloud: PointCloud,
    e: Direction,
    scales: list[float],
    exact: bool = False,
    grids: list | None = None,
) -> DimEstimate:
    """Fit the scaling of the visible part over a scale ladder.

    Default mode counts the per-scale sweep (column-quantized visibility):
    each scale gets its own rasterization and sweep, since delta-visibility
    is a per-scale object whose occlusion and counting widths move together.
    ``grids``, when given, are the rasterizations of ``ladder_grids`` at
    these scales, coarsest first; other deltas raise ValueError.  ``exact``
    mode instead computes the exact-ray visible subset of the cloud once
    and box-counts it across the ladder; use it at exceptional orientations,
    where column quantization collapses structure that exact sight lines
    keep.
    """
    scales = sorted((float(s) for s in scales), reverse=True)
    if exact:
        visible = visible_exact(cloud, e)
        counts = box_count(visible.points, scales)
    else:
        if grids is None:
            grids = ladder_grids(cloud, scales)
        elif [grid.delta for grid in grids] != scales:
            raise ValueError(f"grid deltas differ from the scales {scales}")
        counts = [len(visible_sweep(grid, e)) for grid in grids]
    return fit_dimension(counts, scales)


def set_dim(cloud: PointCloud, scales: list[float]) -> DimEstimate:
    """Box-dimension fit of the cloud itself over the ladder."""
    scales = sorted((float(s) for s in scales), reverse=True)
    return fit_dimension(box_count(cloud.points, scales), scales)


def spread_directions(n: int, avoid_carrier_angle: float, min_distance: float) -> list[Direction]:
    """n near-uniform directions whose carriers all stay at least
    min_distance from the given carrier angle."""
    avoid = ProjLine(avoid_carrier_angle)
    m = n
    while m <= 16 * n:
        m += 1
        cands = [Direction(0.05 + 2.0 * math.pi * k / m) for k in range(m)]
        kept = [d for d in cands if proj_distance(d.carrier(), avoid) >= min_distance]
        if len(kept) >= n:
            return kept[:n]
    raise ValueError("could not place the requested directions")

