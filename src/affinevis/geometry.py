"""The projection-condition decision and the direction scan.

The projection condition asks whether deep cylinders project onto
non-trivial intervals along a direction; by invariance this reduces to
projecting the attractor along pulled-back directions and looking for gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetError, ExceptionalDirectionError, budget_limit
from .linalg2 import Direction, image_angles
from .regularity import Cone, orientation_cover
from .symbolic import IFS, PointCloud, _distinct_rows, attractor_cloud

# carriers closer than this to the orientation cover are refused: their
# pullbacks would need more refinement depth than the default checks run
COVER_MARGIN = 0.2
# pulled-back lines projected and sorted together in level_verdict
PULLBACK_BLOCK = 8


@dataclass(frozen=True)
class ProjectionVerdict:
    """Interval check for pulled-back projections at one direction.

    ``passed`` refers to the requested depth; ``first_pass_depth`` records
    the empirical first level at which every pullback projection was free
    of relative gaps (None if no level passed).
    """

    direction: Direction
    passed: bool
    worst_gap: float
    gap_tol: float
    depth: int
    exceptional: bool = False
    first_pass_depth: int | None = None


def projection_condition_check(
    ifs: IFS,
    e: Direction,
    depth: int = 5,
    cloud: PointCloud | None = None,
    cover: list[Cone] | None = None,
    delta: float = 2.0**-10,
) -> ProjectionVerdict:
    """Decide whether depth-n cylinder projections along ``e`` are intervals.

    For each word of the given length, the direction is pulled back through
    the inverse cylinder map and the attractor cloud is projected onto the
    axis perpendicular to the pulled-back direction.  A delta-net shows
    spurious gaps up to about 2 delta, so a projection fails when its
    largest gap exceeds ``gap_tol`` = 3 * cloud.resolution, or when its
    span is zero (the cloud projects to a point, which is no interval);
    ``worst_gap`` is the largest gap relative to its projection's span,
    over the projections of positive span.  Verdicts are certified only up
    to the tested depth.

    Directions whose carrier comes within COVER_MARGIN of the orientation
    cover raise ExceptionalDirectionError.  A level whose points x lines
    projection would exceed the budget raises BudgetError.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    limit = budget_limit()
    if cover is None:
        cover = orientation_cover(ifs, eps=1e-2)
    carrier = e.carrier()
    clearance = min(c.line_distance(carrier) for c in cover)
    if clearance < COVER_MARGIN:
        raise ExceptionalDirectionError(
            f"carrier at angle {carrier.angle:.4f} within {clearance:.4f} of the "
            f"orientation cover (margin {COVER_MARGIN})"
        )
    if cloud is None:
        cloud = attractor_cloud(ifs, delta)
    gap_tol = 3.0 * cloud.resolution
    # breadth-first pullback of the carrier through inverse factor maps;
    # projectively identical pullbacks collapse, so diagonal systems cost
    # one axis per level instead of kappa^depth
    inverses = np.stack([f.linear.inverse.as_array() for f in ifs.maps])

    def level_verdict(n: int, back_angles: np.ndarray) -> tuple[bool, float]:
        if len(cloud) * len(back_angles) > limit:
            raise BudgetError(
                f"pull-back projection at depth {n} needs {len(cloud)} points x "
                f"{len(back_angles)} lines, over budget {limit}"
            )
        # project along the pulled-back direction = onto its perpendicular axis
        axes = np.stack([-np.sin(back_angles), np.cos(back_angles)], axis=1)
        # project and sort PULLBACK_BLOCK lines at a time: BLAS writes each
        # block C-ordered, one line's values per contiguous row, so it sorts in
        # place with no (points x lines) array and no transposing copy. A block
        # of 2+ lines (gemm) equals the same rows of the level's full product
        # points @ axes.T bit for bit, but a one-line block (gemv) rounds some
        # elements differently (tests/test_geometry.py checks both). So the
        # last block ends on the last line, overlapping its predecessor
        # instead of holding a lone line; a one-line level is its own product
        m = len(axes)
        spans = np.empty(m)
        gaps = np.empty(m)
        for j in range(0, m, PULLBACK_BLOCK):
            rows = slice(max(min(j, m - PULLBACK_BLOCK), 0), j + PULLBACK_BLOCK)
            blk = axes[rows] @ cloud.points.T
            blk.sort(axis=1)
            spans[rows] = blk[:, -1] - blk[:, 0]
            gaps[rows] = np.diff(blk, axis=1).max(axis=1, initial=0.0)  # sorted: >= 0
        # a projection onto a point is no interval: a zero span fails
        ok = spans > 0
        rel = gaps[ok] / spans[ok]
        passed = bool(ok.all() and np.all(rel <= gap_tol / spans[ok]))
        return passed, float(rel.max(initial=0.0))

    # the first line of each key round(angle, 12) stands for a level's others
    angles = [carrier.angle]
    first_pass: int | None = None
    for n in range(1, depth + 1):
        vecs = np.array([(math.cos(a), math.sin(a)) for a in angles])
        back = image_angles(inverses, vecs[:, None]).ravel().tolist()  # line-major
        keys = np.array([round(a, 12) for a in back])
        first = _distinct_rows(keys)[0]
        angles = [back[k] for k in first.tolist()]
        # once a level has passed, only the last level's verdict is read
        if first_pass is None or n == depth:
            passed, worst = level_verdict(n, np.sort(keys[first]))
            if passed and first_pass is None:
                first_pass = n
    return ProjectionVerdict(
        e, passed, worst, float(gap_tol), depth, False, first_pass
    )


def direction_scan(
    ifs: IFS,
    n_dirs: int,
    depth: int = 5,
    delta: float = 2.0**-10,
) -> list[ProjectionVerdict]:
    """Projection verdicts on a uniform angular grid over [0, 2*pi).

    Exceptional directions are flagged rather than raised. A verdict depends
    on the direction only through its carrier line, so directions sharing a
    carrier (theta and theta + pi) share one check; rows are in grid order.
    """
    if n_dirs < 4:
        raise ValueError("n_dirs must be >= 4")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cover = orientation_cover(ifs, eps=1e-2)
    cloud = attractor_cloud(ifs, delta)
    by_carrier: dict[float, ProjectionVerdict] = {}

    def row(d: Direction) -> ProjectionVerdict:
        key = d.carrier().angle
        if key not in by_carrier:
            try:
                by_carrier[key] = projection_condition_check(
                    ifs, d, depth, cloud=cloud, cover=cover
                )
            except ExceptionalDirectionError:
                by_carrier[key] = ProjectionVerdict(d, False, math.nan, math.nan, depth, True)
        return replace(by_carrier[key], direction=d)

    return [row(Direction(2.0 * math.pi * k / n_dirs)) for k in range(n_dirs)]
