"""Convex hull of the attractor and the projection-condition decision.

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

COLLINEAR_TOL = 1e-12
# carriers closer than this to the orientation cover are refused: their
# pullbacks would need more refinement depth than the default checks run
COVER_MARGIN = 0.2
# hull iterations before attractor_hull gives up
HULL_STEPS = 1_000
# pulled-back lines projected and sorted together in level_verdict
PULLBACK_BLOCK = 8


@dataclass(frozen=True)
class ConvexPolygon:
    """Counterclockwise vertex list, collinear vertices pruned."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertices", np.atleast_2d(np.asarray(self.vertices, dtype=float))
        )

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def contains(self, point, tol: float = 1e-9) -> bool:
        v = self.vertices
        n = len(self)
        if n == 1:
            return bool(np.hypot(*(point - v[0])) <= tol)
        if n == 2:
            return self.distance(point) <= tol
        p = np.asarray(point, dtype=float)
        nxt = np.roll(v, -1, axis=0)
        cross = (nxt[:, 0] - v[:, 0]) * (p[1] - v[:, 1]) - (nxt[:, 1] - v[:, 1]) * (
            p[0] - v[:, 0]
        )
        return bool(np.all(cross >= -tol * (1 + np.abs(cross).max())))

    def distance(self, point) -> float:
        """Euclidean distance from a point to the polygon (0 inside)."""
        p = np.asarray(point, dtype=float)
        v = self.vertices
        if len(self) == 1:
            return float(np.hypot(*(p - v[0])))
        if len(self) > 2 and self.contains(p, tol=0.0):
            return 0.0
        nxt = np.roll(v, -1, axis=0)
        d = nxt - v
        lens2 = np.maximum((d**2).sum(axis=1), 1e-300)
        t = np.clip(((p - v) * d).sum(axis=1) / lens2, 0.0, 1.0)
        proj = v + t[:, None] * d
        return float(np.hypot(proj[:, 0] - p[0], proj[:, 1] - p[1]).min())


def convex_hull(points: np.ndarray) -> ConvexPolygon:
    """Monotone-chain hull with collinear pruning; ccw vertex order."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] <= 2:
        return ConvexPolygon(pts)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    scale = max(np.abs(pts).max(), 1.0)
    tol = COLLINEAR_TOL * scale * scale

    def build(seq):
        chain: list[np.ndarray] = []
        for p in seq:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= tol:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    return ConvexPolygon(hull)


def hausdorff_polygons(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Hausdorff distance between convex polygons (attained at vertices)."""
    d_ab = max(b.distance(v) for v in a.vertices)
    d_ba = max(a.distance(v) for v in b.vertices)
    return max(d_ab, d_ba)


def attractor_hull(ifs: IFS, eps: float) -> ConvexPolygon:
    """Iterate K <- hull(union of map images of K) until the drift is <= eps.

    The seed polygon circumscribes a self-mapped ball around map 1's fixed
    point, so every iterate contains the attractor and the iteration is
    monotone decreasing; convergence is geometric at rate max alpha1.
    """
    if not eps > 0:  # also true for NaN
        raise ValueError("eps must be positive")
    limit = budget_limit()
    x0, s, d0 = ifs.invariant_ball()
    if d0 == 0.0:
        return ConvexPolygon(x0[None, :])
    n_gon = 64
    while math.cos(math.pi / n_gon) <= s:
        n_gon *= 2
        if n_gon > 1_000_000:
            raise BudgetError("contraction ratio too close to 1 for hull seeding")
    radius = d0 / (1.0 - s / math.cos(math.pi / n_gon))
    ang = 2.0 * math.pi * np.arange(n_gon) / n_gon
    seed = x0 + radius / math.cos(math.pi / n_gon) * np.stack(
        [np.cos(ang), np.sin(ang)], axis=1
    )
    poly = convex_hull(seed)
    for _ in range(HULL_STEPS):
        images = np.concatenate([f(poly.vertices) for f in ifs.maps])
        if images.shape[0] > limit:
            raise BudgetError(f"hull iteration exceeded budget {limit}")
        new_poly = convex_hull(images)
        drift = hausdorff_polygons(poly, new_poly)
        poly = new_poly
        if drift <= eps:
            return poly
    raise BudgetError(f"hull iteration failed to reach eps={eps} in {HULL_STEPS} steps")


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
    largest gap exceeds ``gap_tol`` = 3 * cloud.resolution; ``worst_gap``
    is the largest gap relative to its projection's span.  Verdicts are
    certified only up to the tested depth.

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
        ok = spans > 0
        rel = np.zeros_like(spans)
        rel[ok] = gaps[ok] / spans[ok]
        tols = np.zeros_like(spans)
        tols[ok] = gap_tol / spans[ok]
        return bool(np.all(rel[ok] <= tols[ok])), float(rel[ok].max(initial=0.0))

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
