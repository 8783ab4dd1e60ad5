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
from .linalg2 import Direction, ProjLine, image_angles
from .regularity import Cone, orientation_cover
from .symbolic import IFS, PointCloud, attractor_cloud

# carriers closer than this to the orientation cover are refused: their
# pullbacks would need more refinement depth than the default checks run
COVER_MARGIN = 0.2
# pulled-back lines projected and sorted together by _Projector
PULLBACK_BLOCK = 8
# a block whose last row of n points has n / STABLE_SORT_DESCENTS descents or
# more sorts with numpy's default sort, any other with timsort (kind="stable"),
# which runs in time proportional to the rows' disorder. On a row of 80,019
# points timsort took 0.39 ms at 5,996 descents and 0.76 ms at 10,773, the
# default sort 0.45 ms at any order (numpy 2.4.6, 2-core x86 VM)
STABLE_SORT_DESCENTS = 16


@dataclass(frozen=True)
class ProjectionVerdict:
    """Interval check for pulled-back projections at one direction.

    ``passed`` refers to the requested depth; ``first_pass_depth`` records
    the empirical first level at which every pullback projection was free
    of relative gaps (None if no level passed).  ``zero_span`` says that a
    projection at the requested depth has zero span, which fails it
    whatever its gaps.
    """

    direction: Direction
    passed: bool
    worst_gap: float
    gap_tol: float
    depth: int
    exceptional: bool = False
    first_pass_depth: int | None = None
    zero_span: bool = False


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

    A level that pulls back to a single line is projected by itself, as a
    matrix-vector product, which rounds unlike a row of a block; the lines
    of a longer level are projected PULLBACK_BLOCK at a time, and a lone
    last line shares the block of its predecessors.  ``direction_scan``
    runs this same check for all its carriers at once, with the same bits.

    Directions whose carrier comes within COVER_MARGIN of the orientation
    cover raise ExceptionalDirectionError.  A level whose points x lines
    projection would exceed the budget raises BudgetError, counting the
    lines of this carrier's level alone, also inside a scan.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    limit = budget_limit()
    if cover is None:
        cover = orientation_cover(ifs, eps=1e-2)
    carrier = e.carrier()
    clearance = _clearance(carrier, cover)
    if clearance < COVER_MARGIN:
        raise ExceptionalDirectionError(
            f"carrier at angle {carrier.angle:.4f} within {clearance:.4f} of the "
            f"orientation cover (margin {COVER_MARGIN})"
        )
    if cloud is None:
        cloud = attractor_cloud(ifs, delta)
    (verdict,) = _pullback_verdicts(ifs, [carrier], depth, cloud, limit)
    return replace(verdict, direction=e)


def _clearance(carrier: ProjLine, cover: list[Cone]) -> float:
    """Angular distance from the carrier to the orientation cover."""
    return min(c.line_distance(carrier) for c in cover)


def _pullback_verdicts(
    ifs: IFS, carriers: list[ProjLine], depth: int, cloud: PointCloud, limit: int
) -> list[ProjectionVerdict]:
    """Verdicts of the carriers, walking their pull-back levels in lockstep.

    Each returned verdict stands at its carrier's first direction (angle in
    [0, pi)).  At each level, the lines of every carrier still judged there
    are projected in one pass sorted by angle, so neighbouring lines, also of
    different carriers, project the cloud in nearly the same order.
    """
    gap_tol = 3.0 * cloud.resolution
    # breadth-first pullback of each carrier through inverse factor maps;
    # projectively identical pullbacks collapse, so diagonal systems cost
    # one axis per level instead of kappa^depth
    inverses = np.stack([f.linear.inverse.as_array() for f in ifs.maps])
    # the first line of each key round(angle, 12) stands for a level's others
    angles = [[c.angle] for c in carriers]
    first_pass: list[int | None] = [None] * len(carriers)
    final: list[tuple[bool, float, bool]] = [(False, 0.0, False)] * len(carriers)
    projector = _Projector(cloud.points)
    for n in range(1, depth + 1):
        judged = []  # (carrier index, its level's sorted keys)
        for i in range(len(carriers)):
            vecs = np.array([(math.cos(a), math.sin(a)) for a in angles[i]])
            back = image_angles(inverses, vecs[:, None]).ravel().tolist()  # line-major
            # the sorted keys, and each key's first line (return_index sorts stably)
            keys, first = np.unique([round(a, 12) for a in back], return_index=True)
            angles[i] = [back[k] for k in np.sort(first).tolist()]
            # once a level has passed, only the last level's verdict is read
            if first_pass[i] is None or n == depth:
                if len(cloud) * len(first) > limit:
                    raise BudgetError(
                        f"pull-back projection at depth {n} needs {len(cloud)} points x "
                        f"{len(first)} lines, over budget {limit}"
                    )
                judged.append((i, keys))
        for i, spans, gaps in projector.level(judged):
            # a projection onto a point is no interval: a zero span fails
            ok = spans > 0
            rel = gaps[ok] / spans[ok]
            passed = bool(ok.all() and np.all(rel <= gap_tol / spans[ok]))
            if passed and first_pass[i] is None:
                first_pass[i] = n
            final[i] = passed, float(rel.max(initial=0.0)), not ok.all()
    return [
        ProjectionVerdict(Direction(c.angle), p, w, float(gap_tol), depth, False, f, z)
        for c, (p, w, z), f in zip(carriers, final, first_pass)
    ]


class _Projector:
    """Spans and largest gaps of the cloud's projections onto the axes of
    pulled-back lines, given by their keys.

    A level of one line is its own product ``axes @ points.T`` (gemv), made
    once for each distinct key of those levels: carriers that differ in their
    last bits (theta and theta + pi) often pull back to one key. The
    longer levels of all carriers are merged into one row per distinct key
    (an axis is a function of its key), sorted by angle and projected
    PULLBACK_BLOCK lines at a time (gemm) into one reused C-ordered block, one
    line's values per contiguous row, so each row sorts in place with no
    (points x lines) array; each key's span and gap go back to every carrier
    line that has it. A block of 2+ lines holds the same bits as those rows
    of the full product, and a block projected from permuted points the
    permuted columns, but a one-line block rounds some elements differently
    (tests/test_geometry.py checks all three). So the last block ends on the
    last line, overlapping its predecessor instead of holding a lone line.
    The points are kept in the sorted order of each block's last line, so
    each row of the next block arrives nearly sorted; a block whose first
    row jumps to a new cluster of angles is projected again from the points
    in that row's sorted order. One sort kind serves a whole block: its last
    row, the farthest from the line that ordered the points, decides it.
    """

    def __init__(self, points: np.ndarray):
        n = len(points)
        self.points = points
        # the points in the current sort order, and the buffer of the next:
        # copies, since both are written
        self.ordered = np.array(points, order="C")
        self.spare = np.empty_like(self.ordered)
        self.block = np.empty((PULLBACK_BLOCK, n))
        self.row = np.empty(n)  # the last row's sorted values, then each row's gaps
        self.descents = np.empty(max(n - 1, 0), dtype=bool)

    def level(self, judged):
        """Yield (carrier, spans, gaps) for each (carrier, keys) of a level,
        spans and gaps in the order of that carrier's keys."""
        merged = []
        single = {}  # the span and gap of each distinct one-line key, by its bits
        for i, keys in judged:
            if len(keys) > 1:
                merged.append((i, keys))
                continue
            bits = keys.tobytes()
            if bits not in single:
                row = _axes(keys) @ self.points.T
                row.sort(axis=1)
                gap = np.diff(row, axis=1).max(axis=1, initial=0.0)
                single[bits] = row[:, -1] - row[:, 0], gap
            yield i, *single[bits]
        if not merged:
            return
        # the distinct keys in order, each projected once; a merged carrier
        # has 2+ keys, so no block holds a lone line
        distinct, which = np.unique(np.concatenate([k for _, k in merged]), return_inverse=True)
        axes = _axes(distinct)
        m = len(axes)
        spans = np.empty(m)
        gaps = np.empty(m)
        for j in range(0, m, PULLBACK_BLOCK):
            rows = slice(max(min(j, m - PULLBACK_BLOCK), 0), j + PULLBACK_BLOCK)
            blk = np.matmul(axes[rows], self.ordered.T, out=self.block[: len(axes[rows])])
            if self._disordered(blk[0]):
                # the block jumps to a new cluster of angles: project it again
                # from the points in its first row's sorted order, so that row
                # and its neighbours arrive nearly sorted
                self._reorder(blk[0].argsort())
                np.matmul(axes[rows], self.ordered.T, out=blk)
            kind = None if self._disordered(blk[-1]) else "stable"
            for row in blk[:-1]:
                row.sort(kind=kind)
            last = blk[-1]
            perm = last.argsort(kind=kind)
            # perm is a permutation, so "clip" clips nothing; unlike the
            # default "raise", it writes to out without a buffering copy
            last[:] = np.take(last, perm, out=self.row, mode="clip")
            self._reorder(perm)
            spans[rows] = blk[:, -1] - blk[:, 0]
            for k, row in enumerate(blk, rows.start):  # sorted: every gap >= 0
                gaps[k] = np.subtract(row[1:], row[:-1], out=self.row[1:]).max(initial=0.0)
        # each carrier line takes its key's span and gap
        bounds = np.cumsum([len(k) for _, k in merged])[:-1]
        spans, gaps = np.split(spans[which], bounds), np.split(gaps[which], bounds)
        for (i, _), s, g in zip(merged, spans, gaps):
            yield i, s, g

    def _disordered(self, row: np.ndarray) -> bool:
        """The row has n / STABLE_SORT_DESCENTS descents or more."""
        descents = np.less(row[1:], row[:-1], out=self.descents)
        return STABLE_SORT_DESCENTS * np.count_nonzero(descents) >= len(row)

    def _reorder(self, perm: np.ndarray) -> None:
        """Put the points in the order ``perm``, into the spare buffer."""
        np.take(self.ordered, perm, axis=0, out=self.spare, mode="clip")
        self.ordered, self.spare = self.spare, self.ordered


def _axes(keys: np.ndarray) -> np.ndarray:
    """The axes perpendicular to the lines at angles ``keys``, one a row."""
    return np.stack([-np.sin(keys), np.cos(keys)], axis=1)


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
    The checks of all carriers walk their pull-back levels together, so the
    budget error, if any, names the shallowest level over budget.
    """
    if n_dirs < 4:
        raise ValueError("n_dirs must be >= 4")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cover = orientation_cover(ifs, eps=1e-2)
    cloud = attractor_cloud(ifs, delta)
    grid = [Direction(2.0 * math.pi * k / n_dirs) for k in range(n_dirs)]
    carriers = {d.carrier().angle: d.carrier() for d in grid}.values()
    checked = [line for line in carriers if _clearance(line, cover) >= COVER_MARGIN]
    verdicts = _pullback_verdicts(ifs, checked, depth, cloud, budget_limit())
    by_carrier = {c.angle: v for c, v in zip(checked, verdicts)}
    flagged = ProjectionVerdict(grid[0], False, math.nan, math.nan, depth, True)
    return [replace(by_carrier.get(d.carrier().angle, flagged), direction=d) for d in grid]
