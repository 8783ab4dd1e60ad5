"""Magnification frames, approximating rectangles, and tangent sequences.

A frame (x, r) sends y to (y - x) / r.  The approximating rectangle of a
cylinder under a frame is the smallest rectangle aligned with the
cylinder's singular orientations that contains the magnified cylinder;
its long side h grows like alpha1/r and its short side v shrinks like
alpha2/r, so under domination the rectangles become long needles whose
directions accumulate on the limit-orientation set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetError, EmptyCylinderViewError, NoExitError
from .linalg2 import PI, ProjLine
from .regularity import _union
from .symbolic import (
    IFS,
    Cylinder,
    PointCloud,
    Word,
    attractor_cloud,
    cyclic_prefix,
    cylinder,
)
from .visibility import KakeyaSet

DEFAULT_RECT_DELTA = 0.01
# kakeya_extract snaps directions this close together to their circular mean
CLUSTER_TOL = 1e-2


@dataclass(frozen=True)
class TangentFrame:
    """Magnification window: center on the set, scale in (0, 1]."""

    center: tuple[float, float]
    scale: float

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"frame scale {self.scale} outside (0, 1]")

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - np.asarray(self.center)) / self.scale


@dataclass(frozen=True)
class ApproxRect:
    """Smallest rectangle around a magnified cylinder, axes along the
    cylinder's singular orientations; h along theta1, v along theta2."""

    center: np.ndarray
    orientation: ProjLine
    h: float
    v: float
    word: Word

    def long_axis(self) -> np.ndarray:
        return self.orientation.vector()

    def short_side_centers(self) -> tuple[np.ndarray, np.ndarray]:
        u = self.long_axis()
        return self.center - 0.5 * self.h * u, self.center + 0.5 * self.h * u


def magnify(cloud: PointCloud, frame: TangentFrame) -> PointCloud:
    """Frame image of a cloud, clipped to the closed unit ball."""
    pts = frame(cloud.points)
    keep = np.hypot(pts[:, 0], pts[:, 1]) <= 1.0
    return PointCloud(pts[keep], cloud.resolution / frame.scale)


def approx_rect(cyl: Cylinder, frame: TangentFrame, cloud: PointCloud) -> ApproxRect:
    """Bounding rectangle of the magnified cylinder in its singular frame.

    The cylinder's point set is the pushforward of ``cloud``, a base cloud
    of the whole attractor, through the cylinder map, so the strongly
    contracted extent keeps its relative accuracy; h and v carry about
    +/- 2 delta relative error for a cloud of resolution delta
    (``tangent_sequence`` uses DEFAULT_RECT_DELTA).  Raises
    EmptyCylinderView when the magnified cylinder misses the unit ball
    entirely, and BudgetError, naming the word length n, when the short
    side at its true size is positive but below 2^-48 of the largest
    |coordinate| of the cylinder's points: it then spans at most 16 ulps of
    those coordinates, and its rounding error is past about 1%.  The true
    size, alpha2 times the extent of ``cloud`` along eta2, carries no
    translation; it is 0 only for a set flat along eta2, whose v is 0 up to
    rounding.
    """
    points = cyl.map(cloud.points)
    side = cyl.alpha2 * np.ptp(cloud.points @ np.array(cyl.sdata.eta2))
    if 0.0 < side < 2.0**-48 * np.abs(points).max():
        raise BudgetError(
            f"tangent sequence stops at n = {len(cyl.word)}: the rectangle's short "
            "side is below the float resolution of the cylinder's points"
        )
    pts = frame(points)
    if np.min(np.hypot(pts[:, 0], pts[:, 1])) > 1.0:
        raise EmptyCylinderViewError(
            f"cylinder {cyl.word} does not meet the unit ball in this frame"
        )
    u1 = cyl.sdata.theta1.vector()
    u2 = cyl.sdata.theta2.vector()
    s1 = pts @ u1
    s2 = pts @ u2
    h = float(s1.max() - s1.min())
    v = float(s2.max() - s2.min())
    mid = 0.5 * (s1.max() + s1.min()) * u1 + 0.5 * (s2.max() + s2.min()) * u2
    return ApproxRect(mid, cyl.sdata.theta1, h, v, cyl.word)


def tangent_sequence(
    ifs: IFS,
    i_stream: Sequence[int],
    n_max: int,
) -> list[tuple[TangentFrame, ApproxRect]]:
    """Frames and rectangles along growing prefixes of a symbol stream.

    The n-th frame centers at the anchor of the length-n prefix and uses
    scale r_n = n * alpha2(prefix), so alpha2 = r_n / n holds by
    construction.  Under domination h_n = (alpha1/alpha2) / n grows
    geometrically while v_n = 1 / n decays; both trends are measurable on
    the emitted rectangles, whose base cloud has resolution DEFAULT_RECT_DELTA.
    A prefix past the float resolution raises BudgetError (see ``approx_rect``).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    symbols = cyclic_prefix(i_stream, n_max)
    cloud = attractor_cloud(ifs, DEFAULT_RECT_DELTA)
    out: list[tuple[TangentFrame, ApproxRect]] = []
    for n in range(1, n_max + 1):
        word = symbols[:n]
        cyl = cylinder(ifs, word)
        r_n = min(1.0, n * cyl.alpha2)
        anchor = cyl.map(ifs.anchor_point())
        frame = TangentFrame((float(anchor[0]), float(anchor[1])), r_n)
        out.append((frame, approx_rect(cyl, frame, cloud)))
    return out


def _cluster_angles(angles: np.ndarray, tol: float) -> np.ndarray:
    """Snap full-circle angles to the circular mean of their tol-cluster."""
    out = np.empty_like(angles)
    for _, _, members in _union(zip(angles.tolist(), angles.tolist()), tol, 2.0 * PI):
        cluster = angles[members]
        out[members] = math.atan2(np.sin(cluster).sum(), np.cos(cluster).sum()) % (2.0 * PI)
    return out


def kakeya_extract(rects: Sequence[ApproxRect]) -> KakeyaSet:
    """Kakeya-set structure from a family of long approximating rectangles.

    Each rectangle must have h > 2 so at least one short side lies outside
    the unit ball; the extracted direction is the long-axis carrier signed
    toward an exiting side.  Directions within CLUSTER_TOL are snapped
    to their circular mean; base points are the long-axis points nearest
    the origin.
    """
    if not rects:
        raise ValueError("no rectangles given")
    bases = []
    raw_angles = []
    for r in rects:
        if r.h <= 2.0:
            raise NoExitError(f"rectangle for word {r.word} has h = {r.h:.3f} <= 2")
        u = r.long_axis()
        lo_side, hi_side = r.short_side_centers()
        u2 = np.array([-u[1], u[0]])

        def side_clears_ball(s_center: np.ndarray) -> bool:
            ends = np.stack([s_center - 0.5 * r.v * u2, s_center + 0.5 * r.v * u2])
            d = _segment_min_distance_to_origin(ends[0], ends[1])
            return d > 1.0

        hi_ok = side_clears_ball(hi_side)
        lo_ok = side_clears_ball(lo_side)
        if not hi_ok and not lo_ok:
            raise NoExitError(
                f"rectangle for word {r.word} has no short side clear of the ball"
            )
        sign = 1.0 if hi_ok else -1.0
        angle = math.atan2(sign * u[1], sign * u[0]) % (2.0 * PI)
        raw_angles.append(angle)
        t = float(np.clip(-(r.center @ u), -0.5 * r.h, 0.5 * r.h))
        bases.append(r.center + t * u)
    thetas = _cluster_angles(np.array(raw_angles), CLUSTER_TOL)
    return KakeyaSet(np.array(bases), thetas)


def _segment_min_distance_to_origin(a: np.ndarray, b: np.ndarray) -> float:
    d = b - a
    len2 = float(d @ d)
    if len2 == 0.0:
        return float(np.hypot(*a))
    t = float(np.clip(-(a @ d) / len2, 0.0, 1.0))
    p = a + t * d
    return float(np.hypot(*p))
