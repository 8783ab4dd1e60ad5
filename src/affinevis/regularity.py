"""Domination diagnostics, invariant cones, orientation covers, distortion.

A cone is a proper closed interval in the projective line.  The checks
here are finite certificates: a passing verdict is certified up to the
tested depth, a failing cone search is not a disproof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    BudgetError,
    ImproperConeError,
    NoConeError,
    NoGapError,
    budget_limit,
)
from .linalg2 import (
    ProjLine,
    alpha_pair_of_stack,
    entries,
    image_angles,
    matvec_stack,
    proj_angles,
    require_regular,
    signed_gaps,
    singular_rows,
    singular_stack,
    vector_angles,
)
from .symbolic import IFS, _distinct_rows, word_levels, word_products

PI = math.pi

# "strictly inside" margin for cone containment certificates
STRICT_MARGIN = 1e-9
# angular spans that start at most this far past a run's end join the run
JOIN_SLACK = 1e-12
# domination verdict threshold for the per-level ratio root
TAU_MIN = 1.01
# exhaustive level enumeration cap (products a level builds)
EXHAUSTIVE_WORDS = 1_000_000
# random words probed per level past the exhaustive cap
DOMINATION_SAMPLES = 4096
# per-level product caps of the cone seed (also the contraction walk's) and
# the distortion probe; the porosity refinement's cap on distinct products
THETA1_WORDS = 200_000
DISTORTION_WORDS = 50_000
POROSITY_WORDS = 100_000
# word length of the orientation cover's seed hull
COVER_SEED_DEPTH = 6
# word length of the eta2 probe behind the distortion constants
DISTORTION_PROBE_DEPTH = 5
# sampled line pairs and their word length in the distortion sandwich
DISTORTION_SAMPLES = 10_000
DISTORTION_WORD_LENGTH = 8
# deepest level smallest_contraction_depth tries
CONTRACTION_DEPTH = 12


@dataclass(frozen=True)
class Cone:
    """Closed angular interval [center - half_width, center + half_width] in P^1."""

    center: ProjLine
    half_width: float

    def __post_init__(self) -> None:
        if not 0.0 < self.half_width < PI / 2:
            raise ImproperConeError(
                f"half_width {self.half_width} outside (0, pi/2)"
            )

    @property
    def diameter(self) -> float:
        return 2.0 * self.half_width

    def contains_line(self, line: ProjLine) -> bool:
        return bool(abs(signed_gaps(line.angle, self.center.angle)) <= self.half_width)

    def line_distance(self, line: ProjLine) -> float:
        """Angular distance from a line to this interval (0 if inside)."""
        return max(0.0, float(abs(signed_gaps(line.angle, self.center.angle))) - self.half_width)


def cone_images(mats: np.ndarray, cone: Cone) -> tuple[np.ndarray, np.ndarray]:
    """``(centers, half_widths)`` of the images of a cone under an (n, 2, 2)
    stack of invertible maps: projective maps are homeomorphisms of P^1, so
    an image is the arc between the endpoint images that holds the center
    image.  A numerically singular map raises SingularInputError; an image
    spanning a half turn, ImproperConeError."""
    require_regular(mats)
    c, hw = cone.center.angle, cone.half_width
    vecs = np.array([ProjLine(a).vector() for a in (c - hw, c + hw, c)])
    images = image_angles(mats[:, None], vecs)  # (n, 3): low end, high end, center
    d_lo, d_hi = np.sort(signed_gaps(images[:, :2], images[:, 2:]), axis=1).T
    half_width = 0.5 * (d_hi - d_lo)
    if np.any(half_width >= PI / 2):
        raise ImproperConeError("image interval spans at least a half turn")
    centers = proj_angles(images[:, 2] + 0.5 * (d_lo + d_hi))
    return centers, np.where(half_width <= 0.0, 1e-15, half_width)


def _union(spans: Iterable[tuple[float, float]], slack: float, period: float) -> list[list]:
    """The runs ``[lo, hi, members]`` of the union of (lo, hi) spans on the
    circle of length ``period``, in order: each span in sorted order joins
    the run before it when it starts within ``slack`` of that run's end, and
    the last run absorbs each leading run that starts within ``slack`` of its
    end, less one period.  ``members`` are the spans' indices, in sort order."""
    runs: list[list] = []
    for k, (lo, hi) in sorted(enumerate(spans), key=lambda ks: ks[1]):
        if runs and lo <= runs[-1][1] + slack:
            runs[-1][1] = max(runs[-1][1], hi)
            runs[-1][2].append(k)
        else:
            runs.append([lo, hi, [k]])
    while len(runs) >= 2 and runs[0][0] <= runs[-1][1] - period + slack:
        _, hi, members = runs.pop(0)
        runs[-1][1] = max(runs[-1][1], hi + period)
        runs[-1][2] += members
    return runs


def merge_cones(cones: list[Cone]) -> list[Cone]:
    """Merge overlapping/touching angular intervals on the circle of length pi."""
    # each interval's left endpoint normalized into [0, pi)
    los = [(c.center.angle - c.half_width) % PI for c in cones]
    out: list[Cone] = []
    for lo, hi, _ in _union(((lo, lo + c.diameter) for lo, c in zip(los, cones)), JOIN_SLACK, PI):
        if hi - lo >= PI - JOIN_SLACK:
            raise ImproperConeError("merged intervals cover the projective line")
        out.append(Cone(ProjLine(0.5 * (lo + hi)), max(0.5 * (hi - lo), 1e-15)))
    out.sort(key=lambda c: c.center.angle)
    return out


# ---------------------------------------------------------------------------
# domination


@dataclass(frozen=True)
class DominationReport:
    """Per-level minima of (alpha1/alpha2)^(1/n), a fitted growth rate, verdict."""

    levels: tuple[int, ...]
    min_ratio_roots: tuple[float, ...]
    tau_estimate: float
    verdict: bool
    exhaustive_up_to: int


def domination_report(ifs: IFS, n_max: int, seed: int = 0) -> DominationReport:
    """Minimum singular-value ratio root per word length.

    A level that builds at most EXHAUSTIVE_WORDS products (the last exact
    level's distinct products times kappa, as ``word_levels`` builds them)
    is enumerated exactly; deeper levels are probed with DOMINATION_SAMPLES
    random words.  The verdict is true when every level's minimum n-th ratio
    root stays >= TAU_MIN; a pass certifies domination only up to ``n_max``.
    Determinants are tracked as exact factor products so the ratio
    alpha1/alpha2 = alpha1^2/|det| stays accurate while every det^2 is a
    normal float (|det| above ~1.5e-154); a level past that is too fine a
    resolution: BudgetError, naming its depth.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cap = min(EXHAUSTIVE_WORDS, budget_limit())
    rng = np.random.default_rng(seed)
    kappa = ifs.kappa
    exact_levels = word_levels(ifs, n_max)

    levels = list(range(1, n_max + 1))
    roots: list[float] = []
    exhaustive_up_to = 0
    built = kappa  # products the next exact level builds
    for n in levels:
        if built <= cap:
            mats, dets = next(exact_levels)
            exhaustive_up_to = n
            built = len(dets) * kappa
        else:
            words = rng.integers(0, kappa, size=(DOMINATION_SAMPLES, n))
            mats, dets = word_products(ifs, words)
        # some det^2 is not a normal float: alpha2^2 = det^2 / alpha1^2 lost its digits
        if not np.min(np.abs(dets)) ** 2 >= np.finfo(float).tiny:
            raise BudgetError(
                f"domination probe stops at depth {n} of {n_max}: "
                "its products are numerically singular"
            )
        a1, a2 = alpha_pair_of_stack(entries(mats), dets=dets)
        roots.append(float(np.min(a1 / a2) ** (1.0 / n)))

    # fit log(min ratio at level n) = n log(tau) + const
    log_min = np.array([n * math.log(max(r, 1e-300)) for r, n in zip(roots, levels)])
    slope = np.polyfit(levels, log_min, 1)[0] if n_max >= 2 else log_min[0]
    tau_est = float(math.exp(slope))
    verdict = all(r >= TAU_MIN for r in roots)
    return DominationReport(tuple(levels), tuple(roots), tau_est, verdict, exhaustive_up_to)


# ---------------------------------------------------------------------------
# invariant cones


def _theta1_lines(ifs: IFS, depth: int, transpose: bool = False) -> np.ndarray:
    """theta1 angles of the distinct products of the words of length ``depth``."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for mats, dets in word_levels(ifs, depth, transpose, cap=THETA1_WORDS):
        pass  # only the deepest level is used
    return singular_stack(mats, dets)[2]


def angular_hull(angles: np.ndarray) -> Cone:
    """Smallest projective interval containing the lines at the given angles.

    The hull is the complement of the largest gap between consecutive
    angles on the half-turn circle.
    """
    if not angles.size:
        raise ValueError("empty line set")
    angles = np.sort(angles)
    gaps = np.diff(angles)
    wrap = angles[0] + PI - angles[-1]
    k = int(np.argmax(gaps)) if gaps.size and gaps.max() > wrap else -1
    if k == -1:
        lo, hi = angles[0], angles[-1]
    else:
        lo, hi = angles[k + 1], angles[k] + PI
    hw = 0.5 * (hi - lo)
    if hw >= PI / 2:
        raise ImproperConeError("angular hull spans at least a half turn")
    return Cone(ProjLine(0.5 * (lo + hi)), max(float(hw), 1e-12))


def _maps_into(mats: np.ndarray, x: Cone) -> bool:
    """Every image m(X) strictly inside X, with room STRICT_MARGIN; an
    improper image fails."""
    try:
        centers, half_widths = cone_images(mats, x)
    except ImproperConeError:
        return False
    gaps = np.abs(signed_gaps(centers, x.center.angle))
    return bool(np.all(gaps + half_widths <= x.half_width - STRICT_MARGIN))


def _grown_cone(mats: np.ndarray, x: Cone) -> Cone | None:
    """``x``, or the first of the cones that replace it, each the angular
    hull of the last one's images, +10%, that ``mats`` take strictly into
    itself (for a dominated stack the hulls settle near the hull of the
    limit orientations); None when a hull is no proper cone, or after 1,000
    steps."""
    for _ in range(1000):
        if _maps_into(mats, x):
            return x
        try:
            centers, half_widths = cone_images(mats, x)
            hull = angular_hull(proj_angles(np.append(centers - half_widths, centers + half_widths)))
            x = Cone(hull.center, hull.half_width * 1.1)
        except ImproperConeError:
            return None
    return None


def cone_is_invariant(ifs: IFS, x: Cone) -> bool:
    """A_i(X) and A_i^T(X) strictly inside X for every map."""
    lin = ifs.linear_stack()
    return _maps_into(np.concatenate([lin, np.transpose(lin, (0, 2, 1))]), x)


def invariant_cone_search(ifs: IFS, depth: int) -> Cone:
    """Search for a cone X with A_i(X), A_i^T(X) strictly inside X.

    Seeds from the angular hull of depth-limited cylinder orientations
    (both for the maps and their transposes, since transpose invariance is
    part of the certificate), then inflates the hull about its centre until
    a candidate verifies or the cone stops being proper.  When no candidate
    verifies, the first one is grown into the hull of its images under the
    maps and their transposes (``_grown_cone``).
    """
    angles = np.concatenate([_theta1_lines(ifs, depth), _theta1_lines(ifs, depth, transpose=True)])
    try:
        hull = angular_hull(angles)
    except ImproperConeError:
        raise NoConeError("cylinder orientations span a half turn")
    widths = [max(hull.half_width * k, 0.02 * k) for k in (1.1, 1.25, 1.5, 2.0, 3.0)]
    candidates = [Cone(hull.center, hw) for hw in widths if hw < PI / 2 - 1e-9]
    cone = next((x for x in candidates if cone_is_invariant(ifs, x)), None)
    if cone is None and candidates:
        lin = ifs.linear_stack()
        cone = _grown_cone(np.concatenate([lin, np.transpose(lin, (0, 2, 1))]), candidates[0])
    if cone is None:
        raise NoConeError(f"no invariant cone certificate at depth {depth}")
    return cone


@dataclass(frozen=True)
class SeparationReport:
    verdict: bool
    invariant: bool
    disjoint: bool
    witness: tuple[int, int] | None


def strong_cone_separation_check(ifs: IFS, x: Cone) -> SeparationReport:
    """Check A_i(X), A_i^T(X) strictly inside X and pairwise disjoint images.

    The witness names the first overlapping (or touching) image pair on
    failure, 1-based.
    """
    invariant = cone_is_invariant(ifs, x)
    centers, half_widths = cone_images(ifs.linear_stack(), x)
    i, j = np.triu_indices(len(centers), 1)
    touch = np.abs(signed_gaps(centers[i], centers[j])) <= half_widths[i] + half_widths[j]
    witness = next(zip((i[touch] + 1).tolist(), (j[touch] + 1).tolist()), None)
    disjoint = witness is None
    return SeparationReport(invariant and disjoint, invariant, disjoint, witness)


# ---------------------------------------------------------------------------
# orientation cover


def _projective_level(parents: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """Products m @ l of each parent with each map, the first of each
    projective class: the class is the product scaled to unit norm, signed
    so that its first entry above 1e-13 in magnitude is positive, and
    rounded to 13 decimals."""
    # matmul, not matmul_stack: cover angles depend on its rounding
    kids = np.matmul(parents[:, None], lin).reshape(-1, 2, 2)
    flat = kids.reshape(-1, 4)
    unit = flat / np.sqrt(np.vecdot(flat, flat))[:, None]
    lead = np.argmax(np.abs(unit) > 1e-13, axis=1)
    flip = unit[np.arange(len(unit)), lead] < 0
    unit[flip] = -unit[flip]
    return kids[_distinct_rows(np.round(unit, 13))[0]]


def default_cover_cone(ifs: IFS) -> Cone:
    """Forward-invariant seed cone: the angular hull of the orientations of
    all words of length COVER_SEED_DEPTH, +10%, grown by ``_grown_cone``
    until the maps take it strictly into itself; NoConeError when the
    growth fails."""
    hull = angular_hull(_theta1_lines(ifs, COVER_SEED_DEPTH))
    seed = Cone(hull.center, min(max(hull.half_width * 1.1, 0.01), PI / 2 - 1e-6))
    x = _grown_cone(ifs.linear_stack(), seed)
    if x is None:
        raise NoConeError("cone is not forward invariant; cover not certified")
    return x


def orientation_cover(ifs: IFS, eps: float) -> list[Cone]:
    """Certified interval cover of the limit-orientation set.

    Refines the nested image intervals A_w(X) of the seed X =
    ``default_cover_cone(ifs)`` until every interval has angular diameter
    <= eps, then merges overlaps.  Projectively identical products are
    deduplicated, so self-similar direction dynamics (e.g. diagonal
    systems) refine in linear time.  A seed that settles into no forward
    invariant cone raises NoConeError.  A level with numerically singular
    products is past the reachable resolution: BudgetError, naming its depth.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    limit = budget_limit()
    x = default_cover_cone(ifs)
    lin = ifs.linear_stack()
    if not domination_report(ifs, 4).verdict:
        raise NoConeError("domination not verified at probe depth; cover not certified")
    if x.diameter <= eps:
        return [x]

    active = _projective_level(np.eye(2)[None], lin)
    finished: list[Cone] = []
    total = 0
    n = 0
    while len(active):
        n += 1
        if singular_rows(active).any():
            raise BudgetError(
                f"orientation cover stops at depth {n}: its products are numerically singular"
            )
        centers, half_widths = cone_images(active, x)
        narrow = 2.0 * half_widths <= eps
        pairs = zip(centers[narrow].tolist(), half_widths[narrow].tolist())  # Python floats
        finished += [Cone(ProjLine(c), h) for c, h in pairs]
        active = _projective_level(active[~narrow], lin)
        total += len(active)
        if total + len(finished) > limit:
            raise BudgetError(f"orientation cover exceeded budget {limit}")
    return merge_cones(finished)


# ---------------------------------------------------------------------------
# distortion and porosity


@dataclass(frozen=True)
class DistortionConstants:
    """Angular separation of the weak singular directions from the cone, and
    the tangent bi-Lipschitz constant derived from it."""

    delta_sep: float
    M: float

    def __post_init__(self) -> None:
        if self.delta_sep <= 0:
            raise NoConeError("eta2 directions not separated from the cone")
        if self.M * self.delta_sep < PI - self.delta_sep - 1e-9:
            raise ValueError("M too small for the separation constraint")


def distortion_constants(ifs: IFS, x: Cone) -> DistortionConstants:
    """delta_sep = min distance of eta2(w) lines from X over the words of
    length 1..DISTORTION_PROBE_DEPTH; M = max of the interval constraint
    (pi - d)/d and the tangent derivative bound sec^2(pi/2 - d/2)."""
    d_min = math.inf
    for mats, dets in word_levels(ifs, DISTORTION_PROBE_DEPTH, cap=DISTORTION_WORDS):
        eta2 = singular_stack(mats, dets)[3]
        gaps = np.abs(signed_gaps(vector_angles(eta2), x.center.angle))
        d_min = min(d_min, max(0.0, float(np.min(gaps)) - x.half_width))
    if not math.isfinite(d_min) or d_min <= 0:
        raise NoConeError("eta2 directions touch the cone; constants undefined")
    m_interval = (PI - d_min) / d_min
    m_tangent = 1.0 / math.sin(0.5 * d_min) ** 2
    return DistortionConstants(d_min, max(m_interval, m_tangent))


@dataclass(frozen=True)
class DistortionReport:
    constants: DistortionConstants
    word_length: int
    k0: int
    samples: int
    violations: int


def smallest_contraction_depth(ifs: IFS, x: Cone, delta_sep: float) -> int:
    """First depth at which every image interval has diameter <= delta_sep.
    The levels read the cone seed's product cap; a level past it, or no
    contraction by CONTRACTION_DEPTH, raises BudgetError naming the depth."""
    levels = word_levels(ifs, CONTRACTION_DEPTH, cap=THETA1_WORDS)
    for n, (mats, _) in enumerate(levels, start=1):
        if 2.0 * cone_images(mats, x)[1].max() <= delta_sep:
            return n
    raise BudgetError(
        f"contraction walk stops at depth {CONTRACTION_DEPTH}: "
        f"no level contracts the cone to {delta_sep:.3g}"
    )


def distortion_check(ifs: IFS, x: Cone, seed: int = 0) -> DistortionReport:
    """Sample the two-sided angular contraction sandwich on the cone.

    For DISTORTION_SAMPLES random line pairs a, b in X and random words w
    of length DISTORTION_WORD_LENGTH, the angle between the images must lie
    between
    M^-1 (alpha2/alpha1) angle(a,b)   and   M^2 (alpha2/alpha1) angle(a,b).
    Report-only: violations are counted, never raised.
    """
    consts = distortion_constants(ifs, x)
    k0 = smallest_contraction_depth(ifs, x, consts.delta_sep)
    rng = np.random.default_rng(seed)
    words = rng.integers(0, ifs.kappa, size=(DISTORTION_SAMPLES, DISTORTION_WORD_LENGTH))
    mats, dets = word_products(ifs, words)
    a1, a2 = alpha_pair_of_stack(entries(mats), dets=dets)
    rho = a2 / a1

    ang_a = x.center.angle + rng.uniform(-x.half_width, x.half_width, DISTORTION_SAMPLES)
    ang_b = x.center.angle + rng.uniform(-x.half_width, x.half_width, DISTORTION_SAMPLES)
    va = np.stack([np.cos(ang_a), np.sin(ang_a)], axis=1)
    vb = np.stack([np.cos(ang_b), np.sin(ang_b)], axis=1)
    ia, ib = np.empty_like(va), np.empty_like(vb)
    matvec_stack(entries(mats), va.T, ia.T)
    matvec_stack(entries(mats), vb.T, ib.T)

    def pair_angle(p, q):
        return np.abs(signed_gaps(np.arctan2(p[:, 1], p[:, 0]), np.arctan2(q[:, 1], q[:, 0])))

    ang_in = pair_angle(va, vb)
    ang_out = pair_angle(ia, ib)
    nz = ang_in > 1e-13
    lower = rho[nz] * ang_in[nz] / consts.M
    upper = rho[nz] * ang_in[nz] * consts.M**2
    out = ang_out[nz]
    up_excess = np.maximum(out - upper, 0.0) / np.maximum(upper, 1e-300)
    lo_excess = np.maximum(lower - out, 0.0) / np.maximum(lower, 1e-300)
    violations = int(np.count_nonzero((up_excess > 1e-9) | (lo_excess > 1e-9)))
    return DistortionReport(consts, DISTORTION_WORD_LENGTH, k0, DISTORTION_SAMPLES, violations)


def _level1_gaps(ifs: IFS, x: Cone) -> list[Cone]:
    """Gap intervals of X that no level-1 image interval covers: between the
    runs of the images' ``_union``, each image placed by its offset from X's
    low end (so a gap may lie across angle 0)."""
    centres, half_widths = cone_images(ifs.linear_stack(), x)
    if len(centres) < 2:
        raise NoGapError("a single map produces a single interval")
    x_lo = x.center.angle - x.half_width
    if x_lo < 0.0 or x.center.angle + x.half_width >= PI:
        # with X across 0, each centre's angle on X's side of it
        centres = x_lo + (centres - x_lo) % PI
    spans = zip((centres - half_widths).tolist(), (centres + half_widths).tolist())
    runs = _union(spans, JOIN_SLACK, PI)
    if len(runs) < 2:
        raise NoGapError("level-1 image intervals touch or overlap")
    gaps = zip(runs, runs[1:])
    return [Cone(ProjLine(0.5 * (end + lo)), 0.5 * (lo - end)) for (_, end, _), (lo, _, _) in gaps]


def porosity_gap_levels(ifs: IFS, x: Cone, depth: int) -> list[float]:
    """Per-level minimum of diam(A_w(I)) / diam(A_w(X)) for the widest
    level-1 gap I, over deduplicated words w of each length 1..depth.  A
    level past POROSITY_WORDS products or with numerically singular ones is
    too fine a resolution: BudgetError, naming its depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    gaps = _level1_gaps(ifs, x)
    widest = max(gaps, key=lambda g: g.half_width)
    lin = ifs.linear_stack()
    active = np.eye(2)[None]
    out: list[float] = []
    for n in range(1, depth + 1):
        active = _projective_level(active, lin)
        if len(active) > POROSITY_WORDS:
            raise BudgetError(
                f"porosity refinement stops at depth {n} of {depth}: "
                f"{len(active)} products exceed the cap {POROSITY_WORDS}"
            )
        if singular_rows(active).any():
            raise BudgetError(
                f"porosity refinement stops at depth {n} of {depth}: "
                "its products are numerically singular"
            )
        # the ratio of half-widths is the ratio of diameters, bit for bit
        out.append(float(np.min(cone_images(active, widest)[1] / cone_images(active, x)[1])))
    return out
