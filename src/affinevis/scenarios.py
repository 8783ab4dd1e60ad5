"""Built-in scenarios, their assertion batteries, and IFS config-file loading.

Three scenarios ship with the tool:

* ``carpet-5.1``      - a three-map carpet with one exceptional orientation;
* ``harmonic-5.2``    - the harmonic-sum product set, a countable compact
  set with full box dimension whose visible part stays large;
* ``positive-cone``   - a positive-matrix pair with separated invariant
  cones, exercising the cone, distortion and porosity machinery.

Each is one entry of ``_SCENARIOS``: its IFS builder (``None`` for a point
set), its battery of numerical checks, and its expected values.  A battery
adds one pass/fail assertion per check to a report; these are the same
checks the acceptance test suite drives.

Expected values carry a source label: "closed-form" (evaluates from an
exact formula), "known-value" (established in the literature for this
construction), or "measured" (frozen from this tool's own reference runs).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .dimension import fit_dimension
from .errors import AffineVisError, ParseError, UnknownScenarioError
from .linalg2 import AffineMap2, Direction, Mat2, ProjLine
from .pipeline import ladder_grids, ladder_scales, set_dim, spread_directions, vis_dim
from .regularity import (
    Cone,
    distortion_check,
    domination_report,
    invariant_cone_search,
    orientation_cover,
    porosity_gap_levels,
    strong_cone_separation_check,
)
from .report import RunReport
from .symbolic import IFS, PointCloud, attractor_cloud
from .tangent import kakeya_extract, tangent_sequence
from .visibility import rasterize, visible_bruteforce, visible_sweep

LOG32 = math.log(2.0) / math.log(3.0)
VERTICAL = math.pi / 2
DOWN = Direction(-math.pi / 2)


@dataclass(frozen=True)
class ExpectedValue:
    name: str
    value: float
    source: str
    note: str = ""


@dataclass(frozen=True)
class ScenarioSpec:
    """A named configuration: its IFS builder (``None`` for a point set),
    its assertion battery ``battery(spec, report, seed, budget)`` and its
    expected values."""

    name: str
    description: str
    expected: tuple[ExpectedValue, ...]
    battery: Callable[[ScenarioSpec, RunReport, int, int | None], None]
    build: Callable[[], IFS] | None = None

    def build_ifs(self) -> IFS:
        if self.build is None:
            raise AffineVisError(
                f"scenario {self.name} is not IFS-backed; use `scenario run`"
            )
        return self.build()

    def expected_value(self, name: str) -> float:
        for ev in self.expected:
            if ev.name == name:
                return ev.value
        raise KeyError(name)


def carpet_ifs() -> IFS:
    lin = Mat2.diag(1.0 / 3.0, 0.5)
    return IFS(
        (
            AffineMap2(lin, (0.0, 0.0)),
            AffineMap2(lin, (1.0 / 3.0, 0.5)),
            AffineMap2(lin, (2.0 / 3.0, 0.0)),
        )
    )


def positive_cone_ifs() -> IFS:
    b1 = Mat2(2.0 / 5.0, 1.0 / 5.0, 1.0 / 5.0, 1.0 / 5.0)
    b2 = Mat2(3.0 / 5.0, 1.0 / 5.0, 2.0 / 5.0, 1.0 / 5.0)
    return IFS((AffineMap2(b1, (0.0, 0.0)), AffineMap2(b2, (0.5, 0.25))))


# ---------------------------------------------------------------------------
# assertion batteries


def _run_carpet(
    spec: ScenarioSpec, report: RunReport, seed: int, budget: int | None
) -> None:
    ifs = spec.build_ifs()
    scales = ladder_scales(6, 12)

    # visible-part scaling away from the exceptional orientation
    t0 = time.perf_counter()
    cloud = attractor_cloud(ifs, 2.0**-13, budget=budget)
    grids = ladder_grids(cloud, scales)
    dirs = spread_directions(16, VERTICAL, 0.15)
    slopes = []
    for d in dirs:
        est = vis_dim(cloud, d, scales, grids=grids)
        slopes.append(est.slope)
    lo, hi = min(slopes), max(slopes)
    report.add_assertion(
        "visible-dimension-off-vertical",
        0.90 <= lo and hi <= 1.12,
        f"16 directions >= 0.15 rad from vertical: slopes in [{lo:.4f}, {hi:.4f}], "
        "required within [0.90, 1.12]",
    )
    report.results["off_vertical_slopes"] = slopes
    report.timings["off_vertical_seconds"] = time.perf_counter() - t0

    # sharpness at the exceptional orientation: exact sight lines keep the
    # full structure, so the visible part scales like the set itself
    t0 = time.perf_counter()
    fine = attractor_cloud(ifs, 2.0**-14, budget=budget)
    est_vis = vis_dim(fine, DOWN, scales, exact=True)
    est_set = set_dim(fine, scales)
    diff = abs(est_vis.slope - est_set.slope)
    report.add_assertion(
        "exceptional-direction-sharpness",
        est_vis.slope >= 1.25 and diff <= 0.08,
        f"exact-ray visible slope {est_vis.slope:.4f} (required >= 1.25), "
        f"|diff from set slope {est_set.slope:.4f}| = {diff:.4f} (required <= 0.08)",
    )
    report.results["exceptional_visible_slope"] = est_vis.slope
    report.results["set_slope"] = est_set.slope
    report.timings["exceptional_seconds"] = time.perf_counter() - t0

    # tangent collapse: the Cantor-cross tangent seen from below shrinks to
    # a Cantor set of dimension log3(2)
    t0 = time.perf_counter()
    cross = cantor_cross_segment(8)
    ternary = [3.0**-k for k in range(1, 9)]
    counts = []
    for delta in ternary:
        counts.append(len(visible_sweep(rasterize(cross, delta), DOWN)))
    est_cross = fit_dimension(counts, ternary)
    target = math.log(2.0) / math.log(3.0)
    report.add_assertion(
        "tangent-visibility-collapse",
        0.58 <= est_cross.slope <= 0.69,
        f"downward visible slope of the Cantor cross: {est_cross.slope:.4f}, "
        f"required within [0.58, 0.69] (target {target:.4f})",
    )
    report.timings["tangent_collapse_seconds"] = time.perf_counter() - t0

    # orientation cover collapses to one interval at the vertical carrier
    t0 = time.perf_counter()
    cover = orientation_cover(ifs, eps=1e-3)
    one_interval = len(cover) == 1 and cover[0].contains_line(ProjLine(VERTICAL))
    report.add_assertion(
        "orientation-cover-singleton",
        one_interval and cover[0].diameter <= 1e-3,
        f"cover has {len(cover)} interval(s); first centered at "
        f"{cover[0].center.angle:.6f} with diameter {cover[0].diameter:.2e}",
    )
    report.timings["cover_seconds"] = time.perf_counter() - t0

    # tangent sequence trends and extracted directions
    t0 = time.perf_counter()
    _tangent_assertions(report, ifs, (2,), cover)
    report.timings["tangent_seconds"] = time.perf_counter() - t0


def _tangent_assertions(report: RunReport, ifs: IFS, stream, cover: list[Cone]) -> None:
    """Rectangle trends along the stream; Kakeya directions near ``cover``."""
    seq = tangent_sequence(ifs, stream, 12)
    hs = [rect.h for _, rect in seq]
    vs = [rect.v for _, rect in seq]
    h_mono = all(b > a for a, b in zip(hs[3:], hs[4:]))
    v_mono = all(b < a for a, b in zip(vs[3:], vs[4:]))
    report.add_assertion(
        "tangent-rectangle-trends",
        h_mono and v_mono,
        f"h strictly increasing for n>=4: {h_mono}; v strictly decreasing "
        f"for n>=4: {v_mono} (n up to 12, h_12 = {hs[-1]:.3g}, v_12 = {vs[-1]:.3g})",
    )
    rects = [rect for _, rect in seq if rect.h > 2.0]
    k = kakeya_extract(rects)
    tol = 0.02
    inside = all(
        any(c.line_distance(Direction(t).carrier()) <= tol for c in cover)
        for t in k.thetas
    )
    report.add_assertion(
        "kakeya-directions-in-cover",
        bool(rects) and inside,
        f"{len(rects)} rectangles with h > 2; all extracted carriers within "
        f"{tol:.3f} of the orientation cover: {inside}",
    )


def _run_harmonic(
    spec: ScenarioSpec, report: RunReport, seed: int, budget: int | None
) -> None:
    # product box counts at the natural gap scales
    t0 = time.perf_counter()
    ratios = []
    ok = True
    for n in (100, 1000, 10_000):
        s = harmonic_sums(n + 1)
        dn = harmonic_gap(n)
        target = (1.0 / dn) ** 2 * (1.0 / s[n - 1]) ** 2
        exact_sq = float(harmonic_cell_count_1d(n)) ** 2
        ratio = exact_sq / target
        ratios.append(ratio)
        if not (1.0 / 16.0 <= ratio <= 16.0):
            ok = False
    report.add_assertion(
        "product-count-matches-gap-scaling",
        ok,
        "count(delta_n)^2 / (delta_n^-2 S_n^-2) at n = 100, 1000, 10000: "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + " (required within factor 16)",
    )
    report.results["count_ratios"] = ratios
    report.timings["count_seconds"] = time.perf_counter() - t0

    # a countable set is almost entirely visible from a generic direction;
    # the strip width sits far below the sample spacing so only genuine
    # alignments could occlude
    t0 = time.perf_counter()
    sample = harmonic_product_sample(70)
    n_points = len(sample)
    e = Direction(0.41 + 2e-4 * (seed % 7))
    visible = visible_bruteforce(sample, e, delta=1e-7)
    removed = n_points - len(visible)
    frac = removed / n_points
    report.add_assertion(
        "generic-direction-keeps-countable-set",
        n_points >= 5000 and frac < 0.01,
        f"brute force removed {removed} of {n_points} sample points "
        f"({100 * frac:.3f}%), required < 1%",
    )
    report.timings["visibility_seconds"] = time.perf_counter() - t0


def _run_positive_cone(
    spec: ScenarioSpec, report: RunReport, seed: int, budget: int | None
) -> None:
    ifs = spec.build_ifs()

    t0 = time.perf_counter()
    dom = domination_report(ifs, 8, seed=seed)
    report.add_assertion(
        "domination",
        dom.verdict,
        f"verdict {dom.verdict} to depth 8, tau estimate {dom.tau_estimate:.3f}",
    )

    cone = invariant_cone_search(ifs, depth=6)
    sep = strong_cone_separation_check(ifs, cone)
    report.add_assertion(
        "strong-cone-separation",
        sep.verdict,
        f"invariant {sep.invariant}, disjoint images {sep.disjoint} "
        f"(cone center {cone.center.angle:.4f}, half-width {cone.half_width:.4f})",
    )
    report.timings["cone_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dist = distortion_check(ifs, cone, samples=10_000, word_length=8, seed=seed)
    report.add_assertion(
        "bounded-distortion-sandwich",
        dist.violations == 0,
        f"{dist.violations} violations over {dist.samples} sampled pairs at "
        f"word length {dist.word_length} (M = {dist.constants.M:.2f}, "
        f"k0 = {dist.k0})",
    )
    report.timings["distortion_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    levels = porosity_gap_levels(ifs, cone, depth=6)
    consts = dist.constants
    stable = min(levels) > 0 and max(levels) / min(levels) <= consts.M**3
    report.add_assertion(
        "porosity-gap-stability",
        stable,
        f"relative gaps per depth 1..6: "
        + ", ".join(f"{g:.4f}" for g in levels)
        + f"; spread factor {max(levels) / min(levels):.2f} <= M^3 = {consts.M**3:.3g}",
    )
    report.results["porosity_levels"] = levels
    report.timings["porosity_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _tangent_assertions(report, ifs, (1,), orientation_cover(ifs, eps=1e-2))
    report.timings["tangent_seconds"] = time.perf_counter() - t0


_SCENARIOS = {
    "carpet-5.1": ScenarioSpec(
        name="carpet-5.1",
        description="three-map carpet, linear part diag(1/3, 1/2); the only "
        "exceptional orientation is vertical",
        expected=(
            ExpectedValue(
                "hausdorff_dimension",
                math.log2(2.0**LOG32 + 1.0),
                "known-value",
                "log2(2^log3(2) + 1)",
            ),
            ExpectedValue(
                "assouad_dimension", 1.0 + LOG32, "known-value", "1 + log3(2)"
            ),
            ExpectedValue(
                "box_dimension",
                1.0 + math.log(1.5) / math.log(3.0),
                "closed-form",
                "1 + log3(3/2), uniform bottom-row fibers",
            ),
            ExpectedValue(
                "visible_slope", 1.0, "known-value", "off the vertical carrier"
            ),
            ExpectedValue(
                "exceptional_angle", math.pi / 2, "closed-form", "vertical carrier"
            ),
            ExpectedValue(
                "tangent_collapse_slope",
                LOG32,
                "closed-form",
                "downward visible part of the Cantor-cross tangent",
            ),
        ),
        battery=_run_carpet,
        build=carpet_ifs,
    ),
    "harmonic-5.2": ScenarioSpec(
        name="harmonic-5.2",
        description="A = {0} united with reciprocals of harmonic partial sums; "
        "K = A x A is countable and compact with full box dimension",
        expected=(
            ExpectedValue("box_dimension_A", 1.0, "known-value"),
            ExpectedValue("box_dimension_K", 2.0, "known-value"),
        ),
        battery=_run_harmonic,
    ),
    "positive-cone": ScenarioSpec(
        name="positive-cone",
        description="two positive matrices (scaled by 1/5) with disjoint "
        "cone images inside a common invariant cone",
        expected=(
            ExpectedValue("domination", 1.0, "measured", "verdict true, tau ~ 6.8"),
            ExpectedValue("separation", 1.0, "measured", "disjoint cone images"),
        ),
        battery=_run_positive_cone,
        build=positive_cone_ifs,
    ),
}


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def scenario(name: str) -> ScenarioSpec:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )


# ---------------------------------------------------------------------------
# harmonic-sum point set


def harmonic_sums(n: int) -> np.ndarray:
    """Partial sums 1 + 1/2 + ... + 1/k for k = 1..n."""
    return np.cumsum(1.0 / np.arange(1, n + 1))


def harmonic_gap(n: int) -> float:
    """Gap between consecutive reciprocal sums at index n."""
    s = harmonic_sums(n + 1)
    return float(1.0 / s[n - 1] - 1.0 / s[n])


def harmonic_points(k_max: int) -> np.ndarray:
    """{0} and the reciprocal partial sums down to index k_max, on the line."""
    s = harmonic_sums(k_max)
    return np.concatenate([[0.0], 1.0 / s[::-1]])


def harmonic_cell_count_1d(n: int) -> int:
    """Exact count of occupied delta-cells of the full (infinite) set, delta = gap(n).

    At delta = gap(n), every cell of [0, 1/S_n] is occupied because the tail
    gaps are smaller than the cells; the finitely many points above 1/S_n
    contribute their own cells.  This sidesteps the impossibility of
    enumerating the tail (reaching 1/S_k < delta needs k ~ exp(1/delta)).
    """
    s = harmonic_sums(n + 1)
    delta = harmonic_gap(n)
    base_max = int(math.floor((1.0 / s[n - 1]) / delta))
    heads = np.floor((1.0 / s[: n - 1]) / delta).astype(np.int64)
    extra = np.unique(heads[heads > base_max]).size
    return base_max + 1 + extra


def harmonic_product_count(n: int) -> int:
    """Occupied-cell count of the product set at scale gap(n): the grid of a
    product is the product of the grids, so the count is the square."""
    c = harmonic_cell_count_1d(n)
    return c * c


def harmonic_product_sample(side: int = 70) -> PointCloud:
    """Finite sample of the product set: pair grid plus both axes."""
    s = harmonic_sums(side)
    a = np.concatenate([[0.0], 1.0 / s])
    xx, yy = np.meshgrid(a, a)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return PointCloud(pts, 1e-9)


def cantor_cross_segment(depth: int = 8) -> PointCloud:
    """Net of C x [0, 1] at resolution 3^-depth, C the middle-thirds set."""
    xs = np.array([0.0])
    for _ in range(depth):
        xs = np.concatenate([xs / 3.0, xs / 3.0 + 2.0 / 3.0])
    step = 3.0**-depth
    ys = np.arange(0.0, 1.0 + step / 2, step)
    xx, yy = np.meshgrid(np.sort(xs), ys)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return PointCloud(pts, step)


# ---------------------------------------------------------------------------
# config files


def load_ifs(path: str | Path) -> IFS:
    """Parse {"maps": [{"a": [[a11, a12], [a21, a22]], "t": [tx, ty]}, ...]}.

    Matrices are row-major; entries are finite JSON numbers.  Raises
    ParseError for malformed files and non-finite entries, SingularInput
    for non-invertible linear parts, NotContractive for maps with
    alpha1 >= 1.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read IFS config {path}: {exc}") from exc
    if not isinstance(payload, dict) or "maps" not in payload:
        raise ParseError(f"{path}: expected an object with a 'maps' array")
    entries = payload["maps"]
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{path}: 'maps' must be a non-empty array")
    maps = []
    for k, entry in enumerate(entries):
        try:
            a = entry["a"]
            t = entry["t"]
            lin = Mat2(
                float(a[0][0]), float(a[0][1]), float(a[1][0]), float(a[1][1])
            )
            tr = (float(t[0]), float(t[1]))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ParseError(f"{path}: map {k}: {exc}") from exc
        # json reads NaN and Infinity; no affine map has them
        if not all(map(math.isfinite, (lin.a11, lin.a12, lin.a21, lin.a22, *tr))):
            raise ParseError(f"{path}: map {k}: entries must be finite numbers")
        maps.append(AffineMap2(lin, tr))
    # IFS validation raises SingularInput / NotContractive as appropriate
    return IFS(tuple(maps))
