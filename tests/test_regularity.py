import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinevis.errors import (
    BudgetError,
    ImproperConeError,
    NoConeError,
    NoGapError,
    SingularInputError,
    budget_scope,
)
from affinevis.linalg2 import (
    AffineMap2,
    Mat2,
    ProjLine,
    signed_gaps,
    singular_stack,
)
from affinevis import regularity
from affinevis.regularity import (
    CONTRACTION_DEPTH,
    COVER_SEED_DEPTH,
    DISTORTION_PROBE_DEPTH,
    Cone,
    _theta1_lines,
    _union,
    angular_hull,
    cone_images,
    cone_is_invariant,
    default_cover_cone,
    distortion_check,
    distortion_constants,
    domination_report,
    invariant_cone_search,
    merge_cones,
    orientation_cover,
    porosity_gap_levels,
    smallest_contraction_depth,
    strong_cone_separation_check,
)
from affinevis.symbolic import IFS, cyclic_prefix, cylinder
from test_linalg2 import (
    GENERAL,
    RANK_ONE,
    REGULAR,
    SHEAR,
    SIMILARITY,
    image_angle,
    is_singular,
    proj_apply_oracle,
    proj_distance,
    proj_signed_gap_oracle,
    singular_data_oracle,
)
from test_symbolic import ALTERNATING, B_A_B, all_word_levels, distinct_rows_oracle
from test_geometry import positive_systems

VERTICAL = ProjLine(math.pi / 2)
QUADRANT_MARGIN = Cone(ProjLine(math.pi / 4), math.pi / 4 - 0.05)


def cone_image_oracle(m: Mat2, cone: Cone) -> Cone:
    """The scalar image interval of a cone under an invertible linear map."""
    lo_i = proj_apply_oracle(m, ProjLine(cone.center.angle - cone.half_width))
    hi_i = proj_apply_oracle(m, ProjLine(cone.center.angle + cone.half_width))
    c_i = proj_apply_oracle(m, cone.center)
    d_lo = proj_signed_gap_oracle(lo_i, c_i)
    d_hi = proj_signed_gap_oracle(hi_i, c_i)
    if d_lo > d_hi:
        d_lo, d_hi = d_hi, d_lo
    center = ProjLine(c_i.angle + 0.5 * (d_lo + d_hi))
    half_width = 0.5 * (d_hi - d_lo)
    if half_width >= math.pi / 2:
        raise ImproperConeError("image interval spans at least a half turn")
    if half_width <= 0.0:
        half_width = 1e-15
    return Cone(center, half_width)


def cone_image(m: Mat2, cone: Cone) -> Cone:
    """cone_images of one matrix."""
    return cones_of(*cone_images(m.as_array()[None], cone))[0]


def cones_of(centers: np.ndarray, half_widths: np.ndarray) -> list[Cone]:
    """Cones of arrays of centers and half-widths, with Python float fields."""
    return [Cone(ProjLine(c), h) for c, h in zip(centers.tolist(), half_widths.tolist())]


def contains_cone(big: Cone, small: Cone, margin: float) -> bool:
    """``small`` inside ``big`` with room ``margin``."""
    gap = abs(signed_gaps(small.center.angle, big.center.angle))
    return gap + small.half_width <= big.half_width - margin


def image_line(m: Mat2, line: ProjLine) -> ProjLine:
    """The image of one line under one matrix, by image_angles."""
    return ProjLine(image_angle(m, line))


class TestCone:
    def test_improper_rejected(self):
        with pytest.raises(ImproperConeError):
            Cone(ProjLine(0.0), math.pi / 2)
        with pytest.raises(ImproperConeError):
            Cone(ProjLine(0.0), 0.0)

    def test_contains_across_wrap(self):
        c = Cone(ProjLine(0.05), 0.2)
        assert c.contains_line(ProjLine(math.pi - 0.05))
        assert not c.contains_line(ProjLine(0.5))

    def test_image_under_diagonal(self):
        # diag(1/3, 1/2) pulls lines toward the vertical: tan of the angle
        # from vertical contracts by 2/3
        x = Cone(VERTICAL, 0.3)
        img = cone_image(Mat2.diag(1.0 / 3.0, 0.5), x)
        expected_hw = math.atan(2.0 / 3.0 * math.tan(0.3))
        assert img.center.angle == pytest.approx(math.pi / 2)
        assert img.half_width == pytest.approx(expected_hw, rel=1e-9)

    def test_merge_cones_wraparound(self):
        a = Cone(ProjLine(0.05), 0.1)
        b = Cone(ProjLine(math.pi - 0.04), 0.1)
        merged = merge_cones([a, b])
        assert len(merged) == 1
        assert merged[0].contains_line(ProjLine(0.0))

    def test_merge_keeps_disjoint(self):
        a = Cone(ProjLine(0.3), 0.05)
        b = Cone(ProjLine(1.2), 0.05)
        assert len(merge_cones([a, b])) == 2

    @pytest.mark.parametrize("seam", [0.0, 1.0])
    def test_merge_joins_within_slack_across_angle_zero(self, seam):
        # ends 8e-13 apart, inside JOIN_SLACK: the gap joins at angle 0 as
        # it does at 1.0 rad
        a = Cone(ProjLine(seam - 0.05 - 4e-13), 0.05)
        b = Cone(ProjLine(seam + 0.05 + 4e-13), 0.05)
        assert len(merge_cones([a, b])) == 1

    def test_union_members_and_seam(self):
        # the last run, [9, 10.4], reaches 0.4 past the period of 10: it
        # absorbs [0, 0.2] and then [0.3, 0.5], which starts within the slack
        spans = [(5.0, 6.0), (0.3, 0.5), (9.0, 10.4), (0.0, 0.2), (5.5, 5.8)]
        assert _union(spans, 0.05, 10.0) == [[5.0, 6.0, [0, 4]], [9.0, 10.5, [2, 3, 1]]]
        assert _union(spans[:2], 0.05, 10.0) == [[0.3, 0.5, [1]], [5.0, 6.0, [0]]]

    def test_cover_and_gaps_read_one_join_slack(self, positive_pair, monkeypatch):
        # a slack wider than the level-1 gap closes it, and merges two cones
        # that far apart: both unions read the one constant
        cone = invariant_cone_search(positive_pair, depth=6)
        (gap,) = regularity._level1_gaps(positive_pair, cone)
        a = Cone(ProjLine(0.3), 0.05)
        b = Cone(ProjLine(0.4 + gap.diameter), 0.05)
        assert len(merge_cones([a, b])) == 2
        monkeypatch.setattr(regularity, "JOIN_SLACK", 1.5 * gap.diameter)
        assert len(merge_cones([a, b])) == 1
        with pytest.raises(NoGapError):
            regularity._level1_gaps(positive_pair, cone)


# cones anywhere on P^1, many of them across angle 0, some a few ulps short
# of a half turn, whose images can round to an improper one
ANY_CONE = st.builds(
    Cone,
    st.floats(0.0, 3.14).map(ProjLine),
    st.one_of(st.floats(1e-6, 1.5), st.integers(1, 40).map(lambda k: math.pi / 2 - k * 2.0**-52)),
)


def _oracle_or_error(m: Mat2, cone: Cone):
    """The oracle's image, or the class of the error it raises."""
    try:
        return cone_image_oracle(m, cone)
    except (ImproperConeError, SingularInputError) as exc:
        return type(exc)


class TestConeImagesMatchScalar:
    """cone_images against the scalar cone image, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(GENERAL, SIMILARITY, SHEAR), min_size=1, max_size=6), ANY_CONE)
    def test_each_row_matches_the_oracle(self, mats, cone):
        stack = np.array(mats).reshape(-1, 2, 2)
        for k, m in enumerate(map(Mat2.from_array, stack)):
            want = _oracle_or_error(m, cone)
            if isinstance(want, type):
                with pytest.raises(want):
                    cone_images(stack[k : k + 1], cone)
            else:
                assert repr(cone_image(m, cone)) == repr(want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(REGULAR, min_size=1, max_size=6), ANY_CONE)
    def test_a_stack_matches_its_rows(self, mats, cone):
        # one improper image makes the whole stack improper
        ms = [Mat2(*m) for m in mats]
        want = [_oracle_or_error(m, cone) for m in ms]
        stack = np.array(mats).reshape(-1, 2, 2)
        if ImproperConeError in want:
            with pytest.raises(ImproperConeError):
                cone_images(stack, cone)
        else:
            assert repr(cones_of(*cone_images(stack, cone))) == repr(want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(REGULAR, max_size=3), RANK_ONE, ANY_CONE)
    def test_singular_products_raise(self, before, flat, cone):
        assume(is_singular(Mat2(*flat)))
        stack = np.array(before + [flat]).reshape(-1, 2, 2)
        with pytest.raises(SingularInputError, match="numerically singular"):
            cone_images(stack, cone)
        assert _oracle_or_error(Mat2(*flat), cone) is SingularInputError

    def test_improper_image_raises(self):
        # a cone one ulp short of a half turn: the identity's image rounds to
        # a half turn in both kernels
        x = Cone(ProjLine(1.5816326530612244), math.nextafter(math.pi / 2, 0.0))
        assert _oracle_or_error(Mat2.identity(), x) is ImproperConeError
        with pytest.raises(ImproperConeError):
            cone_images(np.eye(2)[None], x)


class TestDomination:
    def test_carpet_exact_tau(self, carpet):
        rep = domination_report(carpet, 6)
        assert rep.verdict
        assert rep.exhaustive_up_to == 6
        for root in rep.min_ratio_roots:
            assert root == pytest.approx(1.5, rel=1e-9)
        assert rep.tau_estimate == pytest.approx(1.5, rel=1e-6)

    def test_rotation_pair_fails(self, rotation_pair):
        # brute force over all words up to length 6: a quarter turn swaps the
        # expanding axis, so some product becomes near-conformal
        rep = domination_report(rotation_pair, 6)
        assert not rep.verdict

    def test_duplicated_single_map(self):
        lin = Mat2.diag(1.0 / 3.0, 0.5)
        ifs = IFS((AffineMap2(lin, (0.0, 0.0)), AffineMap2(lin, (0.5, 0.5))))
        rep = domination_report(ifs, 5)
        assert rep.verdict
        assert rep.tau_estimate == pytest.approx(1.5, rel=1e-6)

    def test_positive_pair_dominates(self, positive_pair):
        rep = domination_report(positive_pair, 8)
        assert rep.verdict
        assert rep.tau_estimate > 2.0

    def test_underflowing_determinants_stop_with_the_depth(self, positive_pair):
        # both maps have det 0.04: from depth 111 every product's det^2 is
        # below the smallest normal float (0 from depth 116, where
        # alpha1 / alpha2 divided by zero and the verdict read tau ~ nan)
        with pytest.raises(BudgetError, match="depth 111 of 120: its products are numerically"):
            domination_report(positive_pair, 120)

    def test_exhaustive_levels_count_the_products_they_build(self, carpet):
        # every carpet level holds one product, so each builds 3: all 14
        # levels are exact, though 3^13 words are past the 1e6 cap
        rep = domination_report(carpet, 14)
        assert rep.exhaustive_up_to == 14
        assert rep.min_ratio_roots == pytest.approx([1.5] * 14, rel=1e-9)

    def test_distinct_products_keep_the_words_cap(self, positive_pair):
        # positive-cone's 2^n products are all distinct: level 20 builds
        # 2^20 > 1e6 products, so levels 20 and 21 are sampled
        rep = domination_report(positive_pair, 21)
        assert rep.exhaustive_up_to == 19
        assert rep.verdict

    def test_verdict_monotone_in_depth(self, carpet, rotation_pair):
        # a failing verdict never recovers at larger n_max; a passing one
        # only certifies the levels it saw
        for n_lo, n_hi in [(3, 6), (4, 7)]:
            assert domination_report(carpet, n_lo).verdict
            assert domination_report(carpet, n_hi).verdict
            if not domination_report(rotation_pair, n_lo).verdict:
                assert not domination_report(rotation_pair, n_hi).verdict


class TestInvariantCone:
    def test_carpet_vertical_cone(self, carpet):
        cone = invariant_cone_search(carpet, depth=4)
        assert proj_distance(cone.center, VERTICAL) < 0.2
        # the classical wide cone verifies as well
        wide = Cone(VERTICAL, math.pi / 4)
        for f in carpet.maps:
            assert contains_cone(wide, cone_image(f.linear, wide), 1e-9)

    def test_positive_pair_found(self, positive_pair):
        cone = invariant_cone_search(positive_pair, depth=6)
        rep = strong_cone_separation_check(positive_pair, cone)
        assert rep.invariant

    def test_positive_pair_deep_search(self, positive_pair):
        # at depth 13 the products are too anisotropic for a computed
        # determinant; the exact factor products keep the search working
        shallow = invariant_cone_search(positive_pair, depth=12)
        deep = invariant_cone_search(positive_pair, depth=13)
        assert cone_is_invariant(positive_pair, deep)
        assert deep.center.angle == pytest.approx(shallow.center.angle, abs=1e-6)

    def test_rotation_pair_not_found(self, rotation_pair):
        with pytest.raises(NoConeError):
            invariant_cone_search(rotation_pair, depth=4)

    def test_cone_past_the_hull_ladder_is_grown(self):
        # the quadrant is strictly invariant under each map and transpose,
        # but no inflation of the orientations' hull about its centre is:
        # the first candidate grows into the hull of its images instead
        ifs = IFS(
            (
                AffineMap2(Mat2(0.0474, 0.3038, 0.1892, 0.1944), (0.0, 0.0)),
                AffineMap2(Mat2(0.3333, 0.1551, 0.02, 0.1244), (0.5, 0.0)),
                AffineMap2(Mat2(0.1752, 0.2, 0.2745, 0.0816), (0.0, 0.5)),
            )
        )
        for depth in (4, 8):
            assert cone_is_invariant(ifs, invariant_cone_search(ifs, depth))

    @settings(max_examples=50, deadline=None)
    @given(positive_systems())
    def test_positive_systems_get_a_cone(self, ifs):
        # each map and transpose takes the positive quadrant strictly inside
        assert cone_is_invariant(ifs, invariant_cone_search(ifs, 6))

    def test_hull_cones_hold_python_floats(self, positive_pair, carpet):
        # the cones the ladder certifies keep their bits (the growth runs
        # only where no ladder candidate holds)
        pinned = [
            (invariant_cone_search(positive_pair, depth=6), 0.4913968616236645, 0.15456915567804644),
            (invariant_cone_search(positive_pair, depth=8), 0.4913968616236646, 0.15456919561959093),
            (invariant_cone_search(carpet, depth=5), 1.5707963267948966, 0.022000000000000002),
            (default_cover_cone(positive_pair), 0.5927443173867396, 0.043086954338663844),
            (default_cover_cone(carpet), 1.5707963267948966, 0.01),
        ]
        for cone, center, half_width in pinned:
            assert type(cone.half_width) is float
            assert (cone.center.angle, cone.half_width) == (center, half_width)


class TestStrongConeSeparation:
    def test_carpet_identical_images_fail(self, carpet):
        rep = strong_cone_separation_check(carpet, Cone(VERTICAL, 0.3))
        assert rep.invariant
        assert not rep.disjoint
        assert rep.witness == (1, 2)
        assert not rep.verdict

    def test_witness_is_the_first_overlapping_pair(self):
        # images near 0.3, 0.9 and 0.31 rad: only the pair (1, 3) overlaps
        ifs = linear_ifs(squeeze(0.3), squeeze(0.9), squeeze(0.31))
        rep = strong_cone_separation_check(ifs, Cone(ProjLine(0.6), 0.5))
        assert rep.invariant and not rep.disjoint
        assert rep.witness == (1, 3)

    def test_positive_pair_passes(self, positive_pair):
        cone = invariant_cone_search(positive_pair, depth=6)
        rep = strong_cone_separation_check(positive_pair, cone)
        assert rep.verdict, rep
        assert rep.witness is None
        a, b = (cone_image(f.linear, cone) for f in positive_pair.maps)
        assert proj_distance(a.center, b.center) > a.half_width + b.half_width

    def test_quadrant_cone_images_touch(self, positive_pair):
        # both maps send the vertical boundary line to the same image line,
        # so the margin-shrunk quadrant still fails disjointness
        rep = strong_cone_separation_check(positive_pair, QUADRANT_MARGIN)
        assert rep.invariant
        assert not rep.disjoint

    def test_improper_cone_rejected(self):
        with pytest.raises(ImproperConeError):
            Cone(ProjLine(math.pi / 4), math.pi / 2)


class TestOrientationCover:
    def test_carpet_cover_is_single_vertical_interval(self, carpet):
        cover = orientation_cover(carpet, eps=1e-3)
        assert len(cover) == 1
        assert cover[0].contains_line(VERTICAL)
        assert cover[0].diameter <= 1e-3

    def test_positive_pair_cover_splits(self, positive_pair):
        cover = orientation_cover(positive_pair, eps=1e-2)
        assert len(cover) >= 2
        for a, b in zip(cover, cover[1:]):
            assert proj_distance(a.center, b.center) > a.half_width + b.half_width

    def test_eps_wider_than_cone(self, positive_pair):
        cover = orientation_cover(positive_pair, eps=2 * math.pi)
        assert cover == [default_cover_cone(positive_pair)]
        assert type(cover[0].half_width) is float

    def test_non_invariant_default_cone_rejected(self, rotation_pair):
        # dominated, but the hull seed of the orientations is not forward
        # invariant: it gives way to the hull of its images, +10%, and the
        # cover refines that cone instead of raising NoConeError
        a1 = Mat2(0.559843665940343, 0.3570117746337381, 0.3668582380210397, 0.1434724223133545)
        a2 = Mat2(0.5987731400794979, 0.3611637402862256, 0.03417042501945832, 0.4776418450853555)
        ifs = IFS((AffineMap2(a1, (0.0, 0.0)), AffineMap2(a2, (0.5, 0.0))))
        assert domination_report(ifs, 4).verdict
        hull = angular_hull(_theta1_lines(ifs, COVER_SEED_DEPTH))
        hull_seed = Cone(hull.center, hull.half_width * 1.1)
        assert not all(contains_cone(hull_seed, cone_image(f.linear, hull_seed), 0.0) for f in ifs.maps)
        seed = default_cover_cone(ifs)
        for f in ifs.maps:
            assert contains_cone(seed, cone_image(f.linear, seed), 0.0)
        cover = orientation_cover(ifs, eps=1e-3)
        assert len(cover) == 43
        for c in cover:
            assert c.diameter <= 1e-3
            assert contains_cone(seed, c, 0.0)
        for word in [(1,), (2,), (1, 2), (2, 1), (1, 1, 2, 2), (2, 2, 1, 1)]:
            theta = cylinder(ifs, cyclic_prefix(word, 14)).sdata.theta1
            assert any(c.line_distance(theta) <= 1e-6 for c in cover)
        # no domination: the hull of the images stops being a proper cone
        with pytest.raises(NoConeError, match="not forward invariant"):
            orientation_cover(rotation_pair, eps=1e-2)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan])
    def test_eps_must_be_positive(self, positive_pair, eps):
        with budget_scope(1000), pytest.raises(ValueError):
            orientation_cover(positive_pair, eps=eps)

    def test_budget_enforced(self, positive_pair):
        with budget_scope(64), pytest.raises(BudgetError):
            orientation_cover(positive_pair, eps=1e-7)

    def test_singular_level_is_a_named_resolution_error(self, positive_pair):
        # the depth-13 products are numerically singular: a resolution error
        # naming the depth, not a SingularInputError from inside
        with pytest.raises(BudgetError, match="stops at depth 13: its products are numerically"):
            orientation_cover(positive_pair, eps=1e-15)

    def test_cover_nesting_across_eps(self, positive_pair):
        coarse = orientation_cover(positive_pair, eps=5e-2)
        fine = orientation_cover(positive_pair, eps=5e-3)
        for c in fine:
            assert any(
                contains_cone(big, c, -1e-9) or big.contains_line(c.center)
                for big in coarse
            )

    def test_theta1_inside_cover(self, positive_pair):
        cover = orientation_cover(positive_pair, eps=1e-2)
        for word in [(1,), (2,), (1, 2), (2, 1), (1, 1, 2, 2), (2, 2, 1, 1)]:
            theta = cylinder(positive_pair, cyclic_prefix(word, 14)).sdata.theta1
            assert any(c.line_distance(theta) <= 1e-6 for c in cover)


def projective_children_oracle(parents, lin):
    """Products m @ l of each parent with each map, the first of each
    projective class, from a dict keyed by the bytes of each product scaled
    to unit norm, signed and rounded, a product at a time."""
    children = {}
    for m in parents:
        for l in lin:
            child = m @ l
            unit = child / np.linalg.norm(child)
            flat = unit.ravel()
            if flat[np.argmax(np.abs(flat) > 1e-13)] < 0:
                unit = -unit
            children.setdefault(np.round(unit, 13).tobytes(), child)
    return np.array(list(children.values())).reshape(-1, 2, 2)


def assert_levels_match_oracle(ifs, depth):
    """Each projective level of ``ifs`` up to ``depth`` holds the oracle's
    rows, bit for bit and in the same order."""
    lin = ifs.linear_stack()
    got = want = np.eye(2)[None]
    for _ in range(depth):
        got = regularity._projective_level(got, lin)
        want = projective_children_oracle(want, [f.linear.as_array() for f in ifs.maps])
        assert got.tobytes() == want.tobytes()


ENTRY = st.floats(0.02, 0.45)
DOMINATED = st.lists(st.tuples(ENTRY, ENTRY, ENTRY, ENTRY), min_size=2, max_size=3)


class TestProjectiveLevel:
    @settings(max_examples=40, deadline=None)
    @given(DOMINATED, st.booleans())
    def test_matches_the_dict_oracle(self, parts, flip):
        # positive parts (row sums below 1) keep the positive quadrant: a
        # dominated system; a negated part puts negative leads in the keys
        parts = [np.reshape(p, (2, 2)) for p in parts]
        assume(all(abs(np.linalg.det(p)) > 1e-3 for p in parts))
        if flip:
            parts[0] = -parts[0]
        ifs = linear_ifs(*parts)
        assume(domination_report(ifs, 4).verdict)
        assert_levels_match_oracle(ifs, 6)

    @pytest.mark.parametrize("name, depth", [("positive_pair", 10), ("alternating", 8)])
    def test_matches_the_dict_oracle_deep(self, request, name, depth):
        assert_levels_match_oracle(system(request, name), depth)

    @pytest.mark.parametrize("name", ["positive_pair", "alternating"])
    def test_cover_matches_the_dict_oracle(self, request, name, monkeypatch):
        ifs = system(request, name)
        got = orientation_cover(ifs, 1e-3)
        monkeypatch.setattr(regularity, "_projective_level", projective_children_oracle)
        assert got == orientation_cover(ifs, 1e-3)
        # alternating: the 32 intervals of ROADMAP item 3's candidate
        assert len(got) == {"positive_pair": 5, "alternating": 32}[name]

    def test_porosity_matches_the_dict_oracle(self, positive_pair, monkeypatch):
        cone = invariant_cone_search(positive_pair, 6)
        got = porosity_gap_levels(positive_pair, cone, 10)
        monkeypatch.setattr(regularity, "_projective_level", projective_children_oracle)
        assert got == porosity_gap_levels(positive_pair, cone, 10)


class TestDistortion:
    def test_constants_satisfy_interval_constraint(self, positive_pair):
        cone = invariant_cone_search(positive_pair, depth=6)
        consts = distortion_constants(positive_pair, cone)
        assert consts.delta_sep > 0
        assert consts.M * consts.delta_sep >= math.pi - consts.delta_sep - 1e-9

    def test_equal_lines_give_zero(self, positive_pair):
        cone = invariant_cone_search(positive_pair, depth=6)
        m = cylinder(positive_pair, (1, 2, 1)).map.linear
        l = ProjLine(cone.center.angle + 0.01)
        assert proj_distance(image_line(m, l), image_line(m, l)) == 0.0

    def test_positive_pair_no_violations(self, positive_pair):
        cone = invariant_cone_search(positive_pair, depth=6)
        rep = distortion_check(positive_pair, cone)
        assert rep.violations == 0
        assert rep.k0 >= 1

    def test_carpet_sandwich_on_vertical_cone(self, carpet):
        # separation fails for the carpet, but the two-sided bound still
        # holds on the invariant vertical cone, each sampled pair against its
        # own word's ratio (2/3)^n
        rep = distortion_check(carpet, Cone(VERTICAL, 0.3), seed=1)
        assert rep.violations == 0


class TestPorosity:
    def test_positive_pair_gap_stable(self, positive_pair):
        cone = invariant_cone_search(positive_pair, depth=6)
        levels = porosity_gap_levels(positive_pair, cone, depth=6)
        assert len(levels) == 6
        assert min(levels) > 0
        consts = distortion_constants(positive_pair, cone)
        assert max(levels) / min(levels) <= consts.M**3

    def test_carpet_no_gap(self, carpet):
        with pytest.raises(NoGapError):
            porosity_gap_levels(carpet, Cone(VERTICAL, 0.3), depth=3)

    def test_single_map_no_gap(self, single_map):
        with pytest.raises(NoGapError):
            porosity_gap_levels(single_map, Cone(VERTICAL, 0.3), depth=2)

    def test_nested_images_leave_no_gap(self):
        # the first image, [0.0847, 1.4713], holds the other two: the space
        # between the two small ones is covered
        ifs = linear_ifs(
            [[0.5, 0.02], [0.02, 0.45]], [[0.4, 0.3], [0.1, 0.1]], [[0.1, 0.1], [0.3, 0.4]]
        )
        with pytest.raises(NoGapError):
            regularity._level1_gaps(ifs, QUADRANT_MARGIN)

    def test_gap_across_angle_zero(self):
        # X = [-0.28, 0.32] crosses angle 0, and the maps squeeze it toward
        # -0.15 and 0.2: the one gap holds angle 0, not the rest of P^1
        x = Cone(ProjLine(0.02), 0.3)
        ifs = linear_ifs(squeeze(-0.15), squeeze(0.2))
        (gap,) = regularity._level1_gaps(ifs, x)
        a, b = (cone_image(f.linear, x) for f in ifs.maps)
        assert gap.diameter == pytest.approx(
            signed_gaps(b.center.angle, a.center.angle) - a.half_width - b.half_width
        )
        assert gap.contains_line(ProjLine(0.0)) and contains_cone(x, gap, 0.0)

    def test_too_deep_is_a_named_resolution_error(self, positive_pair):
        # the depth-13 products are numerically singular: a resolution
        # error naming the depth, not a SingularInputError from inside
        cone = invariant_cone_search(positive_pair, depth=6)
        assert porosity_gap_levels(positive_pair, cone, depth=12)[-1] == pytest.approx(
            0.13527, abs=1e-5
        )
        with pytest.raises(BudgetError, match="depth 13 of 13: its products are numerically"):
            porosity_gap_levels(positive_pair, cone, depth=13)

    def test_width_cap_names_the_depth(self, positive_pair, monkeypatch):
        monkeypatch.setattr(regularity, "POROSITY_WORDS", 3)
        cone = invariant_cone_search(positive_pair, depth=6)
        with pytest.raises(BudgetError, match="depth 2 of 4: 4 products exceed the cap 3"):
            porosity_gap_levels(positive_pair, cone, depth=4)


def linear_ifs(*parts):
    """Maps with the given 2x2 linear parts and no translation."""
    return IFS(tuple(AffineMap2(Mat2(*np.ravel(a)), (0.0, 0.0)) for a in parts))


def squeeze(t):
    """diag(0.5, 0.05) turned to angle t: it squeezes cones toward t."""
    r = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return r @ np.diag([0.5, 0.05]) @ r.T


def five_dominated():
    """Five dominated maps whose images of their depth-4 cone contract to
    delta_sep at no level up to 9; level 8 (390,625 products from 78,125
    distinct parents) is past the cone seed's cap."""
    lin = [
        (0.335729, 0.047544, 0.016896, 0.273409),
        (0.308743, 0.018173, 0.031159, 0.28653),
        (0.262602, 0.062968, 0.011968, 0.240683),
        (0.381473, 0.026889, 0.007514, 0.290573),
        (0.317551, 0.018451, 0.002601, 0.288738),
    ]
    return IFS(tuple(AffineMap2(Mat2(*a), (0.1 * k, 0.07 * k)) for k, a in enumerate(lin)))


def fifteen_maps():
    """Fifteen distinct perturbed parts: level 4 (50,625 products from 3,375
    distinct parents) is the first past the distortion probe's 50k cap, one
    short of its depth 5."""
    lin = [
        Mat2(1 / 15 + 0.001 * k, 0.002 * math.sin(k), 0.001 * math.cos(k), 0.05)
        for k in range(15)
    ]
    return IFS(tuple(AffineMap2(a, (k / 15.0, 0.0)) for k, a in enumerate(lin)))


# systems that share linear parts beside the conftest fixtures
SHARED = {"b_a_b": B_A_B, "alternating": ALTERNATING}


def system(request, name):
    return SHARED[name] if name in SHARED else request.getfixturevalue(name)


class TestTheta1Lines:
    @pytest.mark.parametrize(
        "name, depth", [("carpet", 9), ("positive_pair", 8), ("b_a_b", 8), ("alternating", 4)]
    )
    @pytest.mark.parametrize("transpose", [False, True])
    def test_one_line_per_word_as_its_own_call_gives(self, request, name, depth, transpose):
        # one line per distinct product: the carpet's 19,683 words share one,
        # positive-cone's 256 are all distinct; each word's own call gives
        # one of the lines
        ifs = system(request, name)
        for mats, dets in all_word_levels(ifs, depth, transpose):
            pass
        first = distinct_rows_oracle(mats, dets)[0]
        line = lambda k: singular_data_oracle(Mat2.from_array(mats[k]), det=dets[k]).theta1
        got = _theta1_lines(ifs, depth, transpose)
        assert got.tobytes() == np.array([line(k).angle for k in first]).tobytes()
        assert set(got.tolist()) == {line(k).angle for k in range(len(dets))}


def distortion_reference(ifs, x):
    """delta_sep from one singular_data call per word of every probe level."""
    d_min = math.inf
    for mats, dets in all_word_levels(ifs, DISTORTION_PROBE_DEPTH):
        for m, d in zip(mats, dets):
            eta2 = singular_data_oracle(Mat2.from_array(m), det=d).eta2
            d_min = min(d_min, x.line_distance(ProjLine(math.atan2(eta2[1], eta2[0]))))
    return d_min


def contraction_reference(ifs, x, delta_sep):
    """smallest_contraction_depth from one cone image per word of each level."""
    for n, (mats, _) in enumerate(all_word_levels(ifs, CONTRACTION_DEPTH), start=1):
        if max(cone_image_oracle(Mat2.from_array(m), x).diameter for m in mats) <= delta_sep:
            return n
    return CONTRACTION_DEPTH


# a cone whose eta2 lines stay apart, per system
CONES = {
    "carpet": lambda ifs: Cone(VERTICAL, 0.3),
    "positive_pair": lambda ifs: invariant_cone_search(ifs, 6),
    "b_a_b": default_cover_cone,
    "alternating": lambda ifs: invariant_cone_search(ifs, 6),
}


class TestOneCallPerDistinctProduct:
    @pytest.mark.parametrize("name", list(CONES))
    def test_distortion_constants_match_the_per_word_loop(self, request, name):
        ifs = system(request, name)
        x = CONES[name](ifs)
        assert distortion_constants(ifs, x).delta_sep == distortion_reference(ifs, x)

    # the factor of delta_sep puts the answer a few levels deep (4, 3, 9, 3)
    @pytest.mark.parametrize(
        "name, factor",
        [("carpet", 0.1), ("positive_pair", 0.001), ("b_a_b", 1.0), ("alternating", 0.1)],
    )
    def test_contraction_depth_matches_the_per_word_loop(self, request, name, factor):
        ifs = system(request, name)
        x = CONES[name](ifs)
        delta_sep = factor * distortion_constants(ifs, x).delta_sep
        depth = smallest_contraction_depth(ifs, x, delta_sep)
        assert depth == contraction_reference(ifs, x, delta_sep) > 1

    def test_carpet_distortion_constants_call_singular_data_once_a_level(
        self, carpet, monkeypatch
    ):
        # the 3^n words of each level share one product: 5 one-row stacks,
        # not 363 rows
        rows = []

        def counted(mats, dets):
            rows.append(len(mats))
            return singular_stack(mats, dets)

        monkeypatch.setattr(regularity, "singular_stack", counted)
        distortion_constants(carpet, Cone(VERTICAL, 0.3))
        assert rows == [1] * DISTORTION_PROBE_DEPTH and DISTORTION_PROBE_DEPTH == 5


class TestHonestCaps:
    def test_theta1_lines_raise_short_of_depth(self):
        with pytest.raises(BudgetError, match="depth 8 of 9"):
            _theta1_lines(five_dominated(), 9)

    def test_distortion_constants_raise_short_of_depth(self):
        with pytest.raises(BudgetError, match="depth 4 of 5"):
            distortion_constants(fifteen_maps(), QUADRANT_MARGIN)

    def test_contraction_walk_raises_at_the_cone_seed_cap(self):
        # the walk stops where the cone seed's cap does, before level 8's
        # 390,625 products (the next levels hold up to 244M words)
        ifs = five_dominated()
        with pytest.raises(BudgetError, match="depth 8 of 12"):
            distortion_check(ifs, invariant_cone_search(ifs, 4))

    def test_contraction_walk_raises_without_contraction(self, carpet):
        # level 12 maps the vertical cone to diameter 0.0048 > 0.00127
        x = Cone(VERTICAL, 0.3)
        delta_sep = 0.001 * distortion_constants(carpet, x).delta_sep
        with pytest.raises(BudgetError, match=f"depth {CONTRACTION_DEPTH}: no level contracts"):
            smallest_contraction_depth(carpet, x, delta_sep)

    def test_carpet_contraction_walk_images_one_product_a_level(self, carpet, monkeypatch):
        # 3^n words share one product: 12 cone images, not 797,160
        rows = []

        def counted(mats, x):
            rows.append(len(mats))
            return cone_images(mats, x)

        x = Cone(VERTICAL, 0.3)
        delta_sep = 0.001 * distortion_constants(carpet, x).delta_sep
        monkeypatch.setattr(regularity, "cone_images", counted)
        with pytest.raises(BudgetError, match="no level contracts"):
            smallest_contraction_depth(carpet, x, delta_sep)
        assert rows == [1] * CONTRACTION_DEPTH and CONTRACTION_DEPTH == 12

    def test_two_linear_parts_reach_the_seed_depth(self):
        # ALTERNATING's eight maps carry two parts: level 8 holds 256
        # products, where its 8^8 words were past the cap from depth 6
        cone = invariant_cone_search(ALTERNATING, 8)
        assert cone_is_invariant(ALTERNATING, cone)
        assert distortion_check(ALTERNATING, cone).k0 >= 1


class TestDepthGuards:
    def test_cover_cone_depth_zero_rejected(self, carpet):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            invariant_cone_search(carpet, 0)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_porosity_depth_zero_rejected(self, positive_pair, depth):
        cone = invariant_cone_search(positive_pair, depth=6)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            porosity_gap_levels(positive_pair, cone, depth)
