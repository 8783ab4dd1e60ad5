import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinevis import symbolic
from affinevis.errors import BadSymbolError, BudgetError, budget_limit, budget_scope
from affinevis.linalg2 import (
    AffineMap2,
    Mat2,
    alpha_pair_of_stack,
    entries,
    matmul_stack,
    matvec_stack,
    singular_data,
)
from affinevis.symbolic import (
    IFS,
    attractor_cloud,
    cyclic_prefix,
    cylinder,
    word_levels,
    word_products,
)


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


class TestIFSEntries:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", range(6))
    def test_non_finite_entry_rejected(self, entry, value):
        # a11, a12, a21, a22, tx, ty of the second map
        entries = [0.5, 0.0, 0.0, 0.5, 0.5, 0.0]
        entries[entry] = value
        bad = AffineMap2(Mat2(*entries[:4]), (entries[4], entries[5]))
        good = AffineMap2(Mat2.diag(0.5, 0.5), (0.0, 0.0))
        with pytest.raises(ValueError, match="map 2: entries must be finite numbers"):
            IFS((good, bad))


class TestInvariantBall:
    @pytest.mark.parametrize("name", ["carpet", "positive_pair"])
    def test_cloud_within_the_invariant_ball(self, request, name):
        # the ball B(x0, d0 / (1 - s)) maps into itself: 1.1145 <= 1.3333
        # for the carpet, 2.2469 <= 2.4612 for positive-cone
        ifs = request.getfixturevalue(name)
        x0, s, d0 = ifs.invariant_ball()
        pts = attractor_cloud(ifs, 2.0**-8).points
        assert np.hypot(*(pts - x0).T).max() <= d0 / (1 - s)

    def test_one_map_attractor_is_its_fixed_point(self, single_map):
        assert single_map.invariant_ball()[2] == 0.0


class TestCylinder:
    def test_empty_word_is_identity(self, carpet):
        c = cylinder(carpet, ())
        assert c.sdata.alpha1 == pytest.approx(1.0)
        assert c.alpha2 == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_repeated_first_symbol(self, carpet, n):
        c = cylinder(carpet, (1,) * n)
        assert c.map.linear.as_array() == pytest.approx(np.diag([3.0**-n, 2.0**-n]))
        assert c.sdata.alpha1 == pytest.approx(2.0**-n)
        assert c.sdata.theta1.angle == pytest.approx(math.pi / 2)

    def test_third_map_translation(self, carpet):
        c = cylinder(carpet, (3,))
        assert c.map.translation == pytest.approx((2.0 / 3.0, 0.0))

    def test_bad_symbol(self, carpet):
        with pytest.raises(BadSymbolError):
            cylinder(carpet, (1, 4))


def antichain_oracle(ifs, delta):
    """Cylinders w with alpha1(w) <= delta < alpha1(parent of w), from scalar
    cylinder() over all words, level by level in lexicographic order."""
    out = []
    parent_alpha1 = {(): math.inf}
    for n in itertools.count():
        words = itertools.product(range(1, ifs.kappa + 1), repeat=n)
        level = [cylinder(ifs, w) for w in words]
        out += [c for c in level if c.sdata.alpha1 <= delta < parent_alpha1[c.word[:-1]]]
        if all(c.sdata.alpha1 <= delta for c in level):
            return out
        parent_alpha1 = {c.word: c.sdata.alpha1 for c in level}


def reference_antichain(ifs, delta):
    """The antichain refined word by word: one product per cylinder, with
    the same level order, closed-form arithmetic and budget check."""
    limit = budget_limit()
    lin = ifs.linear_stack()
    tr = ifs.translation_stack()
    mats = np.eye(2)[None, :, :]
    trans = np.zeros((1, 2))
    done_mats, done_trans = [], []
    total = 0
    while True:
        done = alpha_pair_of_stack(entries(mats))[0] <= delta
        total += int(np.count_nonzero(done))
        done_mats.append(mats[done])
        done_trans.append(trans[done])
        if done.all():
            return np.concatenate(done_mats), np.concatenate(done_trans)
        active_m, active_t = mats[~done], trans[~done]
        if total + active_m.shape[0] * ifs.kappa > limit:
            raise BudgetError("reference refinement exceeds the budget")
        mats = np.empty((len(active_m), ifs.kappa, 2, 2))
        matmul_stack(entries(active_m[:, None]), entries(lin), entries(mats))
        images = np.empty((len(active_m), ifs.kappa, 2))
        matvec_stack(entries(active_m[:, None]), tr.T, np.moveaxis(images, -1, 0))
        mats = mats.reshape(-1, 2, 2)
        trans = (images + active_t[:, None, :]).reshape(-1, 2)


def reference_cloud(ifs, delta):
    mats, trans = reference_antichain(ifs, delta)
    return mats @ ifs.anchor_point() + trans


def shared_ifs(linears, translations):
    return IFS(tuple(AffineMap2(m, t) for m, t in zip(linears, translations)))


# two linear parts B, A, B: the shared part is neither adjacent nor first
# in sorted order
_A = Mat2(0.4, 0.1, 0.0, 0.3)
_B = Mat2(0.2, 0.0, 0.1, 0.5)
B_A_B = shared_ifs((_B, _A, _B), ((0.0, 0.0), (0.5, 0.1), (0.3, 0.6)))

# two linear parts alternating over eight translations
_B1 = Mat2(0.30, 0.10, 0.05, 0.12)
_B2 = Mat2(0.26, 0.16, 0.02, 0.14)
ALTERNATING = shared_ifs(
    (_B1, _B2) * 4,
    ((0, 0), (0.35, 0.05), (0.6, 0.1), (0.1, 0.45),
     (0.45, 0.5), (0.7, 0.55), (0.2, 0.8), (0.55, 0.85)),
)


def off_origin(ifs):
    """``ifs`` with (0.25, -0.125) added to every translation.  B_A_B's and
    ALTERNATING's map 1 fixes the origin, so every anchor image is zero and
    the cloud is the translations; here the images show."""
    moved = [(x + 0.25, y - 0.125) for x, y in (f.translation for f in ifs.maps)]
    return shared_ifs([f.linear for f in ifs.maps], moved)


# the shared-part systems, at the origin and off it
SHARED = {
    "b_a_b": B_A_B,
    "alternating": ALTERNATING,
    "b_a_b_off": off_origin(B_A_B),
    "alternating_off": off_origin(ALTERNATING),
}

# ROADMAP item 6's carpet: four maps on one linear part, two of them
# stacked in column 0, so every level holds one product
FOUR_MAP_CARPET = shared_ifs(
    (Mat2.diag(1 / 3, 1 / 2),) * 4, ((0.0, 0.0), (0.0, 0.5), (1 / 3, 0.5), (2 / 3, 0.0))
)

# the cloud test systems beside the conftest fixtures
CLOUD_SYSTEMS = {**SHARED, "four_map_carpet": FOUR_MAP_CARPET}

# three distinct diagonal parts: they commute, so products of one multiset
# of symbols agree in value and may differ in their last bits
DIAGONAL = shared_ifs(
    (Mat2.diag(1 / 3, 1 / 2), Mat2.diag(0.4, 0.3), Mat2.diag(0.2, 0.25)),
    ((0.0, 0.0), (0.5, 0.1), (0.3, 0.6)),
)

# negative entries and signed zeros: level 2 holds rows that differ only in
# the sign of a zero entry
SIGNED = shared_ifs(
    (Mat2(-0.5, -0.0, 0.0, 0.5), Mat2(0.5, 0.0, -0.0, -0.5), Mat2(0.25, 0.0, 0.0, 0.5)),
    ((0.0, 0.0), (0.5, 0.1), (0.3, 0.6)),
)

# the word_levels test systems beside the conftest fixtures
LEVEL_SYSTEMS = {"b_a_b": B_A_B, "alternating": ALTERNATING, "diagonal": DIAGONAL, "signed": SIGNED}


def five_maps():
    """Five maps on one linear part: level 8 (390,625 words) is the first
    past the cone seed's 200k cap, but every level holds one product."""
    lin = Mat2.diag(0.2, 0.1)
    return IFS(tuple(AffineMap2(lin, (0.2 * k, 0.0)) for k in range(5)))


@st.composite
def small_systems(draw):
    """2 to 4 maps with 1 to kappa distinct linear parts R(a) diag(s1, s2)
    R(b), 0.05 <= s2 <= s1 <= 0.6, so every layout of the refiner is drawn:
    one part for all maps, some maps sharing one, and one part per map.
    Map 1's translation is off the origin, so the anchor images show in the
    cloud."""
    kappa = draw(st.integers(2, 4))
    n_parts = draw(st.integers(1, kappa))
    angle = st.floats(-math.pi, math.pi)
    coord = st.floats(-1.0, 1.0)

    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    parts = []
    for _ in range(n_parts):
        s1 = draw(st.floats(0.1, 0.6))
        m = rot(draw(angle)) @ np.diag([s1, draw(st.floats(0.05, s1))]) @ rot(draw(angle))
        parts.append(Mat2(*map(float, m.ravel())))
    which = draw(st.permutations([k % n_parts for k in range(kappa)]))
    trans = [(draw(st.floats(0.25, 1.0)), draw(coord))]
    trans += [(draw(coord), draw(coord)) for _ in which[1:]]
    return shared_ifs([parts[k] for k in which], trans)


def distinct_rows_oracle(*stacks):
    """``(first, which)`` of ``symbolic._distinct_rows`` from a dict of row
    bytes, a row at a time."""
    keys = {}  # row bytes -> position in first
    first, which = [], []
    for k, row in enumerate(zip(*(s.reshape(len(s), -1) for s in stacks))):
        which.append(keys.setdefault(b"".join(r.tobytes() for r in row), len(keys)))
        if len(keys) > len(first):
            first.append(k)
    return first, which


def all_word_levels(ifs, depth, transpose=False):
    """Products and determinants of every word of lengths 1..depth, in
    lexicographic order, from ``word_products``: each level with its
    repeats.  ``transpose`` composes the transposed maps."""
    if transpose:
        parts = (f.linear for f in ifs.maps)
        ifs = IFS(tuple(AffineMap2(Mat2(m.a11, m.a21, m.a12, m.a22), (0.0, 0.0)) for m in parts))
    for n in range(1, depth + 1):
        yield word_products(ifs, np.array(list(itertools.product(range(ifs.kappa), repeat=n))))


def assert_matches_oracle(ifs, delta):
    """The cloud is the reference's bit for bit, and its anchors are the
    oracle cylinders' in the oracle's order."""
    got = attractor_cloud(ifs, delta).points
    assert got.tobytes() == reference_cloud(ifs, delta).tobytes()
    oracle = antichain_oracle(ifs, delta)
    p0 = ifs.anchor_point()
    assert got == pytest.approx(np.array([c.map(p0) for c in oracle]).reshape(-1, 2), abs=1e-15)
    return oracle


def budget_threshold(refine, ifs, delta):
    """Smallest budget at which ``refine`` does not raise BudgetError."""
    lo, hi = 1, 1
    while True:
        try:
            with budget_scope(hi):
                refine(ifs, delta)
            break
        except BudgetError:
            lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            with budget_scope(mid):
                refine(ifs, delta)
            hi = mid
        except BudgetError:
            lo = mid + 1
    return lo


class TestRefineCylinders:
    def test_alpha1_half(self, carpet):
        oracle = assert_matches_oracle(carpet, 0.5)
        assert len(oracle) == 3
        assert all(c.sdata.alpha1 == pytest.approx(0.5) for c in oracle)

    def test_alpha1_quarter(self, carpet):
        oracle = assert_matches_oracle(carpet, 0.25)
        assert len(oracle) == 9
        assert all(len(c.word) == 2 for c in oracle)

    def test_prefix_free(self, positive_pair):
        oracle = assert_matches_oracle(positive_pair, 0.2)
        words = [c.word for c in oracle]
        assert len({len(w) for w in words}) > 1
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                assert b[: len(a)] != a and a[: len(b)] != b

    @pytest.mark.parametrize("ifs, delta", [(ifs, 0.03) for ifs in SHARED.values()])
    def test_shared_parts_match_oracle(self, ifs, delta):
        oracle = assert_matches_oracle(ifs, delta)
        assert len({len(c.word) for c in oracle}) > 1

    def test_budget(self, carpet):
        with budget_scope(100), pytest.raises(BudgetError):
            attractor_cloud(carpet, 1e-6)

    @pytest.mark.parametrize(
        "ifs, delta", [(B_A_B, 2.0**-8), (ALTERNATING, 2.0**-6), (FOUR_MAP_CARPET, 2.0**-6)]
    )
    def test_budget_counts_cylinders(self, ifs, delta):
        want = budget_threshold(reference_antichain, ifs, delta)
        assert budget_threshold(attractor_cloud, ifs, delta) == want
        # at least one per cylinder, more than one per distinct product
        mats, _ = reference_antichain(ifs, delta)
        assert want >= len(attractor_cloud(ifs, delta)) > len(symbolic._distinct_rows(mats)[0])

    def test_delta_must_be_positive(self, carpet):
        with pytest.raises(ValueError):
            attractor_cloud(carpet, 0.0)

    def test_nan_delta_rejected(self, carpet):
        with budget_scope(1000), pytest.raises(ValueError):
            attractor_cloud(carpet, math.nan)

    def test_pressure_sum_decreases_under_refinement(self, positive_pair):
        # s chosen so that sum alpha1(i)^s = 1; refinement cannot increase
        # the antichain sum at that exponent.
        a = [singular_data(f.linear).alpha1 for f in positive_pair.maps]

        def pressure(s):
            return sum(x**s for x in a)

        def alpha1(delta):
            # the reference's cylinders are the cloud's, bit for bit
            mats, _ = reference_antichain(positive_pair, delta)
            got = attractor_cloud(positive_pair, delta).points
            assert got.tobytes() == reference_cloud(positive_pair, delta).tobytes()
            return alpha_pair_of_stack(entries(mats))[0]

        lo, hi = 0.1, 20.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if pressure(mid) > 1 else (lo, mid)
        s_star = 0.5 * (lo + hi)
        coarse = alpha1(0.3)
        fine = alpha1(0.1)
        assert np.sum(fine**s_star) <= np.sum(coarse**s_star) * (1 + 1e-9)


class TestAttractorCloud:
    def test_single_map_fixed_point(self, single_map):
        fp = single_map.maps[0].fixed_point()
        for delta in (0.5, 0.1, 0.01):
            cloud = attractor_cloud(single_map, delta)
            assert len(cloud) == 1
            assert cloud.points[0] == pytest.approx(fp)

    def test_carpet_quarter(self, carpet):
        cloud = attractor_cloud(carpet, 0.25)
        assert len(cloud) == 9
        assert np.all(cloud.points >= -1e-12)
        assert np.all(cloud.points <= 1 + 1e-12)

    def test_carpet_x_marginal_fills_interval(self, carpet):
        delta = 2.0**-10
        xs = np.sort(attractor_cloud(carpet, delta).points[:, 0])
        assert xs[0] == pytest.approx(0.0, abs=delta)
        assert xs[-1] == pytest.approx(1.0, abs=2 * delta)
        assert np.max(np.diff(xs)) <= delta

    def test_matches_object_refinement(self, positive_pair):
        assert_matches_oracle(positive_pair, 0.05)

    @pytest.mark.parametrize(
        "name, delta",
        [("carpet", 2.0**-9), ("positive_pair", 2.0**-8), ("b_a_b", 2.0**-8),
         ("alternating", 2.0**-7), ("b_a_b_off", 2.0**-8), ("alternating_off", 2.0**-7),
         ("four_map_carpet", 2.0**-9)],
    )
    def test_bytes_match_reference(self, request, name, delta):
        ifs = CLOUD_SYSTEMS.get(name) or request.getfixturevalue(name)
        got = attractor_cloud(ifs, delta).points
        assert got.tobytes() == reference_cloud(ifs, delta).tobytes()

    @pytest.mark.parametrize("name", list(SHARED))
    def test_bytes_match_reference_in_small_blocks(self, monkeypatch, name):
        # a block size that divides no level: the last block is partial
        ifs = SHARED[name]
        monkeypatch.setattr(symbolic, "_CLOUD_BLOCK", 7)
        got = attractor_cloud(ifs, 2.0**-7).points
        assert got.tobytes() == reference_cloud(ifs, 2.0**-7).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(small_systems(), st.floats(-5.5, 0.5))
    def test_bytes_match_reference_on_random_systems(self, ifs, log2_delta):
        # delta from 2^-5.5 (0.6^8 < 2^-5.5: at most 4^8 cylinders) to 2^0.5 (the identity)
        delta = 2.0**log2_delta
        got = attractor_cloud(ifs, delta).points
        assert got.tobytes() == reference_cloud(ifs, delta).tobytes()

    def test_carpet_peak_memory(self, carpet):
        # 177,147 points: one product per level and no row index, so only
        # the translations; with a row index of zeros this read 6.2 MB
        tracemalloc.start()
        try:
            attractor_cloud(carpet, 2.0**-11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.2e6, peak

    def test_positive_cone_peak_memory(self, positive_pair):
        # 244,446 points, one product per cylinder: the anchor images of a
        # level's done rows are placed a block at a time. A (rows, 4) copy of
        # each level's whole table read 13.1 MB; the (rows, 2, 2) refiner
        # with one image array per level read 11.07 MB; complex translations
        # added in place read 10.83 MB
        tracemalloc.start()
        try:
            attractor_cloud(positive_pair, 2.0**-11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11.5e6, peak

    def test_cloud_adds_anchor_images_in_place(self, carpet):
        # 531,441 points: the one anchor image is added to the translations
        # in place, so the peak is the last level's translations and their
        # parents' (a per-cylinder gather beside the translations read
        # 21.3 MB, the row index 18.6 MB)
        tracemalloc.start()
        try:
            attractor_cloud(carpet, 2.0**-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12.5e6, peak

    def test_refinement_consistency(self, carpet):
        delta = 2.0**-5
        coarse = attractor_cloud(carpet, delta).points
        fine = attractor_cloud(carpet, delta / 2).points
        # anchors at delta survive into the finer cloud, so the Hausdorff gap
        # is bounded by the coarse cylinder diameters
        assert hausdorff(fine, coarse) <= delta * 1.05


class TestWordLevels:
    def test_levels_match_cylinders(self, positive_pair):
        for n, (mats, dets) in enumerate(word_levels(positive_pair, 4), start=1):
            words = list(itertools.product(range(1, positive_pair.kappa + 1), repeat=n))
            assert mats.shape == (len(words), 2, 2)
            for m, d, w in zip(mats, dets, words):
                cyl = cylinder(positive_pair, w)
                assert m == pytest.approx(cyl.map.linear.as_array())
                assert d == cyl.det
            sampled, sampled_dets = word_products(positive_pair, np.array(words) - 1)
            assert sampled == pytest.approx(mats)
            assert sampled_dets == pytest.approx(dets)

    def test_transpose_levels(self, positive_pair):
        # A_{w1}^T ... A_{wn}^T is the transpose of the reversed word's product
        kappa = positive_pair.kappa
        plain = word_levels(positive_pair, 4)
        flipped = word_levels(positive_pair, 4, transpose=True)
        for n, ((m, d), (mt, dt)) in enumerate(zip(plain, flipped), start=1):
            words = np.array(list(itertools.product(range(kappa), repeat=n)))
            rev = np.ravel_multi_index(words[:, ::-1].T, (kappa,) * n)
            assert mt == pytest.approx(np.transpose(m[rev], (0, 2, 1)))
            assert np.all(dt == d)

    def test_cap_allows_only_the_last_level_past_it(self, positive_pair):
        # level 4 (16 products) is the first past a cap of 10
        assert [len(m) for m, _ in word_levels(positive_pair, 4, cap=10)] == [2, 4, 8, 16]
        levels = word_levels(positive_pair, 5, cap=10)
        assert [len(next(levels)[0]) for _ in range(3)] == [2, 4, 8]
        with pytest.raises(BudgetError, match="depth 4 of 5: 16 products exceed the cap 10"):
            next(levels)

    @pytest.mark.parametrize(
        "name, depth",
        [("carpet", 8), ("positive_pair", 10), ("b_a_b", 7), ("alternating", 4),
         ("diagonal", 7), ("signed", 7)],
    )
    @pytest.mark.parametrize("transpose", [False, True])
    def test_distinct_rows_of_every_word(self, request, name, depth, transpose):
        # each level's distinct (product, det) rows of every word, by bits and
        # in order of first occurrence
        ifs = LEVEL_SYSTEMS.get(name) or request.getfixturevalue(name)
        levels = word_levels(ifs, depth, transpose)
        every = all_word_levels(ifs, depth, transpose)
        for (mats, dets), (all_mats, all_dets) in zip(levels, every, strict=True):
            first = distinct_rows_oracle(all_mats, all_dets)[0]
            assert mats.tobytes() == all_mats[first].tobytes()
            assert dets.tobytes() == all_dets[first].tobytes()

    def test_signed_zeros_stay_distinct(self):
        mats, dets = list(word_levels(SIGNED, 2))[-1]
        rows = np.concatenate([mats.reshape(-1, 4), dets[:, None]], axis=1)
        assert len(rows) == 6 > len({tuple(r + 0.0) for r in rows}) == 5

    @pytest.mark.parametrize(
        "ifs, sizes",
        [(None, [1] * 12), (five_maps(), [1] * 12), (ALTERNATING, [2**n for n in range(1, 11)])],
    )
    def test_shared_parts_keep_one_row_per_product(self, carpet, ifs, sizes):
        # the carpet's and five_maps' words share one part; ALTERNATING's
        # eight maps carry two, so its level n holds 2^n products.  A level
        # builds kappa products a row, far under the cap, not kappa^n
        levels = word_levels(ifs or carpet, len(sizes), cap=10_000)
        assert [len(m) for m, _ in levels] == sizes


class TestDistinctRows:
    @pytest.mark.parametrize("size, values", [(1, 3), (50, 2), (2000, 3)])
    @pytest.mark.parametrize("mix", [symbolic._MIX, np.uint64(0)])
    def test_matches_the_dict_oracle(self, monkeypatch, size, values, mix):
        # few values and signed zeros: many repeats, some equal only in value;
        # a zero multiplier hashes every row to 0, so the rows' bits are sorted
        monkeypatch.setattr(symbolic, "_MIX", mix)
        rng = np.random.default_rng(size)
        mats = rng.integers(-1, values, (size, 2, 2)) * 0.5
        mats[rng.random(mats.shape) < 0.3] *= -1.0
        dets = rng.integers(0, values, size) * 0.25
        first, which = symbolic._distinct_rows(mats, dets)
        want_first, want_which = distinct_rows_oracle(mats, dets)
        assert first.tolist() == want_first and which.tolist() == want_which
        assert symbolic._distinct_rows(mats)[0].tolist() == distinct_rows_oracle(mats)[0]

    def test_empty_stack(self):
        # a cover level whose images are all narrow leaves no parents
        first, which = symbolic._distinct_rows(np.empty((0, 2, 2)), np.empty(0))
        assert first.shape == which.shape == (0,)
        assert np.empty((0, 2, 2))[first].shape == (0, 2, 2)


class TestSymbolicPoint:
    """The anchor of the cylinder of prefix^depth approximates the coding-map
    image of the periodic word prefix^infinity."""

    @staticmethod
    def periodic_anchor(ifs, prefix, depth):
        return cylinder(ifs, cyclic_prefix(prefix, depth)).map(ifs.anchor_point())

    def test_fixed_point_of_first_map(self, carpet):
        for depth in (1, 5, 12):
            assert self.periodic_anchor(carpet, (1,), depth) == pytest.approx([0.0, 0.0])

    def test_prefix_two(self, carpet):
        p = self.periodic_anchor(carpet, (2,), 20)
        assert p == pytest.approx([0.5, 1.0], abs=2.0**-19)

    def test_prefix_three(self, carpet):
        p = self.periodic_anchor(carpet, (3,), 30)
        assert p == pytest.approx([1.0, 0.0], abs=2.0**-29)


class TestWords:
    def test_cyclic_prefix(self):
        assert cyclic_prefix((1, 2), 5) == (1, 2, 1, 2, 1)
