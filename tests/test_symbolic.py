import itertools
import math

import numpy as np
import pytest
from affinevis.errors import BadSymbolError, BudgetError
from affinevis.linalg2 import AffineMap2, Mat2, alpha_pair_of_stack, singular_data
from affinevis.symbolic import (
    IFS,
    antichain,
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


def assert_matches_oracle(ifs, delta):
    mats, trans = antichain(ifs, delta)
    oracle = antichain_oracle(ifs, delta)
    assert mats.shape == (len(oracle), 2, 2)
    for m, t, c in zip(mats, trans, oracle):
        assert np.array_equal(m, c.map.linear.as_array())
        assert t == pytest.approx(c.map.translation, abs=1e-15)
    return oracle


class TestRefineCylinders:
    def test_depth_one(self, carpet):
        mats, trans = antichain(carpet, 0.75)
        assert np.array_equal(mats, carpet.linear_stack())
        assert np.array_equal(trans, carpet.translation_stack())

    def test_alpha1_half(self, carpet):
        mats, _ = antichain(carpet, 0.5)
        assert len(mats) == 3
        assert alpha_pair_of_stack(mats)[0] == pytest.approx(0.5)

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

    def test_budget(self, carpet):
        with pytest.raises(BudgetError):
            antichain(carpet, 1e-6, budget=100)

    def test_delta_must_be_positive(self, carpet):
        with pytest.raises(ValueError):
            antichain(carpet, 0.0)

    def test_nan_delta_rejected(self, carpet):
        with pytest.raises(ValueError):
            antichain(carpet, math.nan, budget=1000)

    def test_pressure_sum_decreases_under_refinement(self, positive_pair):
        # s chosen so that sum alpha1(i)^s = 1; refinement cannot increase
        # the antichain sum at that exponent.
        a = [singular_data(f.linear).alpha1 for f in positive_pair.maps]

        def pressure(s):
            return sum(x**s for x in a)

        lo, hi = 0.1, 20.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if pressure(mid) > 1 else (lo, mid)
        s_star = 0.5 * (lo + hi)
        coarse = alpha_pair_of_stack(antichain(positive_pair, 0.3)[0])[0]
        fine = alpha_pair_of_stack(antichain(positive_pair, 0.1)[0])[0]
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
        delta = 0.05
        cloud = attractor_cloud(positive_pair, delta)
        oracle = antichain_oracle(positive_pair, delta)
        p0 = positive_pair.anchor_point()
        anchors = np.array(sorted(tuple(c.map(p0)) for c in oracle))
        got = np.array(sorted(map(tuple, cloud.points)))
        assert got == pytest.approx(anchors)

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

    def test_cap_allows_only_the_last_level_past_it(self, carpet):
        # level 3 (27 words) is the first past a cap of 10
        assert [len(m) for m, _ in word_levels(carpet, 3, cap=10)] == [3, 9, 27]
        levels = word_levels(carpet, 4, cap=10)
        assert [len(next(levels)[0]) for _ in range(2)] == [3, 9]
        with pytest.raises(BudgetError, match="depth 3 of 4"):
            next(levels)


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
        assert cyclic_prefix(iter([1, 2, 3]), 2) == (1, 2)

    def test_cyclic_prefix_exhaustion(self):
        from affinevis.errors import StreamExhaustedError

        with pytest.raises(StreamExhaustedError):
            cyclic_prefix(iter([1, 2]), 5)
