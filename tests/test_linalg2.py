import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinevis.errors import SingularInputError
from affinevis.linalg2 import (
    AffineMap2,
    Direction,
    Mat2,
    ProjLine,
    alpha_pair_of_stack,
    compose,
    matmul_stack,
    matvec_stack,
    proj_apply,
    proj_distance,
    singular_data,
)

# Golden ratio: alpha1 of the unit shear, from the characteristic polynomial
# of [[1, 1], [1, 2]] solved by hand (lambda = (3 +/- sqrt 5) / 2).
SHEAR_ALPHA1 = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)


def random_invertible(rng, scale=2.0):
    while True:
        m = Mat2(*(rng.uniform(-scale, scale, size=4)))
        if abs(m.det) > 1e-3:
            return m


class TestSingularData:
    def test_diagonal(self):
        sd = singular_data(Mat2.diag(1.0 / 3.0, 0.5))
        assert sd.alpha1 == pytest.approx(0.5)
        assert sd.alpha2 == pytest.approx(1.0 / 3.0)
        assert sd.theta1.angle == pytest.approx(math.pi / 2)

    def test_isotropic_convention(self):
        sd = singular_data(Mat2.diag(0.5, 0.5))
        assert sd.alpha1 == pytest.approx(0.5)
        assert sd.alpha2 == pytest.approx(0.5)
        assert sd.theta1.angle == pytest.approx(0.0)
        assert proj_distance(sd.theta1, sd.theta2) == pytest.approx(math.pi / 2)

    def test_isotropic_rotation_keeps_invariants(self):
        c, s = math.cos(0.7), math.sin(0.7)
        m = Mat2(c, -s, s, c) @ Mat2.diag(0.5, 0.5)
        sd = singular_data(m)
        img = m.apply(np.array(sd.eta1))
        assert np.hypot(*img) == pytest.approx(sd.alpha1)
        assert sd.theta1.angle == pytest.approx(0.0)

    def test_shear_closed_form(self):
        sd = singular_data(Mat2(1.0, 1.0, 0.0, 1.0))
        assert sd.alpha1 == pytest.approx(SHEAR_ALPHA1, rel=1e-12)
        assert sd.alpha2 == pytest.approx(1.0 / SHEAR_ALPHA1, rel=1e-12)

    def test_shear_maximizes_over_sampled_vectors(self):
        m = Mat2(1.0, 1.0, 0.0, 1.0)
        angles = np.linspace(0.0, np.pi, 10_000, endpoint=False)
        vecs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        norms = np.hypot(*(m.apply(vecs).T))
        assert norms.max() == pytest.approx(SHEAR_ALPHA1, abs=1e-6)
        assert norms.min() == pytest.approx(1.0 / SHEAR_ALPHA1, abs=1e-6)

    def test_singular_rejected(self):
        with pytest.raises(SingularInputError):
            singular_data(Mat2(1.0, 2.0, 2.0, 4.0))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_extreme_stretch_at_eta(self, seed):
        rng = np.random.default_rng(seed)
        m = random_invertible(rng)
        sd = singular_data(m)
        angles = np.linspace(0.0, np.pi, 2000, endpoint=False)
        vecs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        norms = np.hypot(*(m.apply(vecs).T))
        eps = 1e-9 * sd.alpha1
        assert norms.max() <= sd.alpha1 + eps
        assert norms.min() >= sd.alpha2 - eps
        # extremes attained at eta1 / eta2
        n1 = np.hypot(*m.apply(np.array(sd.eta1)))
        n2 = np.hypot(*m.apply(np.array(sd.eta2)))
        assert n1 == pytest.approx(sd.alpha1, rel=1e-9)
        assert n2 == pytest.approx(sd.alpha2, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_orthogonality_invariants(self, seed):
        rng = np.random.default_rng(seed)
        sd = singular_data(random_invertible(rng))
        assert sd.alpha1 >= sd.alpha2 > 0
        assert proj_distance(sd.theta1, sd.theta2) == pytest.approx(
            math.pi / 2, abs=1e-9
        )
        assert abs(np.dot(sd.eta1, sd.eta2)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_stack_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        ms = [random_invertible(rng) for _ in range(8)]
        stack = np.stack([m.as_array() for m in ms])
        # supplied determinants need not be the computed ones; they must be used
        dets = rng.uniform(0.5, 2.0, size=len(ms)) * np.array([m.det for m in ms])
        for given_dets in (None, dets):
            a1, a2 = alpha_pair_of_stack(stack, dets=given_dets)
            for k, m in enumerate(ms):
                det = None if given_dets is None else float(given_dets[k])
                sd = singular_data(m, det=det)
                # one Gram-eigenvalue formula: the same bits, not just close
                assert a1[k] == sd.alpha1
                assert a2[k] == sd.alpha2


ENTRY = st.floats(-1e6, 1e6, allow_nan=False)
MATS = st.lists(st.tuples(ENTRY, ENTRY, ENTRY, ENTRY), min_size=1, max_size=6)


class TestStackProducts:
    @settings(max_examples=200, deadline=None)
    @given(MATS, MATS)
    def test_matmul_matches_mat2(self, left, right):
        a = np.array(left).reshape(-1, 2, 2)
        b = np.array(right).reshape(-1, 2, 2)
        out = matmul_stack(a[:, None], b)
        assert out.shape == (len(left), len(right), 2, 2)
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                assert Mat2.from_array(out[i, j]) == Mat2(*x) @ Mat2(*y)

    @settings(max_examples=200, deadline=None)
    @given(MATS, st.lists(st.tuples(ENTRY, ENTRY), min_size=1, max_size=6))
    def test_matvec_matches_floats(self, mats, vecs):
        out = matvec_stack(np.array(mats).reshape(-1, 1, 2, 2), np.array(vecs))
        assert out.shape == (len(mats), len(vecs), 2)
        for i, (a11, a12, a21, a22) in enumerate(mats):
            for j, (x, y) in enumerate(vecs):
                assert out[i, j].tolist() == [a11 * x + a12 * y, a21 * x + a22 * y]


class TestProjLine:
    def test_normalization(self):
        assert ProjLine(math.pi).angle == 0.0
        assert ProjLine(-0.1).angle == pytest.approx(math.pi - 0.1)
        assert ProjLine(3 * math.pi + 0.2).angle == pytest.approx(0.2)

    def test_distance_basic(self):
        assert proj_distance(ProjLine(0.0), ProjLine(0.0)) == 0.0
        assert proj_distance(ProjLine(0.0), ProjLine(math.pi / 2)) == pytest.approx(
            math.pi / 2
        )
        assert proj_distance(ProjLine(0.1), ProjLine(3.0)) == pytest.approx(
            math.pi - 2.9
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_distance_is_a_metric(self, a, b, c):
        la, lb, lc = ProjLine(a), ProjLine(b), ProjLine(c)
        dab = proj_distance(la, lb)
        assert 0 <= dab <= math.pi / 2 + 1e-15
        assert dab == pytest.approx(proj_distance(lb, la))
        assert dab <= proj_distance(la, lc) + proj_distance(lc, lb) + 1e-12


class TestProjApply:
    def test_identity(self):
        l = ProjLine(1.1)
        assert proj_apply(Mat2.identity(), l).angle == pytest.approx(1.1)

    def test_axis_eigenline(self):
        out = proj_apply(Mat2.diag(1.0 / 3.0, 0.5), ProjLine(0.0))
        assert out.angle == pytest.approx(0.0)

    def test_diagonal_on_diagonal_line(self):
        out = proj_apply(Mat2.diag(1.0 / 3.0, 0.5), ProjLine(math.pi / 4))
        assert out.angle == pytest.approx(math.atan2(0.5, 1.0 / 3.0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_morphism_under_products(self, seed, angle):
        rng = np.random.default_rng(seed)
        m1, m2 = random_invertible(rng), random_invertible(rng)
        l = ProjLine(angle)
        lhs = proj_apply(m1 @ m2, l)
        rhs = proj_apply(m1, proj_apply(m2, l))
        assert proj_distance(lhs, rhs) < 1e-12


class TestCompose:
    def test_identity_left(self):
        g = AffineMap2(Mat2.diag(0.3, 0.4), (1.0, -2.0))
        h = compose(AffineMap2.identity(), g)
        assert h.linear == g.linear
        assert h.translation == g.translation

    def test_translations_add(self):
        t1 = AffineMap2(Mat2.identity(), (1.0, 2.0))
        t2 = AffineMap2(Mat2.identity(), (-0.5, 3.0))
        h = compose(t1, t2)
        assert h.translation == pytest.approx((0.5, 5.0))

    def test_carpet_f1_f3(self):
        lin = Mat2.diag(1.0 / 3.0, 0.5)
        f1 = AffineMap2(lin, (0.0, 0.0))
        f3 = AffineMap2(lin, (2.0 / 3.0, 0.0))
        h = compose(f1, f3)
        assert h.linear.as_array() == pytest.approx(np.diag([1.0 / 9.0, 0.25]))
        assert h.translation == pytest.approx((2.0 / 9.0, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_associative_and_submultiplicative(self, seed):
        rng = np.random.default_rng(seed)
        maps = [
            AffineMap2(random_invertible(rng, 0.7), tuple(rng.uniform(-1, 1, 2)))
            for _ in range(3)
        ]
        f, g, h = maps
        lhs = compose(compose(f, g), h)
        rhs = compose(f, compose(g, h))
        assert lhs.linear.as_array() == pytest.approx(rhs.linear.as_array(), rel=1e-12)
        assert np.asarray(lhs.translation) == pytest.approx(
            np.asarray(rhs.translation), rel=1e-9, abs=1e-12
        )
        a_fg = singular_data(compose(f, g).linear).alpha1
        a_f = singular_data(f.linear).alpha1
        a_g = singular_data(g.linear).alpha1
        assert a_fg <= a_f * a_g * (1 + 1e-12)


class TestDirection:
    def test_carrier_identifies_opposites(self):
        d = Direction(0.3)
        assert d.carrier().angle == pytest.approx(Direction(d.angle + math.pi).carrier().angle)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError):
            Direction(angle)

    def test_apply_point(self):
        f = AffineMap2(Mat2.diag(2.0, 3.0), (1.0, 1.0))
        assert f(np.array([1.0, 1.0])) == pytest.approx([3.0, 4.0])
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert f(pts) == pytest.approx(np.array([[3.0, 1.0], [1.0, 4.0]]))

    def test_fixed_point(self):
        f = AffineMap2(Mat2.diag(1.0 / 3.0, 0.5), (1.0 / 3.0, 0.5))
        assert f.fixed_point() == pytest.approx([0.5, 1.0])
