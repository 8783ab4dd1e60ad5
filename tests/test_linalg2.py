import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinevis import symbolic
from affinevis.errors import SingularInputError
from affinevis.linalg2 import (
    AffineMap2,
    Direction,
    Mat2,
    ProjLine,
    PI,
    SingularData,
    alpha_pair_of_stack,
    compose,
    entries,
    image_angles,
    matmul_stack,
    matvec_stack,
    signed_gaps,
    singular_data,
    singular_rows,
    singular_stack,
)
from affinevis.symbolic import attractor_cloud

# Golden ratio: alpha1 of the unit shear, from the characteristic polynomial
# of [[1, 1], [1, 2]] solved by hand (lambda = (3 +/- sqrt 5) / 2).
SHEAR_ALPHA1 = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)


def random_invertible(rng, scale=2.0):
    while True:
        m = Mat2(*(rng.uniform(-scale, scale, size=4)))
        if abs(m.det) > 1e-3:
            return m


def eta1_of(sd: SingularData) -> tuple[float, float]:
    """The strong singular direction, a quarter turn back from eta2."""
    return (sd.eta2[1], -sd.eta2[0])


# The scalar kernels the stacked ones replaced, kept as oracles: the stacked
# kernels must give their bits.


def is_singular(m: Mat2) -> bool:
    """|det| at most 1e-14 times the squared largest entry."""
    s = max(abs(m.a11), abs(m.a12), abs(m.a21), abs(m.a22))
    return abs(m.det) <= 1e-14 * s * s


def proj_apply_oracle(m: Mat2, line: ProjLine) -> ProjLine:
    """Image of a projective line under an invertible linear map."""
    if is_singular(m):
        raise SingularInputError(f"matrix {m} is numerically singular")
    w = m.apply(line.vector())
    return ProjLine(math.atan2(w[1], w[0]))


def proj_distance(a: ProjLine, b: ProjLine) -> float:
    """Angle between two lines, in [0, pi/2]: the scalar formula that
    ``abs(signed_gaps)`` replaced."""
    d = abs(a.angle - b.angle) % PI
    return min(d, PI - d)


def proj_signed_gap_oracle(a: ProjLine, b: ProjLine) -> float:
    """Signed representative of a - b in (-pi/2, pi/2]."""
    d = (a.angle - b.angle + PI / 2) % PI - PI / 2
    return PI / 2 if d == -PI / 2 else d


def singular_data_oracle(m: Mat2, det: float | None = None) -> SingularData:
    """The scalar singular data: eigendecomposition of m^T m, eta1 dropped."""
    if det is None:
        if is_singular(m):
            raise SingularInputError(f"matrix {m} is numerically singular")
        det = m.det
    elif det == 0.0:
        raise SingularInputError(f"matrix {m} has zero determinant")
    p = m.a11 * m.a11 + m.a21 * m.a21
    r = m.a12 * m.a12 + m.a22 * m.a22
    q = m.a11 * m.a12 + m.a21 * m.a22
    spread = np.hypot(0.5 * (p - r), q)
    lam1 = 0.5 * (p + r) + spread
    alpha1 = math.sqrt(lam1)
    alpha2 = math.sqrt((det * det) / lam1)
    if spread <= 1e-12 * (0.5 * (p + r)):
        nrm = math.hypot(m.a22, m.a21)
        e1 = (m.a22 / nrm, -m.a21 / nrm)
        eta2 = (-e1[1], e1[0])
        return SingularData(alpha1, alpha2, ProjLine(0.0), ProjLine(PI / 2), eta2)
    if p >= r:
        v = np.array([lam1 - r, q])
    else:
        v = np.array([q, lam1 - p])
    e1 = v / np.hypot(v[0], v[1])
    eta1 = (float(e1[0]), float(e1[1]))
    img1 = m.apply(np.array(eta1))
    theta1 = ProjLine(math.atan2(img1[1], img1[0]))
    theta2 = ProjLine(theta1.angle + PI / 2)
    return SingularData(alpha1, alpha2, theta1, theta2, (-eta1[1], eta1[0]))


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
        img = m.apply(np.array(eta1_of(sd)))
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
        n1 = np.hypot(*m.apply(np.array(eta1_of(sd))))
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
        assert abs(np.dot(eta1_of(sd), sd.eta2)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_stack_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        ms = [random_invertible(rng) for _ in range(8)]
        stack = np.stack([m.as_array() for m in ms])
        # supplied determinants need not be the computed ones; they must be used
        dets = rng.uniform(0.5, 2.0, size=len(ms)) * np.array([m.det for m in ms])
        for given_dets in (None, dets):
            a1, a2 = alpha_pair_of_stack(entries(stack), dets=given_dets)
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
        out = np.empty((len(left), len(right), 2, 2))
        matmul_stack(entries(a[:, None]), entries(b), entries(out))
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                assert Mat2.from_array(out[i, j]) == Mat2(*x) @ Mat2(*y)

    @settings(max_examples=200, deadline=None)
    @given(MATS, st.lists(st.tuples(ENTRY, ENTRY), min_size=1, max_size=6))
    def test_matvec_matches_floats(self, mats, vecs):
        out = np.empty((len(mats), len(vecs), 2))
        stack = np.array(mats).reshape(-1, 1, 2, 2)
        matvec_stack(entries(stack), np.array(vecs).T, np.moveaxis(out, -1, 0))
        for i, (a11, a12, a21, a22) in enumerate(mats):
            for j, (x, y) in enumerate(vecs):
                assert out[i, j].tolist() == [a11 * x + a12 * y, a21 * x + a22 * y]


def flat_gemv_holds(mats: np.ndarray, x: np.ndarray) -> bool:
    """The stacked matmul of (m, 2, 2) products with a vector has the bits of
    one matrix-vector product of their (2 m, 2) rows: attractor_cloud places
    its anchor images with the second and keeps the first's bits."""
    return (mats @ x).tobytes() == (mats.reshape(-1, 2) @ x).tobytes()


class TestFlatGemv:
    def test_random_entries(self):
        rng = np.random.default_rng(0)
        for m in [*range(1, 18), 4095, 65537]:
            # either sign from subnormals to 2^500, with signed zeros and the
            # smallest subnormal mixed in
            mats = rng.uniform(-1, 1, (m, 2, 2)) * 2.0 ** rng.integers(-1074, 500, (m, 2, 2))
            for value in (0.0, -0.0, 5e-324):
                mats[rng.uniform(size=mats.shape) < 0.05] = value
            scaled = rng.uniform(-1, 1, 2) * 2.0 ** rng.integers(-30, 30, 2)
            for x in (scaled, np.array([0.0, -1.5]), np.array([-0.0, 3.0])):
                assert flat_gemv_holds(mats, x), (m, x)

    def test_positive_cone_levels(self, monkeypatch, positive_pair):
        # every level's products of the positive-cone cloud at 2^-10, with its anchor
        tables = []

        def spy(cols, dets=None):
            tables.append(np.ascontiguousarray(np.transpose(cols)).reshape(-1, 2, 2))
            return alpha_pair_of_stack(cols, dets)

        monkeypatch.setattr(symbolic, "alpha_pair_of_stack", spy)
        attractor_cloud(positive_pair, 2.0**-10)
        assert sum(map(len, tables)) > 80_000
        anchor = positive_pair.anchor_point()
        for n, mats in enumerate(tables):
            assert flat_gemv_holds(mats, anchor), n


# entries of either sign over 36 binary orders of magnitude
SCALED = st.builds(lambda e, k: e * 2.0**k, st.floats(-1, 1), st.integers(-30, 5))
GENERAL = st.tuples(SCALED, SCALED, SCALED, SCALED)
# rotations and reflections times a scale: isotropic, so theta1 is horizontal
SIMILARITY = st.builds(
    lambda r, t, f: (r * math.cos(t), -f * r * math.sin(t), r * math.sin(t), f * r * math.cos(t)),
    st.floats(1e-6, 2.0),
    st.floats(-4.0, 4.0),
    st.sampled_from([1.0, -1.0]),
)
SHEAR = st.builds(
    lambda a, k, t: (a, 0.0, a * k, a) if t else (a, a * k, 0.0, a),
    st.floats(1e-6, 2.0),
    st.floats(-50.0, 50.0),
    st.booleans(),
)
# the rank-one products u v^T, which is_singular flags
RANK_ONE = st.builds(
    lambda u, v: (u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1]),
    st.tuples(SCALED, SCALED),
    st.tuples(SCALED, SCALED),
)
REGULAR = st.one_of(GENERAL, SIMILARITY, SHEAR).filter(lambda m: not is_singular(Mat2(*m)))
LINES = st.lists(st.floats(-10, 10).map(ProjLine), min_size=1, max_size=4)


class TestStackedKernelsMatchScalar:
    """The stacked kernels against the scalar oracles, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(GENERAL, SIMILARITY, SHEAR), min_size=1, max_size=6), LINES)
    def test_image_angles_match_proj_apply(self, mats, lines):
        stack = np.array(mats).reshape(-1, 2, 2)
        vecs = np.array([l.vector() for l in lines])
        got = image_angles(stack[:, None], vecs)
        assert got.shape == (len(mats), len(lines))
        for i, m in enumerate(map(Mat2.from_array, stack)):
            if is_singular(m):  # the oracle refuses it
                continue
            for j, l in enumerate(lines):
                assert got[i, j].hex() == proj_apply_oracle(m, l).angle.hex()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(REGULAR, min_size=1, max_size=6), st.booleans())
    def test_singular_stack_matches_singular_data(self, mats, given_dets):
        ms = [Mat2(*m) for m in mats]
        # supplied determinants need not be the computed ones; they must be used
        dets = np.array([1.5 * m.det for m in ms]) if given_dets else None
        a1, a2, t1, e2 = singular_stack(np.array(mats).reshape(-1, 2, 2), dets)
        for k, m in enumerate(ms):
            det = None if dets is None else float(dets[k])
            want = singular_data_oracle(m, det)
            row = (a1[k], a2[k], t1[k], *e2[k])
            assert [x.hex() for x in row] == [
                x.hex() for x in (want.alpha1, want.alpha2, want.theta1.angle, *want.eta2)
            ]
            assert repr(singular_data(m, det)) == repr(want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(GENERAL, SIMILARITY, SHEAR, RANK_ONE), min_size=1, max_size=6))
    def test_singular_rows_match_is_singular(self, mats):
        got = singular_rows(np.array(mats).reshape(-1, 2, 2))
        assert got.tolist() == [is_singular(Mat2(*m)) for m in mats]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(REGULAR, max_size=3), RANK_ONE, st.lists(REGULAR, max_size=3))
    def test_singular_rows_raise(self, before, flat, after):
        assume(is_singular(Mat2(*flat)))
        stack = np.array(before + [flat] + after).reshape(-1, 2, 2)
        with pytest.raises(SingularInputError, match="numerically singular"):
            singular_stack(stack, None)
        with pytest.raises(SingularInputError, match="numerically singular"):
            singular_data_oracle(Mat2(*flat))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8), st.floats(-10, 10))
    def test_angle_arithmetic_matches_scalar(self, angles, other):
        # ProjLine's normalization and the signed gap, on floats and arrays
        lines = [ProjLine(a) for a in angles]
        for a, l in zip(angles, lines):
            assert l.angle.hex() == (0.0 if a % PI >= PI else a % PI).hex()
        b = ProjLine(other)
        got = signed_gaps(np.array([l.angle for l in lines]), b.angle)
        want = [proj_signed_gap_oracle(l, b) for l in lines]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert [float(signed_gaps(l.angle, b.angle)).hex() for l in lines] == [x.hex() for x in want]

    def test_zero_determinant_rejected(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 2.0])])
        with pytest.raises(SingularInputError, match="has zero determinant"):
            singular_stack(stack, np.array([1.0, 0.0]))


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

    def test_abs_signed_gap_is_the_distance(self):
        # the one line distance of the package agrees with the scalar formula
        # within 5e-16 (the two round differently), and exactly at 0 and pi/2
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0.0, PI, size=(2, 20_000))
        got = np.abs(signed_gaps(a, b))
        want = np.array([proj_distance(ProjLine(x), ProjLine(y)) for x, y in zip(a, b)])
        assert np.max(np.abs(got - want)) <= 5e-16
        for x, y in ((0.0, 0.0), (0.7, 0.7), (0.0, PI / 2), (PI / 2, 0.0)):
            assert float(abs(signed_gaps(x, y))) == proj_distance(ProjLine(x), ProjLine(y))


def image_angle(m: Mat2, line: ProjLine) -> float:
    """image_angles of one matrix and one line."""
    return float(image_angles(m.as_array()[None], line.vector()[None])[0])


class TestProjApply:
    def test_identity(self):
        l = ProjLine(1.1)
        assert image_angle(Mat2.identity(), l) == pytest.approx(1.1)

    def test_axis_eigenline(self):
        out = image_angle(Mat2.diag(1.0 / 3.0, 0.5), ProjLine(0.0))
        assert out == pytest.approx(0.0)

    def test_diagonal_on_diagonal_line(self):
        out = image_angle(Mat2.diag(1.0 / 3.0, 0.5), ProjLine(math.pi / 4))
        assert out == pytest.approx(math.atan2(0.5, 1.0 / 3.0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_morphism_under_products(self, seed, angle):
        rng = np.random.default_rng(seed)
        m1, m2 = random_invertible(rng), random_invertible(rng)
        l = ProjLine(angle)
        lhs = ProjLine(image_angle(m1 @ m2, l))
        rhs = ProjLine(image_angle(m1, ProjLine(image_angle(m2, l))))
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
