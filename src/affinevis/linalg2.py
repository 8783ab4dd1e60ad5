"""Closed-form 2x2 linear algebra and projective-line geometry.

Everything here is pure value arithmetic: no iteration, no global state,
safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularInputError

PI = math.pi

# |det| below this times the squared entry scale counts as singular.
_DET_RTOL = 1e-14
# alpha1/alpha2 closer than this counts as isotropic.
_ISO_RTOL = 1e-12


@dataclass(frozen=True)
class Mat2:
    """2x2 real matrix, row-major entries."""

    a11: float
    a12: float
    a21: float
    a22: float

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diag(cls, d1: float, d2: float) -> "Mat2":
        return cls(float(d1), 0.0, 0.0, float(d2))

    @classmethod
    def from_array(cls, a) -> "Mat2":
        a = np.asarray(a, dtype=float)
        return cls(float(a[0, 0]), float(a[0, 1]), float(a[1, 0]), float(a[1, 1]))

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=float)

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def inverse(self) -> "Mat2":
        require_regular(self.as_array())
        f = 1.0 / self.det
        return Mat2(self.a22 * f, -self.a12 * f, -self.a21 * f, self.a11 * f)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def apply(self, points) -> np.ndarray:
        """Apply to a single 2-vector or an (n, 2) array of row vectors."""
        pts = np.asarray(points, dtype=float)
        return pts @ np.array([[self.a11, self.a21], [self.a12, self.a22]])


@dataclass(frozen=True)
class ProjLine:
    """A line through the origin, represented by its angle in [0, pi)."""

    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", float(proj_angles(float(self.angle))))

    def vector(self) -> np.ndarray:
        return np.array([math.cos(self.angle), math.sin(self.angle)])


@dataclass(frozen=True)
class Direction:
    """A unit vector on the circle, represented by its angle in [0, 2*pi)."""

    angle: float

    def __post_init__(self) -> None:
        # a ValueError, not an AffineVisError: the CLI reports it as bad input
        if not math.isfinite(self.angle):
            raise ValueError(f"direction angle must be finite, got {self.angle}")
        object.__setattr__(self, "angle", float(self.angle) % (2.0 * PI))

    def carrier(self) -> ProjLine:
        """The line spanned by this direction; theta and theta+pi agree."""
        return ProjLine(self.angle)


@dataclass(frozen=True)
class SingularData:
    """Singular values, semiaxis orientations and singular directions of a 2x2 map."""

    alpha1: float
    alpha2: float
    theta1: ProjLine
    theta2: ProjLine
    eta2: tuple[float, float]


@dataclass(frozen=True)
class AffineMap2:
    """x -> linear @ x + translation."""

    linear: Mat2
    translation: tuple[float, float]

    @classmethod
    def identity(cls) -> "AffineMap2":
        return cls(Mat2.identity(), (0.0, 0.0))

    def __call__(self, points) -> np.ndarray:
        return self.linear.apply(points) + np.asarray(self.translation, dtype=float)

    def fixed_point(self) -> np.ndarray:
        """Solve (I - A) p = t; requires 1 not an eigenvalue of A."""
        m = Mat2(
            1.0 - self.linear.a11,
            -self.linear.a12,
            -self.linear.a21,
            1.0 - self.linear.a22,
        )
        return m.inverse.apply(np.asarray(self.translation, dtype=float))


def compose(f: AffineMap2, g: AffineMap2) -> AffineMap2:
    """(f o g)(x) = f(g(x))."""
    lin = f.linear @ g.linear
    t = f.linear.apply(np.asarray(g.translation, dtype=float)) + np.asarray(
        f.translation, dtype=float
    )
    return AffineMap2(lin, (float(t[0]), float(t[1])))


def entries(mats: np.ndarray) -> tuple:
    """The entry columns ``(a11, a12, a21, a22)`` of a (..., 2, 2) stack:
    views, no copy."""
    return mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]


def _gram_major(cols):
    """``(p, q, r, lam1, spread)``: the Gram matrices [[p, q], [q, r]] of
    2x2 matrices given by their entry columns ``(a11, a12, a21, a22)``,
    their larger eigenvalues, from the stable root of the characteristic
    polynomial, and their half gaps; each sum is formed in place."""
    a11, a12, a21, a22 = cols
    p = a11 * a11
    p += a21 * a21
    r = a12 * a12
    r += a22 * a22
    q = a11 * a12
    q += a21 * a22
    spread = p - r
    spread *= 0.5
    np.hypot(spread, q, out=spread)
    lam1 = p + r
    lam1 *= 0.5
    lam1 += spread
    return p, q, r, lam1, spread


def _gram_eigenvalues(cols, det):
    """``(p, q, r, lam1, lam2, spread)``: ``_gram_major`` and the smaller
    eigenvalue, from det^2 / lambda1 to avoid cancellation.  ``det`` None
    stands for the entries' own determinant, computed last: a stack's
    process peak is lower."""
    p, q, r, lam1, spread = _gram_major(cols)
    if det is None:
        a11, a12, a21, a22 = cols
        det = a11 * a22 - a12 * a21
    return p, q, r, lam1, (det * det) / lam1, spread


def singular_data(m: Mat2, det: float | None = None) -> SingularData:
    """``singular_stack`` of one matrix; theta2 is exactly perpendicular to
    theta1 (the image of eta2 would amplify rounding noise)."""
    dets = None if det is None else np.array([det])
    (a1,), (a2,), (t1,), (e2,) = singular_stack(m.as_array()[None], dets)
    theta = (ProjLine(t1), ProjLine(t1 + PI / 2))
    return SingularData(float(a1), float(a2), *theta, tuple(e2.tolist()))


def singular_stack(mats: np.ndarray, dets: np.ndarray | None) -> tuple:
    """``(alpha1, alpha2, theta1, eta2)`` of an (n, 2, 2) stack: singular
    values, major semiaxis angle, weak singular direction.  ``dets`` may give
    exact determinants (products of factor determinants) that sidestep their
    cancellation; a zero one raises SingularInputError, as a numerically
    singular matrix does without them.  Isotropic rows have theta1 = 0."""
    if dets is None:
        require_regular(mats)
    elif not np.all(dets):
        m = Mat2.from_array(mats[np.argmin(np.abs(dets))])
        raise SingularInputError(f"matrix {m} has zero determinant")
    p, q, r, lam1, lam2, spread = _gram_eigenvalues(entries(mats), dets)
    a21, a22 = mats[:, 1, 0], mats[:, 1, 1]
    iso = spread <= _ISO_RTOL * (0.5 * (p + r))
    # the better-conditioned eigenvector expression, never 0 off the isotropic
    # rows; on them m^-1 (1, 0), proportional to (a22, -a21), is normalized
    # without dividing by the (possibly tiny) determinant
    v = np.where((p >= r)[:, None], np.stack([lam1 - r, q], 1), np.stack([q, lam1 - p], 1))
    v[iso] = np.stack([a22, -a21], 1)[iso]
    nrm = np.hypot(v[:, 0], v[:, 1])
    nrm[iso] = list(map(math.hypot, a22[iso].tolist(), a21[iso].tolist()))
    e1 = v / nrm[:, None]
    theta1 = np.where(iso, 0.0, image_angles(mats, e1))
    return np.sqrt(lam1), np.sqrt(lam2), theta1, np.stack([-e1[:, 1], e1[:, 0]], 1)


def alpha_pair_of_stack(cols, dets: np.ndarray | None = None) -> tuple:
    """``singular_stack``'s (alpha1, alpha2) alone, with no singularity
    check, of 2x2 matrices given by their entry columns ``(a11, a12, a21,
    a22)`` (``entries`` of a stack)."""
    lam1, lam2 = _gram_eigenvalues(cols, dets)[3:5]
    return np.sqrt(lam1), np.sqrt(lam2)


def alpha1_of_stack(cols) -> np.ndarray:
    """``alpha_pair_of_stack``'s alpha1 alone, with no determinant."""
    lam1 = _gram_major(cols)[3]
    return np.sqrt(lam1, out=lam1)


def matmul_stack(a, b, out) -> None:
    """Products of 2x2 matrices given by their entry columns ``(a11, a12,
    a21, a22)``, broadcast against each other and written into the entry
    columns of ``out``; rounds exactly like ``Mat2.__matmul__``.  For
    (..., 2, 2) stacks pass their ``entries``."""
    for i in (0, 2):  # the entries (i, j) of the product sit at 2 i + j
        for j in (0, 1):
            c = out[i + j]
            np.multiply(a[i], b[j], out=c)
            c += a[i + 1] * b[j + 2]


def matvec_stack(m, v, out) -> None:
    """Products of 2x2 matrices given by their entry columns with vectors
    given by their coordinate columns ``(x, y)``, broadcast and written into
    the coordinate columns of ``out``; the closed form of ``matmul_stack``."""
    for i in (0, 1):
        c = out[i]
        np.multiply(m[2 * i], v[0], out=c)
        c += m[2 * i + 1] * v[1]


def singular_rows(mats: np.ndarray) -> np.ndarray:
    """Each matrix of a (..., 2, 2) stack is numerically singular: |det| at
    most _DET_RTOL times its squared largest entry."""
    det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    s = np.abs(mats).max(axis=(-2, -1))
    return np.abs(det) <= _DET_RTOL * s * s


def require_regular(mats: np.ndarray) -> None:
    """SingularInputError naming the first numerically singular matrix."""
    bad = singular_rows(mats).ravel()
    if bad.any():
        m = Mat2.from_array(mats.reshape(-1, 2, 2)[np.argmax(bad)])
        raise SingularInputError(f"matrix {m} is numerically singular")


def proj_angles(a):
    """``ProjLine(a).angle`` of a float or of each array entry."""
    a = a % PI
    return np.where(a >= PI, 0.0, a)


def vector_angles(vecs: np.ndarray) -> np.ndarray:
    """Angles in [0, pi) of the rows (x, y) of an (n, ..., 2) stack, each a
    ``math.atan2``: ``np.arctan2`` may differ from it in the last bit."""
    return proj_angles(np.frompyfunc(math.atan2, 2, 1)(vecs[..., 1], vecs[..., 0]).astype(float))


def image_angles(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``vector_angles`` of mats @ vecs, broadcast over an (n, ..., 2, 2) and
    an (n, ..., 2) stack; ``np.vecdot`` of each matrix row rounds like
    ``Mat2.apply`` (the closed form of ``matvec_stack`` does not)."""
    return vector_angles(np.vecdot(mats, vecs[..., None, :]))


def signed_gaps(a, b):
    """Signed representatives in (-pi/2, pi/2] of the line angles a - b, of
    floats or of each pair of array entries."""
    d = (a - b + PI / 2) % PI - PI / 2
    return np.where(d == -PI / 2, PI / 2, d)
