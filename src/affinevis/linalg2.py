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
    def transpose(self) -> "Mat2":
        return Mat2(self.a11, self.a21, self.a12, self.a22)

    def is_singular(self) -> bool:
        s = max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))
        return abs(self.det) <= _DET_RTOL * s * s

    @property
    def inverse(self) -> "Mat2":
        if self.is_singular():
            raise SingularInputError(f"matrix {self} is numerically singular")
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
        a = float(self.angle) % PI
        object.__setattr__(self, "angle", 0.0 if a >= PI else a)

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
    eta1: tuple[float, float]
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


def _gram_eigenvalues(a11, a12, a21, a22, det):
    """``(p, q, r, lam1, lam2, spread)``: the Gram matrix [[p, q], [q, r]] of
    [[a11, a12], [a21, a22]] (floats, or arrays of entries), its eigenvalues
    and their half gap; see ``singular_data``.  ``det`` None stands for the
    entries' own determinant, computed last: a stack's process peak is lower."""
    p = a11 * a11 + a21 * a21
    r = a12 * a12 + a22 * a22
    q = a11 * a12 + a21 * a22
    spread = np.hypot(0.5 * (p - r), q)
    lam1 = 0.5 * (p + r) + spread
    if det is None:
        det = a11 * a22 - a12 * a21
    return p, q, r, lam1, (det * det) / lam1, spread


def singular_data(m: Mat2, det: float | None = None) -> SingularData:
    """Exact eigendecomposition of m^T m via the 2x2 quadratic formula.

    The larger eigenvalue comes from the stable root of the characteristic
    polynomial; the smaller one from det^2 / lambda1 to avoid cancellation.
    ``det`` may supply an externally-known exact determinant (e.g. a product
    of factor determinants for composed maps), which sidesteps the
    subtraction cancellation for strongly anisotropic products.
    For isotropic input (alpha1 == alpha2 the decomposition is degenerate),
    the convention is theta1 horizontal, theta2 vertical.
    """
    if det is None:
        if m.is_singular():
            raise SingularInputError(f"matrix {m} is numerically singular")
    elif det == 0.0:
        raise SingularInputError(f"matrix {m} has zero determinant")
    p, q, r, lam1, lam2, spread = _gram_eigenvalues(m.a11, m.a12, m.a21, m.a22, det)
    alpha1 = math.sqrt(lam1)
    alpha2 = math.sqrt(lam2)

    if spread <= _ISO_RTOL * (0.5 * (p + r)):
        # m^-1 (1, 0) is proportional to (a22, -a21); normalizing avoids
        # dividing by the (possibly tiny) determinant
        nrm = math.hypot(m.a22, m.a21)
        e1 = (m.a22 / nrm, -m.a21 / nrm)
        eta2 = (-e1[1], e1[0])
        return SingularData(alpha1, alpha2, ProjLine(0.0), ProjLine(PI / 2), e1, eta2)

    # Pick the eigenvector expression with the better-conditioned component.
    if p >= r:
        v = np.array([lam1 - r, q])
    else:
        v = np.array([q, lam1 - p])
    # lam1 - r >= (p - r) / 2 + spread > 0 when p >= r, and likewise
    # lam1 - p > 0 otherwise: off the isotropic case v is never 0
    e1 = v / np.hypot(v[0], v[1])
    eta1 = (float(e1[0]), float(e1[1]))
    eta2 = (-eta1[1], eta1[0])
    img1 = m.apply(np.array(eta1))
    theta1 = ProjLine(math.atan2(img1[1], img1[0]))
    # theta2 is exactly perpendicular; computing it as the image of eta2
    # would amplify rounding noise by the anisotropy ratio
    theta2 = ProjLine(theta1.angle + PI / 2)
    return SingularData(alpha1, alpha2, theta1, theta2, eta1, eta2)


def alpha_pair_of_stack(
    mats: np.ndarray, dets: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (alpha1, alpha2) for an (n, 2, 2) stack.

    ``dets`` may supply exact determinants (products of factor determinants),
    avoiding cancellation for strongly anisotropic stacks.
    """
    entries = (mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
    lam1, lam2 = _gram_eigenvalues(*entries, dets)[3:5]
    return np.sqrt(lam1), np.sqrt(lam2)


def matmul_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcasting product of (..., 2, 2) stacks, entry by entry in closed
    form; rounds exactly like ``Mat2.__matmul__``."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i in range(2):
        for j in range(2):
            np.multiply(a[..., i, 0], b[..., 0, j], out=out[..., i, j])
            out[..., i, j] += a[..., i, 1] * b[..., 1, j]
    return out


def matvec_stack(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Broadcasting product of a (..., 2, 2) stack with a (..., 2) stack of
    vectors, in the closed form of ``matmul_stack``."""
    out = np.empty(np.broadcast_shapes(m.shape[:-1], v.shape))
    for i in range(2):
        np.multiply(m[..., i, 0], v[..., 0], out=out[..., i])
        out[..., i] += m[..., i, 1] * v[..., 1]
    return out


def proj_apply(m: Mat2, line: ProjLine) -> ProjLine:
    """Image of a projective line under an invertible linear map."""
    if m.is_singular():
        raise SingularInputError(f"matrix {m} is numerically singular")
    w = m.apply(line.vector())
    return ProjLine(math.atan2(w[1], w[0]))


def proj_distance(a: ProjLine, b: ProjLine) -> float:
    """Angle between two lines, in [0, pi/2]."""
    d = abs(a.angle - b.angle) % PI
    return min(d, PI - d)


def proj_signed_gap(a: ProjLine, b: ProjLine) -> float:
    """Signed representative of a - b in (-pi/2, pi/2]."""
    d = (a.angle - b.angle + PI / 2) % PI - PI / 2
    return PI / 2 if d == -PI / 2 else d
