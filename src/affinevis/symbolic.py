"""Words, cylinders, and finite-resolution attractor approximation.

A word is a plain tuple of symbols in 1..kappa; the empty tuple is the
identity cylinder.  The anchor point of a cylinder is the image of the
fixed point of map 1, which always lies inside the attractor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BadSymbolError, BudgetError, NotContractiveError, budget_limit
from .linalg2 import (
    AffineMap2,
    SingularData,
    alpha_pair_of_stack,
    compose,
    matmul_stack,
    matvec_stack,
    singular_data,
)

Word = tuple[int, ...]


@dataclass(frozen=True)
class IFS:
    """An ordered tuple of contractive invertible affine maps."""

    maps: tuple[AffineMap2, ...]

    def __post_init__(self) -> None:
        if len(self.maps) < 1:
            raise ValueError("IFS needs at least one map")
        for k, f in enumerate(self.maps):
            sd = singular_data(f.linear)
            if sd.alpha1 >= 1.0:
                raise NotContractiveError(
                    f"map {k + 1} has alpha1 = {sd.alpha1:.6g} >= 1"
                )

    @property
    def kappa(self) -> int:
        return len(self.maps)

    def linear_stack(self) -> np.ndarray:
        return np.stack([f.linear.as_array() for f in self.maps])

    def translation_stack(self) -> np.ndarray:
        return np.stack([np.asarray(f.translation, dtype=float) for f in self.maps])

    def anchor_point(self) -> np.ndarray:
        """Fixed point of map 1; a point of the attractor."""
        return self.maps[0].fixed_point()

    def diameter_bound(self) -> float:
        """Upper bound for diam(E) via the invariant ball around map 1's fixed point.

        With x0 any point and D0 = max_i |phi_i(x0) - x0|, the ball
        B(x0, D0 / (1 - s)) maps into itself, so it contains the attractor.
        """
        x0 = self.anchor_point()
        s = max(singular_data(f.linear).alpha1 for f in self.maps)
        d0 = max(float(np.hypot(*(f(x0) - x0))) for f in self.maps)
        return 2.0 * d0 / (1.0 - s) if d0 > 0 else 0.0


@dataclass(frozen=True)
class Cylinder:
    """A finite word together with its composed map and singular data.

    ``det`` is the exact product of the factor determinants; it feeds the
    alpha2 computation, which would otherwise cancel catastrophically for
    long dominated words.
    """

    word: Word
    map: AffineMap2
    sdata: SingularData
    det: float = 1.0

    @property
    def alpha1(self) -> float:
        return self.sdata.alpha1

    @property
    def alpha2(self) -> float:
        return self.sdata.alpha2


@dataclass(frozen=True)
class PointCloud:
    """Finite point set approximating a planar set at a stated resolution."""

    points: np.ndarray
    resolution: float

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def common_prefix_length(a: Word, b: Word) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def word_distance(a: Word, b: Word) -> float:
    """2^-(length of the longest common prefix); 0 for equal words."""
    if a == b:
        return 0.0
    return 2.0 ** (-common_prefix_length(a, b))


def _check_word(ifs: IFS, word: Sequence[int]) -> Word:
    w = tuple(int(s) for s in word)
    for s in w:
        if not 1 <= s <= ifs.kappa:
            raise BadSymbolError(f"symbol {s} outside 1..{ifs.kappa}")
    return w


def cylinder(ifs: IFS, word: Sequence[int]) -> Cylinder:
    """Compose phi_w = phi_{w1} o ... o phi_{wn} and attach singular data."""
    w = _check_word(ifs, word)
    f = AffineMap2.identity()
    det = 1.0
    for s in w:
        f = compose(f, ifs.maps[s - 1])
        det *= ifs.maps[s - 1].linear.det
    return Cylinder(w, f, singular_data(f.linear, det=det), det)


def _children(mats: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """Products A_w A_i for every parent A_w and map i; the children of
    word w are w.1, ..., w.kappa in order."""
    return matmul_stack(mats[:, None], lin).reshape(-1, 2, 2)


def word_levels(
    ifs: IFS, depth: int, transpose: bool = False, cap: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Products A_w and exact factor-determinant products of all words, per level.

    Yields ``(mats, dets)`` for lengths 1..depth, words in lexicographic
    order; ``transpose`` composes the transposed maps.  Levels are built
    lazily.  A level of more than ``cap`` words must be the last one asked
    for: a shallower level past the cap raises BudgetError.
    """
    lin = ifs.linear_stack()
    if transpose:
        lin = np.transpose(lin, (0, 2, 1))
    map_dets = np.array([f.linear.det for f in ifs.maps])
    mats = np.eye(2)[None, :, :]
    dets = np.ones(1)
    for n in range(1, depth + 1):
        mats = _children(mats, lin)
        dets = np.multiply.outer(dets, map_dets).reshape(-1)
        if cap is not None and n < depth and mats.shape[0] > cap:
            raise BudgetError(
                f"word levels stop at depth {n} of {depth}: "
                f"{mats.shape[0]} words exceed the cap {cap}"
            )
        yield mats, dets


def word_products(ifs: IFS, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear parts and exact determinants for a (samples, n) array of
    0-based symbols, one product per row."""
    lin = ifs.linear_stack()
    map_dets = np.array([f.linear.det for f in ifs.maps])
    samples = words.shape[0]
    mats = np.broadcast_to(np.eye(2), (samples, 2, 2)).copy()
    dets = np.ones(samples)
    for k in range(words.shape[1]):
        mats = matmul_stack(mats, lin[words[:, k]])
        dets = dets * map_dets[words[:, k]]
    return mats, dets


def antichain(
    ifs: IFS, delta: float, budget: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Cylinders of the minimal antichain at ``alpha1 <= delta``.

    Returns the (n, 2, 2) linear parts and (n, 2) translations of the words
    w with alpha1(w) <= delta < alpha1(parent of w), level by level, each
    level in lexicographic order.  alpha1 strictly decreases along prefixes,
    so every infinite word has exactly one prefix in the antichain.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    limit = budget_limit(budget)
    lin = ifs.linear_stack()
    tr = ifs.translation_stack()

    mats = np.eye(2)[None, :, :]
    trans = np.zeros((1, 2))
    done_mats: list[np.ndarray] = []
    done_trans: list[np.ndarray] = []
    total = 0
    while True:
        done = alpha_pair_of_stack(mats)[0] <= delta
        n_done = int(np.count_nonzero(done))
        total += n_done
        if n_done == len(done):  # the whole level is done: no copy of it
            if not done_mats:
                return mats, trans
            return np.concatenate(done_mats + [mats]), np.concatenate(done_trans + [trans])
        active_m, active_t = mats, trans
        if n_done:
            done_mats.append(mats[done])
            done_trans.append(trans[done])
            active_m, active_t = mats[~done], trans[~done]
        n_active = active_m.shape[0]
        if total + n_active * ifs.kappa > limit:
            raise BudgetError(
                f"refinement would exceed budget {limit}; increase delta"
            )
        mats = _children(active_m, lin)
        trans = matvec_stack(active_m[:, None], tr)
        trans += active_t[:, None, :]  # in place: no second (n, kappa, 2) array
        trans = trans.reshape(-1, 2)


def attractor_cloud(ifs: IFS, delta: float, budget: int | None = None) -> PointCloud:
    """One anchor per cylinder of the ``alpha1 <= delta`` antichain.

    Every anchor lies in the attractor, and every attractor point is within
    alpha1 * diam(E) <= delta * diam(E) of some anchor.
    """
    mats, trans = antichain(ifs, delta, budget)
    # matmul rounds differently from matvec_stack; the cloud's bits keep it
    pts = mats @ ifs.anchor_point() + trans
    return PointCloud(pts, float(delta))


def symbolic_point(ifs: IFS, prefix: Sequence[int], depth: int) -> np.ndarray:
    """phi_w(p0) for w = prefix extended cyclically up to ``depth``.

    The result is within alpha1(w) * diam(E) of the coding-map image of the
    periodic word prefix^infinity.  An empty prefix pads with symbol 1.
    """
    w = _check_word(ifs, prefix)
    if depth < len(w):
        raise ValueError(f"depth {depth} shorter than prefix length {len(w)}")
    padded = cyclic_prefix(w if w else (1,), depth) if depth > 0 else ()
    cyl = cylinder(ifs, padded)
    return cyl.map(ifs.anchor_point())


def cyclic_prefix(stream: Sequence[int] | Iterable[int], n: int) -> Word:
    """First ``n`` symbols of a stream; finite sequences repeat cyclically."""
    if isinstance(stream, Sequence):
        if len(stream) == 0:
            raise ValueError("empty symbol stream")
        reps = -(-n // len(stream))
        return tuple(list(stream) * reps)[:n]
    out: list[int] = []
    it = iter(stream)
    for _ in range(n):
        try:
            out.append(int(next(it)))
        except StopIteration:
            from .errors import StreamExhaustedError

            raise StreamExhaustedError(f"stream ended before {n} symbols")
    return tuple(out)
