"""Words, cylinders, and finite-resolution attractor approximation.

A word is a plain tuple of symbols in 1..kappa; the empty tuple is the
identity cylinder.  The anchor point of a cylinder is the image of the
fixed point of map 1, which always lies inside the attractor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BadSymbolError, BudgetError, NotContractiveError, budget_limit
from .linalg2 import (
    AffineMap2,
    SingularData,
    alpha1_of_stack,
    compose,
    entries,
    matmul_stack,
    matvec_stack,
    singular_data,
)

Word = tuple[int, ...]

# attractor_cloud adds the gathered anchor images this many rows at a time
_CLOUD_BLOCK = 1 << 16
_MIX = np.uint64(0x9E3779B97F4A7C15)  # _distinct_rows' hash multiplier: 2^64 / golden ratio


@dataclass(frozen=True)
class IFS:
    """An ordered tuple of contractive invertible affine maps.

    Every matrix and translation entry must be finite (ValueError
    otherwise, naming the 1-based map), checked before the singular data.
    """

    maps: tuple[AffineMap2, ...]

    def __post_init__(self) -> None:
        if len(self.maps) < 1:
            raise ValueError("IFS needs at least one map")
        for k, f in enumerate(self.maps):
            m = f.linear
            # NaN passes every comparison below and would hang the refiners
            if not all(map(math.isfinite, (m.a11, m.a12, m.a21, m.a22, *f.translation))):
                raise ValueError(f"map {k + 1}: entries must be finite numbers")
            sd = singular_data(m)
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

    def invariant_ball(self) -> tuple[np.ndarray, float, float]:
        """``(x0, s, d0)``: map 1's fixed point x0, the largest alpha1 s and
        d0 = max_i |phi_i(x0) - x0|.  The ball B(x0, d0 / (1 - s)) maps into
        itself, so it contains the attractor."""
        x0 = self.anchor_point()
        s = max(singular_data(f.linear).alpha1 for f in self.maps)
        d0 = max(float(np.hypot(*(f(x0) - x0))) for f in self.maps)
        return x0, s, d0


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

    @functools.cached_property
    def ends(self) -> np.ndarray:
        """``_column_ends`` of a non-empty cloud's points, found once: each
        rasterization of the cloud starts from them.  Nothing writes a
        cloud's points in place."""
        return _column_ends(self.points)


# rows per block of _column_ends: a block is one contiguous row of 1024 entries
_END_BLOCK = 512


def _column_ends(data: np.ndarray) -> np.ndarray:
    """(2, 2) array of the smallest (row 0) and largest (row 1) entry of each
    column of non-empty (n, 2) data.  A min over axis 0 of an (n, 2) array,
    or of one of its columns, is a slow strided reduce; so the whole blocks
    of ``_END_BLOCK`` rows reduce as rows of 2 * _END_BLOCK entries along
    axis 0 (contiguous inner loops), and the column extremes come from those
    partial extremes and the tail rows.  The extremes are exact; only the
    sign of a zero extreme may follow the reduction order."""
    whole = len(data) - len(data) % _END_BLOCK
    part = data[whole:]
    if whole:
        blocks = data[:whole].reshape(-1, 2 * _END_BLOCK)
        extremes = [blocks.min(axis=0), blocks.max(axis=0)]
        part = np.concatenate([part, *(e.reshape(-1, 2) for e in extremes)])
    x, y = part[:, 0], part[:, 1]
    return np.array([[x.min(), y.min()], [x.max(), y.max()]])


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
    out = np.empty((len(mats), len(lin), 2, 2))
    # one map at a time: each loop runs over the parents' whole entry columns
    for i, a in enumerate(lin):
        matmul_stack(entries(mats), entries(a), entries(out[:, i]))
    return out.reshape(-1, 2, 2)


def word_levels(
    ifs: IFS, depth: int, transpose: bool = False, cap: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Distinct products A_w and exact factor-determinant products, per level.

    Yields ``(mats, dets)`` for lengths 1..depth: each distinct (product,
    det) by bits, in order of first occurrence over the lexicographic words;
    ``transpose`` composes the transposed maps.  A level is built lazily as
    the children of the last one's rows (equal rows have equal children).
    A level that builds more than ``cap`` products must be the last one
    asked for: a shallower one raises BudgetError."""
    lin = ifs.linear_stack()
    if transpose:
        lin = np.transpose(lin, (0, 2, 1))
    map_dets = np.array([f.linear.det for f in ifs.maps])
    mats = np.eye(2)[None, :, :]
    dets = np.ones(1)
    for n in range(1, depth + 1):
        built = len(dets) * ifs.kappa
        if cap is not None and n < depth and built > cap:
            raise BudgetError(
                f"word levels stop at depth {n} of {depth}: "
                f"{built} products exceed the cap {cap}"
            )
        mats = _children(mats, lin)
        dets = np.multiply.outer(dets, map_dets).reshape(-1)
        first = _distinct_rows(mats, dets)[0]
        if len(first) < len(dets):
            mats, dets = mats[first], dets[first]
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
        kids = np.empty_like(mats)
        matmul_stack(entries(mats), entries(lin[words[:, k]]), entries(kids))
        mats = kids
        dets = dets * map_dets[words[:, k]]
    return mats, dets


def _distinct_rows(*stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, which)``: the first row k of each distinct row (entry k of
    every float stack), in order of first occurrence, and each row's
    position in ``first``.  Rows are equal when their bits are (0.0 and -0.0
    differ), so a kernel run on the ``first`` rows gives every row the bits
    its own call would give."""
    # math.prod, not -1: reshape cannot infer the row width of an empty stack
    rows = (s.reshape(len(s), math.prod(s.shape[1:])) for s in stacks)
    cols = [c.view(np.uint64) for r in rows for c in r.T]
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for c in cols:  # a multiply-xorshift hash of each row's bits
        h ^= c
        h *= _MIX
        h ^= h >> np.uint64(29)
    # return_index sorts stably: each class's index is its first row
    _, first, which = np.unique(h, return_index=True, return_inverse=True)
    if not all(np.array_equal(c, c[first[which]]) for c in cols):
        # two distinct rows share a hash: classes of the bits themselves
        keys = np.stack(cols, axis=1).view(np.dtype((np.void, 8 * len(cols))))
        _, first, which = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[which]


def _child_rows(index: np.ndarray, n_parts: int, part_of: np.ndarray) -> np.ndarray:
    """Table rows of the children of cylinders in table rows ``index``:
    child i of row r is row r * n_parts + part_of[i] of the next table."""
    base = index * n_parts
    out = np.empty((len(index), len(part_of)), dtype=np.intp)
    for i, part in enumerate(part_of):  # a column at a time: no broadcast loop
        np.add(base, part, out=out[:, i])
    return out.reshape(-1)


def _anchor_images(table: np.ndarray, rows: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """The images of ``anchor`` under the products in columns ``rows`` of an
    entry-column table, as (rows, 2).  A row of table.T is its product
    row-major, so the gathered rows as (2 rows, 2) are one matrix-vector
    product; it rounds like the stacked matmul of the (rows, 2, 2) products
    (tests/test_linalg2.py checks it), and that rounding, unlike
    matvec_stack's, is the cloud's."""
    return (table.T[rows].reshape(-1, 2) @ anchor).reshape(-1, 2)


def attractor_cloud(ifs: IFS, delta: float) -> PointCloud:
    """One anchor per cylinder of the minimal antichain at ``alpha1 <= delta``.

    The cylinders are the words w with alpha1(w) <= delta < alpha1(parent
    of w), level by level, each level in lexicographic order.  alpha1
    strictly decreases along prefixes, so every infinite word has exactly
    one prefix in the antichain.  Every anchor lies in the attractor, and
    every attractor point is within alpha1 * diam(E) <= delta * diam(E) of
    some anchor.

    alpha1 depends only on the linear part, so each level refines one
    product per distinct linear word, in one of three layouts: one row per
    cylinder when every map has its own linear part; one product per level
    and no row index when every map shares one (a level's cylinders are all
    done or all active, and each map's image is broadcast); and a row index
    from cylinders to products when some maps share a part.  The products
    are held as one (4, rows) array of entry columns (a11, a12, a21, a22),
    so alpha1 and each map's children are loops over contiguous columns.
    Translations are complex columns x + iy, so each map's child
    translations are one column add (a complex add is the two real adds).
    Each level's anchors are placed as it finishes, the linear image of map
    1's fixed point once per distinct product, a block of rows at a time.
    The active budget (``budget_limit``) counts cylinders, not products:
    BudgetError when the done cylinders and the next level's would exceed
    it.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    limit = budget_limit()
    anchor = ifs.anchor_point()
    tr = ifs.translation_stack()
    # distinct linear parts: their products have the bits of the maps' own
    lin = ifs.linear_stack()
    first, part_of = _distinct_rows(lin)
    parts = lin[first]
    one_product = len(parts) == 1

    # table[:, r] holds the entries of row r's product, the identity first;
    # index[k] is cylinder k's row of table; every row has a cylinder
    table = np.eye(2).reshape(4, 1)
    index = np.zeros(1, dtype=np.intp) if 1 < len(parts) < ifs.kappa else None
    trans = np.zeros(1, dtype=complex)
    chunks: list[np.ndarray] = []
    total = 0
    while True:
        row_done = alpha1_of_stack(table) <= delta
        if one_product:
            if row_done[0]:  # every cylinder is done: one image for all
                trans += _anchor_images(table, [0], anchor).view(complex)[0, 0]
                chunks.append(trans)
                break
        elif row_done.any():  # else the level is refined as it is, with no copy
            done = row_done if index is None else np.take(row_done, index)
            n_done = int(np.count_nonzero(done))
            total += n_done
            last = n_done == len(done)
            # a level that is all done is used as it is; else a row's
            # cylinders are all done or all active
            pts = trans if last else trans[done]
            xy = pts.view(float).reshape(-1, 2)
            # the images are added to the translations in place (the sum
            # commutes, so the bits are those of images + translations)
            rows = np.flatnonzero(row_done)
            if index is None:  # one row per cylinder, a block at a time
                for lo in range(0, len(rows), _CLOUD_BLOCK):
                    block = slice(lo, lo + _CLOUD_BLOCK)
                    xy[block] += _anchor_images(table, rows[block], anchor)
            else:
                images = _anchor_images(table, rows, anchor)
                # gathered a block of rows at a time: no second per-cylinder array
                at = index if last else np.take(np.cumsum(row_done) - 1, index[done])
                for lo in range(0, len(at), _CLOUD_BLOCK):
                    block = slice(lo, lo + _CLOUD_BLOCK)
                    xy[block] += np.take(images, at[block], axis=0)
            chunks.append(pts)
            if last:
                break
            keep = np.flatnonzero(~row_done)
            table = np.take(table, keep, axis=1)
            if index is None:
                trans = trans[keep]
            else:
                active = np.flatnonzero(~done)
                trans = trans[active]
                index = np.take(np.cumsum(~row_done) - 1, np.take(index, active))
        if total + len(trans) * ifs.kappa > limit:
            raise BudgetError(
                f"refinement would exceed budget {limit}; increase delta"
            )
        # each map's images of its translation under the rows' products, as
        # complex columns: one map at a time, each loop over a whole column
        images = np.empty((table.shape[1], ifs.kappa), dtype=complex)
        xy = images.view(float)
        for i, t in enumerate(tr):
            matvec_stack(table, t, xy[:, 2 * i : 2 * i + 2].T)
        if index is not None:
            images = np.take(images, index, axis=0)
            index = _child_rows(index, len(parts), part_of)
        # in place when every cylinder has its row of images; one broadcast
        # image per map when the level has one product
        kids = images if len(images) == len(trans) else np.empty((len(trans), ifs.kappa), complex)
        for i in range(ifs.kappa):
            np.add(images[:, i], trans, out=kids[:, i])
        trans = kids.reshape(-1)
        children = np.empty((4, table.shape[1], len(parts)))
        for j, part in enumerate(parts):
            matmul_stack(table, entries(part), children[:, :, j])
        table = children.reshape(4, -1)
    pts = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return PointCloud(pts.view(float).reshape(-1, 2), float(delta))


def cyclic_prefix(stream: Sequence[int], n: int) -> Word:
    """First ``n`` symbols of a finite stream repeated cyclically."""
    if len(stream) == 0:
        raise ValueError("empty symbol stream")
    reps = -(-n // len(stream))
    return tuple(list(stream) * reps)[:n]
