"""Run reports and CSV/JSON/SVG emission.

Reports are plain dict trees with deterministic content for fixed inputs
and seed: lists are explicitly ordered, floats use repr, and wall-clock
timings go to a sidecar file so the main artifact stays byte-identical
across reruns.  CSV tables of float64 arrays get repr's bytes from
``_float_fields``, which computes the digits from the bits with uint64
array arithmetic instead of calling repr once per float.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

# write_csv formats this many rows at a time, so a long table never holds a
# Python object for each of its fields at once, and a float column's
# temporaries stay a few hundred KB (the fastest size on a 2-core Xeon VM
# with 48 KB L1d and 2 MB L2 per core)
CSV_CHUNK_ROWS = 8192


@dataclass
class RunReport:
    command: str
    params: dict
    results: dict = field(default_factory=dict)
    assertions: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def add_assertion(self, name: str, passed: bool, detail: str) -> None:
        self.assertions.append(
            {"name": name, "passed": bool(passed), "detail": detail}
        )

    @contextmanager
    def stage(self, key: str):
        """Time the block into ``timings[key]``, in wall seconds; a block
        that raises records nothing."""
        t0 = time.perf_counter()
        yield
        self.timings[key] = time.perf_counter() - t0

    @property
    def all_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def payload(self) -> dict:
        return {
            "command": self.command,
            "params": _plain(self.params),
            "results": _plain(self.results),
            "assertions": _plain(self.assertions),
        }


def _plain(obj: Any) -> Any:
    """JSON-safe copy with deterministic ordering."""
    if isinstance(obj, dict):
        return {str(k): _plain(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file beside it and one
    rename.  A failure removes the temporary file; an OSError is raised again
    with ``path`` as its filename, whichever step failed."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def write_json(path: str | Path, obj: Any) -> None:
    data = json.dumps(_plain(obj), indent=2) + "\n"
    atomic_write_bytes(path, data.encode())


def write_report(report: RunReport, path: str | Path) -> None:
    """Deterministic report plus a timing sidecar next to it."""
    write_json(path, report.payload())
    if report.timings:
        write_json(Path(path).with_suffix(".timings.json"), report.timings)


def write_csv(
    path: str | Path, header: Sequence[str], rows: np.ndarray | Sequence[Sequence]
) -> None:
    """RFC 4180 CSV with CRLF lines; every field is a number or empty.

    ``rows`` is a 2-D numeric ndarray or a sequence of rows of numbers and
    ``""``.  Every number is written as its repr (``str`` of a numpy scalar
    is the same text), so no field and no header name ever needs quoting.
    A float64 array is formatted by ``_float_fields`` a column at a time;
    any other table through ``str``, a column at a time.  The rows are
    formatted CSV_CHUNK_ROWS at a time into one buffer, written and renamed
    once.
    """
    data = bytearray((",".join(header) + "\r\n").encode())
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        for k in range(0, len(rows), CSV_CHUNK_ROWS):
            data += _float_lines(rows[k : k + CSV_CHUNK_ROWS].reshape(-1, len(header)))
    else:
        for k in range(0, len(rows), CSV_CHUNK_ROWS):
            cols = np.asarray(rows[k : k + CSV_CHUNK_ROWS], dtype=object).reshape(-1, len(header)).T
            lines = map(",".join, zip(*(map(str, col.tolist()) for col in cols)))
            data += "".join(line + "\r\n" for line in lines).encode()
    atomic_write_bytes(path, data)


def _float_lines(block: np.ndarray) -> bytes:
    """The CSV lines of a float64 block: each field a ``_float_fields``
    field, with its separator or line end in the bytes it leaves NUL."""
    fields = np.empty((len(block), block.shape[1], 4), np.uint64)
    for j in range(block.shape[1]):
        fields[:, j] = _float_fields(np.ascontiguousarray(block[:, j]))
    fields[:, 1:, 0] |= np.uint64(ord(","))
    fields[:, -1, 3] |= np.uint64(int.from_bytes(b"\r\n", "little") << 48)
    text = fields.astype("<u8", copy=False).view(np.uint8)
    return text[text != 0].tobytes()


# ---------------------------------------------------------------------------
# Float fields: repr's text from the bits
#
# repr of a float is the shortest decimal that rounds back to it, the closest
# such decimal when there are several, ties to even; in fixed notation when
# its decimal exponent is -4 ... 15.  _float_fields derives those digits from
# the bits with uint64 arithmetic (Schubfach; R. Giulietti, "The Schubfach way
# to render doubles", 2020) and lays the text out in bytes; repr formats the
# rest (zeros, subnormals, nan, inf and exponent notation).

# the biased binary exponents (a range) of the doubles in [2^-14, 2^54):
# every double that repr writes in fixed notation is one of them
_FIXED_BQ = (1009, 1077)
_M32 = np.uint64(2**32 - 1)
_M52 = np.uint64(2**52 - 1)
_M63 = np.uint64(2**63 - 1)
_ONE_BITS = np.float64(1.0).view(np.uint64)


@functools.cache
def _scaling_tables() -> tuple[int, np.ndarray, np.ndarray]:
    """``(k0, kh, g)``, built exactly from Python ints on the first call.

    A double ``c * 2**q`` is scaled by ``10**-k``, k = floor(log10(w)) for w
    the width of its rounding interval: ``2**q``, or ``3/4 * 2**q`` when its
    significand bits are all zero (``irr``).  For the biased exponent ``bq``
    (q = bq - 1075), column ``irr * len(range(*_FIXED_BQ)) + bq -
    _FIXED_BQ[0]`` of ``kh`` holds k and the shift ``h = q + r + 127``.
    Column ``k - k0`` of ``g`` holds the limbs ``g1, g1 >> 32, g1 & M32,
    g0 >> 32, g0 & M32`` of k's one 126-bit entry ``g = g1 * 2**63 + g0 =
    floor(10**-k * 2**-r) + 1``."""
    from fractions import Fraction  # imported on first use, not with the package

    def floor_log(x: Fraction, base: int) -> int:
        n = math.floor(math.log(x.numerator, base) - math.log(x.denominator, base))
        while Fraction(base) ** n > x:
            n -= 1
        while Fraction(base) ** (n + 1) <= x:
            n += 1
        return n

    q = np.arange(*_FIXED_BQ) - 1075
    k = [floor_log(Fraction(4 - irr, 4) * Fraction(2) ** int(e), 10) for irr in (0, 1) for e in q]
    k0 = min(k)
    limbs, r = [], []
    for kk in range(k0, max(k) + 1):
        r.append(floor_log(Fraction(10) ** -kk, 2) - 125)
        g = math.floor(Fraction(10) ** -kk / Fraction(2) ** r[-1]) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        limbs.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    k = np.array(k)
    kh = np.stack([k, np.tile(q, 2) + np.array(r)[k - k0] + 127])
    return k0, kh, np.array(limbs, dtype=np.uint64).T.copy()


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of a * b for a < 2**63 and b < 2**60 given as
    32-bit limbs; no partial sum wraps."""
    mid = a_hi * b_lo + a_lo * b_hi + (a_lo * b_lo >> 32)
    return a_hi * b_hi + (mid >> 32)


def _rop(g, cp):
    """g * cp / 2**127 rounded to odd: the floor, with its lowest bit set
    when the quotient is inexact (Giulietti, section 9.9)."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & _M32
    z = (g1 * cp >> 1) + _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    return _mulhi(g1_hi, g1_lo, cp_hi, cp_lo) + (z >> 63) | ((z & _M63) != 0)


def _shortest(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, k)`` of the positive doubles with bits ``mag``, each in
    _FIXED_BQ: f * 10**k is the shortest decimal that rounds to the double,
    the closest such when there are several, ties to even.  f has 16 or 17
    digits and may end in zeros."""
    k0, kh, g = _scaling_tables()
    t = mag & _M52
    irr = t == 0
    col = (mag >> 52).astype(np.intp) - _FIXED_BQ[0] + (_FIXED_BQ[1] - _FIXED_BQ[0]) * irr
    k, h = np.take(kh, col, axis=1)
    g = np.take(g, k - k0, axis=1)
    h = h.astype(np.uint64)
    c = t | np.uint64(2**52)
    out = c & 1  # an odd significand's interval excludes its ends
    cb = c << 2
    vb = _rop(g, cb << h)
    lower = _rop(g, (cb - 2 + irr) << h) + out
    upper = _rop(g, (cb + 2) << h) - out
    s = vb >> 2
    sp10 = s // 10 * 10
    # one of the multiples of 10**(k + 1) next to the value in the interval:
    # it is the only shortest decimal there
    upin = lower <= sp10 << 2
    tenth = upin != (sp10 + 10 << 2 <= upper)
    # else the nearer of s and s + 1 in the interval, ties to even
    uin = lower <= s << 2
    win = s + 1 << 2 <= upper
    mid = (s << 2) + 2
    nearer_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & 1 == 0)))
    f = np.where(tenth, sp10 + 10 - 10 * upin.astype(np.uint64), s + 1 - nearer_s)
    return f, k


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """The byte tables of ``_fixed_fields``, as little-endian words.

    ``digits[g]``: g < 10**4 as four ASCII digits; ``last[g]``: the index
    of its last nonzero digit (-16 for 0); ``prefix[20 * neg + e + 4]``:
    word 0 of a field of decimal exponent e; ``masks[:, :, 17 * (e + 4) +
    kept]``: the shift, keep and dot masks of its four words."""
    four = "".join(f"{g:04d}" for g in range(10**4)).encode()
    digits = np.frombuffer(four, dtype="<u4").astype(np.uint64)
    nonzero = np.frombuffer(four, dtype=np.uint8).reshape(-1, 4) != ord("0")
    last = np.where(nonzero.any(axis=1), 3 - nonzero[:, ::-1].argmax(axis=1), -16)

    def words(text):
        return np.frombuffer(text, dtype="<u8").astype(np.uint64).reshape(-1, 4)

    heads = [
        ("-" * neg + ("0." + "0" * (-e - 1) if e < 0 else "")).rjust(8 if e < 0 else 7, "\0")
        for neg in (0, 1) for e in range(-4, 16)
    ]  # adjacent to d0: byte 8, or byte 7 once the integer digits shift
    prefix = words("".join(h.ljust(32, "\0") for h in heads).encode())[:, 0]
    # shift: bytes 7 ... 7 + e take the byte above them (the integer digits
    # move down); keep: the digits that stay, up to d(kept); dot: byte 8 + e
    e, kept, b = np.ogrid[-4:16, 0:17, 0:32]
    masks = [
        255 * ((e >= 0) & (7 <= b) & (b <= 7 + e)),
        255 * ((np.where(e >= 0, 9 + e, 8) <= b) & (b <= 8 + kept)),
        ord(".") * ((e >= 0) & (b == 8 + e)),
    ]
    masks = np.stack([words(np.broadcast_to(m, (20, 17, 32)).astype(np.uint8).tobytes()).T for m in masks])
    return digits, last, prefix, masks


def _fixed_fields(f: np.ndarray, e: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """(4, n) uint64: the repr of ``f * 10**(e - 16)``, f of 17 digits and e
    in -4 ... 15, negated where ``neg``, as 32 little-endian bytes:

    - bytes 1-7: the sign and, for e < 0, ``0.`` and -e - 1 zeros, ending next
      to d0;
    - bytes 8-24: the digits d0 ... d16, but that for e >= 0 d0 ... de move
      down one byte and ``.`` takes byte 8 + e;
    - the digits past the last nonzero one, or past d(e + 1), are NUL.

    Byte 0 and bytes 25-31 are NUL."""
    digits, last, prefix, masks = _text_tables()
    f = f.astype(np.int64)
    top = f // 10**9
    bot = f - top * 10**9
    mid = bot // 10
    hi = np.stack([top // 10**4, mid // 10**4])
    groups = np.stack([hi[0], top - hi[0] * 10**4, hi[1], mid - hi[1] * 10**4])
    d16 = bot - mid * 10
    chars = digits[groups]
    body = np.stack([
        np.zeros_like(chars[0]), chars[0] | chars[1] << 32, chars[2] | chars[3] << 32,
        d16.astype(np.uint64) + ord("0"),
    ])
    # the index of the last nonzero digit (d0 is nonzero)
    lastnz = np.maximum((last[groups] + np.array([[0], [4], [8], [12]])).max(axis=0), 16 * (d16 != 0))
    shift, keep, dot = np.take(masks, 17 * (e + 4) + np.maximum(lastnz, e + 1), axis=2)
    shifted = body >> 8
    shifted[:-1] |= body[1:] << 56
    out = shifted & shift | body & keep | dot
    out[0] |= prefix[20 * neg + e + 4]
    return out


def _float_fields(x: np.ndarray) -> np.ndarray:
    """(n, 4) uint64 for a 1-D float64 ``x``: field i is ``repr(x[i])`` as
    NUL-padded little-endian bytes, from byte 1; bytes 0 and 30-31 are NUL."""
    bits = x.view(np.uint64)
    mag = bits & _M63
    fast = (mag >= np.uint64(_FIXED_BQ[0] << 52)) & (mag < np.uint64(_FIXED_BQ[1] << 52))
    # the other values run through the kernel as 1.0, and repr overwrites them
    f, k = _shortest(np.where(fast, mag, _ONE_BITS))
    short = f < 10**16
    e = k + 16 - short
    fixed = fast & (e >= -4) & (e <= 15)
    e = np.where(fixed, e, 0)
    fields = _fixed_fields(np.where(short, f * 10, f), e, (bits >> 63).astype(np.intp)).T
    slow = np.flatnonzero(~fixed)
    if slow.size:
        text = np.zeros((slow.size, 32), np.uint8)
        reprs = np.array([repr(v) for v in x[slow].tolist()], dtype="S24")  # a float's repr is <= 24
        text[:, 1:25] = reprs.view(np.uint8).reshape(-1, 24)
        fields[slow] = text.view("<u8")
    return fields


# ---------------------------------------------------------------------------
# SVG


def _svg_header(x0: float, y0: float, w: float, h: float) -> str:
    # y axis flipped so larger y draws upward
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="720" '
        f'height="720" viewBox="{x0} {y0} {w} {h}" '
        f'preserveAspectRatio="xMidYMid meet">\n'
        f'<g transform="translate(0,{2 * y0 + h}) scale(1,-1)">\n'
    )


_SVG_FOOTER = "</g>\n</svg>\n"


def svg_cells(
    path: str | Path,
    layers: Sequence[tuple[Any, str]],
) -> None:
    """Cell layers drawn back to front; each layer is (OccupancyGrid, color)."""
    x0 = y0 = np.inf
    x1 = y1 = -np.inf
    for grid, color in layers:
        if len(grid) == 0:
            continue
        origin = np.asarray(grid.origin)
        i, j = grid.cells[:, 0], grid.cells[:, 1]  # column extents: no strided axis-0 reduce
        lo = origin + np.array([i.min(), j.min()]) * grid.delta
        hi = origin + np.array([i.max() + 1, j.max() + 1]) * grid.delta
        x0, y0 = min(x0, lo[0]), min(y0, lo[1])
        x1, y1 = max(x1, hi[0]), max(y1, hi[1])
    if not np.isfinite([x0, y0, x1, y1]).all():
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    pad = 0.02 * max(x1 - x0, y1 - y0, 1e-9)
    parts = [_svg_header(x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)]
    for grid, color in layers:
        parts.append(f'<g fill="{color}" stroke="none">\n')
        parts.extend(_svg_rects(grid))
        parts.append("</g>\n")
    parts.append(_SVG_FOOTER)
    atomic_write_bytes(path, "".join(parts).encode())


def _svg_rects(grid: Any) -> list[str]:
    """The layer's ``<rect/>`` lines in cell order, split in x and y halves.

    Each distinct coordinate ``origin + index * delta`` is computed and
    formatted once; the lines are assembled by indexing those string tables.
    """
    d = grid.delta
    origin = np.asarray(grid.origin)
    affixes = [('<rect x="', '" y="'), ("", f'" width="{d}" height="{d}"/>\n')]
    halves = np.empty((len(grid), 2), dtype=object)
    for k, (head, tail) in enumerate(affixes):
        index, inverse = np.unique(grid.cells[:, k], return_inverse=True)
        coords = (origin[k] + index * d).tolist()
        halves[:, k] = np.array([head + str(c) + tail for c in coords], dtype=object)[inverse]
    return halves.ravel().tolist()


def svg_loglog(
    path: str | Path,
    scales: Sequence[float],
    counts: Sequence[int],
    slope: float,
    intercept: float,
) -> None:
    """log-log scatter of counts against 1/scale with the fitted line."""
    xs = [float(np.log(1.0 / s)) for s in scales]
    ys = [float(np.log(c)) for c in counts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    padx = 0.08 * max(x1 - x0, 1e-9)
    pady = 0.08 * max(y1 - y0, 1e-9)
    parts = [
        _svg_header(x0 - padx, y0 - pady, (x1 - x0) + 2 * padx, (y1 - y0) + 2 * pady)
    ]
    fit_pts = f"{x0},{slope * x0 + intercept} {x1},{slope * x1 + intercept}"
    parts.append(
        f'<polyline points="{fit_pts}" stroke="#888888" fill="none" '
        f'stroke-width="{0.01 * (x1 - x0 + 1e-9)}"/>\n'
    )
    r = 0.015 * max(x1 - x0, 1e-9)
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{x}" cy="{y}" r="{r}" fill="#135fa8"/>\n')
    parts.append(_SVG_FOOTER)
    atomic_write_bytes(path, "".join(parts).encode())
