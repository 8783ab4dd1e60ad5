"""Run reports and CSV/JSON/SVG emission.

Reports are plain dict trees with deterministic content for fixed inputs
and seed: lists are explicitly ordered, floats use repr, and wall-clock
timings go to a sidecar file so the main artifact stays byte-identical
across reruns.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np


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
    path = Path(path)
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


def write_json(path: str | Path, obj: Any) -> None:
    data = json.dumps(_plain(obj), indent=2) + "\n"
    atomic_write_bytes(path, data.encode())


def write_report(report: RunReport, path: str | Path) -> None:
    """Deterministic report plus a timing sidecar next to it."""
    write_json(path, report.payload())
    if report.timings:
        side = Path(path).with_suffix(".timings.json")
        write_json(side, _plain(report.timings))


def write_csv(
    path: str | Path, header: Sequence[str], rows: np.ndarray | Sequence[Sequence]
) -> None:
    """RFC 4180 CSV with CRLF lines; floats are written as their repr.

    A 2-D numeric ndarray is formatted a column at a time, which writes the
    same bytes as ``csv.writer`` over its rows: numbers never need quoting.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(list(header))
    if isinstance(rows, np.ndarray):
        cols = [map(str, rows[:, k].tolist()) for k in range(rows.shape[1])]
        buf.writelines(line + "\r\n" for line in map(",".join, zip(*cols)))
    else:
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    atomic_write_bytes(path, buf.getvalue().encode())


def _fmt(v: Any) -> Any:
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


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
