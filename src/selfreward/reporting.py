"""Run manifests, deterministic CSV output, and self-contained SVG plots.

Everything here is built for byte-for-byte reproducibility: fixed float
formatting, sorted JSON keys, no timestamps inside data files (wall-clock
lives only in the manifest, with the argv that ran).  A command writes each
report once, from the rows it holds: ``write_csv`` writes them and
``emit_plot`` draws the same rows.  ``csv`` writes a float by ``repr``,
which round-trips, so the file and the plot hold the same numbers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from . import __version__


def write_csv(path, header: list[str], rows) -> None:
    """Write the header and rows as csv writes them: a str as it is, a float
    (numpy's included) by repr, anything else by str, and None as an empty
    field."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class RunManifest:
    """Self-describing record of one experiment run and the argv that ran it."""

    scenario: str
    preset: str | None
    seed: int
    config: dict
    outputs: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    argv: list = field(default_factory=list)
    code_version: str = __version__

    def write(self, out_dir) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "manifest.json"
        doc = {
            "scenario": self.scenario,
            "argv": list(self.argv),
            "preset": self.preset,
            "seed": self.seed,
            "config": self.config,
            "outputs": sorted(str(p) for p in self.outputs),
            "wall_clock_s": self.wall_clock_s,
            "code_version": self.code_version,
        }
        path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
        return path


@dataclass
class PlotSpec:
    """Declarative line/scatter plot of columns of a table."""

    x_column: str
    y_column: str
    output_svg: str
    series_column: str | None = None
    kind: str = "line"  # "line" or "scatter"
    title: str = ""


_SERIES_COLORS = ["#c02020", "#2040c0", "#208040", "#806020", "#703090", "#10a0a0"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 20, 28, 46


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    step = (hi - lo) / (n - 1)
    if not math.isfinite(step):  # a span past the largest double: weigh the two ends
        return [lo * (1 - i / (n - 1)) + hi * (i / (n - 1)) for i in range(n)]
    return [lo + i * step for i in range(n)]


def _axis(lo: float, hi: float, start: float, length: float):
    """The pixel position of each value in [lo, hi] on an axis from ``start``
    to ``start + length``."""
    if math.isfinite(hi - lo):
        span = (hi - lo) or 1.0  # past 2**53, lo + 1.0 == lo: keep a unit span
        return lambda vs: [start + (v - lo) / span * length for v in vs]
    lo, span = lo / 2, hi / 2 - lo / 2  # a span past the largest double: halve each value
    return lambda vs: [start + (v / 2 - lo) / span * length for v in vs]


def emit_plot(spec: PlotSpec, header: list[str], rows) -> Path:
    """Render columns of ``rows`` (a list of rows under ``header``, as given
    to ``write_csv``) to a self-contained SVG; deterministic for fixed rows.

    Each point is ``float(x), float(y)``; the series label is the ``str`` of
    the series cell.  A column not in the header is a ValueError.
    """
    for col in (spec.x_column, spec.y_column, spec.series_column):
        if col is not None and col not in header:
            raise ValueError(f"{spec.output_svg}: missing column {col!r}")

    xi, yi = header.index(spec.x_column), header.index(spec.y_column)
    if spec.series_column is None:
        groups = {"": rows} if rows else {}
    else:
        si = header.index(spec.series_column)
        groups = {}
        for row in rows:
            groups.setdefault(str(row[si]), []).append(row)
    get_x, get_y, isfinite = itemgetter(xi), itemgetter(yi), math.isfinite
    # a non-finite point (say, the mean price of an auction with no sale) has
    # no place on the axes; its series keeps its label
    series: dict[str, list[tuple[float, float]]] = {}
    for key, group in groups.items():
        points = zip(map(float, map(get_x, group)), map(float, map(get_y, group)))
        series[key] = [(x, y) for x, y in points if isfinite(x) and isfinite(y)]

    xs = [p[0] for pts in series.values() for p in pts] or [0.0, 1.0]
    ys = [p[1] for pts in series.values() for p in pts] or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    px = _axis(x_lo, x_hi, _ML, _W - _ML - _MR)
    py = _axis(y_lo, y_hi, _H - _MB, -(_H - _MT - _MB))  # y grows upward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
    ]
    x_ticks, y_ticks = _ticks(x_lo, x_hi), _ticks(y_lo, y_hi)
    for t, x in zip(x_ticks, px(x_ticks)):
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 16}" font-size="10" '
            f'text-anchor="middle">{t:.4g}</text>')
    for t, y in zip(y_ticks, py(y_ticks)):
        parts.append(
            f'<text x="{_ML - 6}" y="{y:.1f}" font-size="10" '
            f'text-anchor="end">{t:.4g}</text>')
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 10}" font-size="12" '
        f'text-anchor="middle">{spec.x_column}</text>')
    parts.append(
        f'<text x="14" y="{(_MT + _H - _MB) / 2:.1f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.1f})">'
        f'{spec.y_column}</text>')
    if spec.title:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="18" font-size="13" '
            f'text-anchor="middle">{spec.title}</text>')

    for idx, key in enumerate(sorted(series)):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        pts = sorted(series[key])
        svg_xy = zip(px([x for x, _ in pts]), py([y for _, y in pts]))
        if spec.kind == "line":
            coords = " ".join(["%.2f,%.2f" % xy for xy in svg_xy])
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{coords}"/>')
        else:
            for x, y in svg_xy:
                parts.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                    f'fill="{color}" fill-opacity="0.6"/>')
        if key:
            parts.append(
                f'<text x="{_W - _MR - 4}" y="{_MT + 14 + 14 * idx}" font-size="11" '
                f'text-anchor="end" fill="{color}">{key}</text>')

    parts.append("</svg>")
    out = Path(spec.output_svg)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out
