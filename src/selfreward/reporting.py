"""Run manifests, deterministic CSV output, and self-contained SVG plots.

Everything here is built for byte-for-byte reproducibility: fixed float
formatting, sorted JSON keys, no timestamps inside data files (wall-clock
lives only in the manifest, with the argv that ran).  A command writes each
report once, from the rows it holds: ``write_csv`` writes them and
``emit_plot`` draws the same rows.  ``csv`` writes a float by ``repr``,
which round-trips, so the file and the plot hold the same numbers.

Rows that end in a cycle repeated many times, as a closed loop's trace
does, can be held as ``TiledRows``: the stepped rows, where their cycle
starts and how many rows there are.  Both writers read such rows by the
cycle and write the bytes of the list of all the rows.  ``write_csv``
formats each cycle row once and writes each repeat as its row number and
that text.  ``emit_plot`` reads any rows column by column, with no tuple
per row, takes a ``TiledRows`` column from its cycle, and places and
formats each distinct y of a line once.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__


class TiledRows(Sequence):
    """Row tuples ``head``, then its cycle ``head[first:]`` repeated up to
    ``length`` rows, renumbered.

    Column 0 of each row is its index, so row ``s >= len(head)`` is
    ``(s, *head[first + (s - first) % period][1:])``, with ``period =
    len(head) - first``.  Rows with no cycle have ``length == len(head)``.
    It indexes, slices (to a list), iterates and takes ``len`` as the list
    of all its rows does, without holding that list.
    """

    __slots__ = ("head", "first", "length")

    def __init__(self, head, first: int, length: int):
        self.head = tuple(head)
        if not (0 <= first and len(self.head) <= length
                and (first < len(self.head) or length == len(self.head))):
            raise ValueError(f"no cycle from row {first} of {len(self.head)} "
                             f"fills {length} rows")
        self.first, self.length = first, length

    @property
    def cycle(self) -> tuple:
        """The head rows that repeat."""
        return self.head[self.first:]

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.length))]
        s = index.__index__()
        if s < 0:
            s += self.length
        if not 0 <= s < self.length:
            raise IndexError("TiledRows index out of range")
        if s < len(self.head):
            return self.head[s]
        period = len(self.head) - self.first
        return (s, *self.head[self.first + (s - self.first) % period][1:])

    def __iter__(self):
        yield from self.head
        if self.length > len(self.head):
            columns = list(zip(*self.cycle))[1:]
            yield from zip(range(len(self.head), self.length), *map(itertools.cycle, columns))

    def column(self, i: int) -> list:
        """Column ``i`` of every row."""
        column = list(map(operator.itemgetter(i), self.head))
        tiled = self.length - len(self.head)
        if tiled and i == 0:
            column.extend(range(len(self.head), self.length))
        elif tiled:
            column.extend(itertools.islice(itertools.cycle(column[self.first:]), tiled))
        return column


class _Echo:
    """A file whose ``write`` hands the text back: ``csv.writer(_Echo()).writerow``
    returns the line it would write."""

    @staticmethod
    def write(text: str) -> str:
        return text


def write_csv(path, header: list[str], rows) -> None:
    """Write the header and rows as csv writes them: a str as it is, a float
    (numpy's included) by repr, anything else by str, and None as an empty
    field.

    Of ``TiledRows``, the head is written row by row; each cycle row is
    formatted once, after its row number, and each repeat is written as its
    own row number and that text.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if not isinstance(rows, TiledRows):
            writer.writerows(rows)
            return
        writer.writerows(rows.head)
        if len(rows) == len(rows.head):  # no cycle, as of a fish that dies
            return
        # a row numbered 0 is written "0" and then the rest of its line
        line = csv.writer(_Echo(), writer.dialect).writerow
        tails = itertools.cycle([line((0, *row[1:]))[1:] for row in rows.cycle])
        steps = range(len(rows.head), rows.length)
        fh.write("".join([f"{s}{tail}" for s, tail in zip(steps, tails)]))


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


def _finite(xs: list, ys: list) -> tuple[list, list]:
    """The points (x, y) of the two columns with both coordinates finite."""
    if math.isfinite(sum(xs)) and math.isfinite(sum(ys)):  # an inf or a NaN makes its sum one
        return xs, ys
    keep = list(map(operator.and_, map(math.isfinite, xs), map(math.isfinite, ys)))
    return list(itertools.compress(xs, keep)), list(itertools.compress(ys, keep))


def _in_order(xs: list, ys: list) -> tuple[list, list]:
    """The points sorted by x, then y; a trace's steps are in order already."""
    if all(map(operator.lt, xs, itertools.islice(xs, 1, None))):
        return xs, ys
    points = sorted(zip(xs, ys))
    return [x for x, _ in points], [y for _, y in points]


def _polyline_points(xs: list, ys: list, px, py) -> str:
    """The pixel pairs "x,y" of the points, placed by ``px`` and ``py``.

    A long trace takes few distinct y, so each is placed and formatted once.
    Where no y repeats (a fish that starves), a point is one format call.
    """
    distinct = list(set(ys))  # 0.0 and -0.0 are one key; both land on one pixel
    if len(distinct) == len(ys):
        return " ".join(["%.2f,%.2f" % xy for xy in zip(px(xs), py(ys))])
    y_text = dict(zip(distinct, [",%.2f" % y for y in py(distinct)]))
    return " ".join(map(operator.add, ["%.2f" % x for x in px(xs)],
                        map(y_text.__getitem__, ys)))


def emit_plot(spec: PlotSpec, header: list[str], rows) -> Path:
    """Render columns of ``rows`` (rows under ``header``, as given to
    ``write_csv``) to a self-contained SVG; deterministic for fixed rows.

    Each point is ``float(x), float(y)``; the series label is the ``str`` of
    the series cell.  A column not in the header is a ValueError.
    """
    for col in (spec.x_column, spec.y_column, spec.series_column):
        if col is not None and col not in header:
            raise ValueError(f"{spec.output_svg}: missing column {col!r}")

    column = (rows.column if isinstance(rows, TiledRows)
              else lambda i: list(map(operator.itemgetter(i), rows)))
    xs = list(map(float, column(header.index(spec.x_column))))
    ys = list(map(float, column(header.index(spec.y_column))))
    if spec.series_column is None:
        groups = {"": (xs, ys)} if xs else {}
    else:
        groups = {}
        for key, x, y in zip(map(str, column(header.index(spec.series_column))), xs, ys):
            group_x, group_y = groups.setdefault(key, ([], []))
            group_x.append(x)
            group_y.append(y)
    # a non-finite point (say, the mean price of an auction with no sale) has
    # no place on the axes; its series keeps its label
    series = {key: _finite(*group) for key, group in groups.items()}

    all_x, all_y = [], []
    for series_x, series_y in series.values():
        all_x += series_x
        all_y += series_y
    all_x, all_y = all_x or [0.0, 1.0], all_y or [0.0, 1.0]  # no finite point
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
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
        xs, ys = _in_order(*series[key])
        if spec.kind == "line":
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{_polyline_points(xs, ys, px, py)}"/>')
        else:
            for x, y in zip(px(xs), py(ys)):
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
