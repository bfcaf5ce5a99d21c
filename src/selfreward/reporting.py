"""Run manifests, deterministic CSV output, and self-contained SVG plots.

Everything here is built for byte-for-byte reproducibility: fixed float
formatting, sorted JSON keys (``params.write_document``), no timestamps
inside data files (wall-clock lives only in the manifest, with the argv that
ran).  A command writes each report once, from the rows it holds:
``write_csv`` writes them and ``emit_plot`` draws the same rows.  ``csv``
writes a float by ``repr``, which round-trips, so the file and the plot hold
the same numbers.

Rows that end in a cycle repeated many times, as a closed loop's trace
does, can be held as ``TiledRows``: the stepped rows, where their cycle
starts and how many rows there are.  Both writers read such rows by the
cycle and write the bytes of the list of all the rows.

How each writer formats:

- ``write_csv`` writes a list of rows, and the head of ``TiledRows``,
  through ``csv.writer``.  It formats each cycle row once, as the text after
  its row number, and writes all the repeats in one pass
  (``_numbered_text``): a matrix with one whole cycle of rows per line,
  whose tails are the same in every line, and whose row numbers' digits are
  written by array arithmetic.
- ``emit_plot`` reads the x and y columns as float64 arrays; a
  ``TiledRows`` column is its head and its tiled cycle.  It drops
  non-finite points, finds the ranges and checks the x order on the arrays,
  and places every point by the elementwise float operations of ``_axis``,
  so each pixel is the double that placing one value at a time gives.
  Polyline and circle coordinates are written by ``_fixed2``, all of a
  plot's x pixels in one call and all its y pixels in another, whatever
  the number of series; tick labels and other single numbers by Python
  formatting.

``_fixed2`` writes exactly the text of ``"%.2f" % v`` for each v in [0,
2**40), and refuses anything else; a pixel lies in [28, 620].  A double v
is m * 2**e with m an integer below 2**53, so 100 * v is 100m / 2**k
exactly, with k = -e >= 13 there and 100m below 2**60, which int64 holds.
The shift by k gives the floor of that fraction and the bits shifted out
its exact remainder, and rounding half to even on them gives the correctly
rounded integer that "%.2f" prints the digits of.  Past k = 62, v is below
2**-9 and prints as 0.00, which a shift of 62 gives too.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .params import write_document


class TiledRows:
    """Row tuples ``head``, then its cycle ``head[first:]`` repeated up to
    ``length`` rows, renumbered.

    Column 0 of each row is its index, so row ``s >= len(head)`` is
    ``(s, *head[first + (s - first) % period][1:])``, with ``period =
    len(head) - first``.  Rows with no cycle have ``length == len(head)``.
    It iterates and takes ``len`` as the list of all its rows does, and gives
    one column as an array (``column``), without holding that list.
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

    def __iter__(self):
        yield from self.head
        if self.length > len(self.head):
            columns = list(zip(*self.cycle))[1:]
            yield from zip(range(len(self.head), self.length), *map(itertools.cycle, columns))

    def column(self, i: int) -> np.ndarray:
        """Column ``i`` of every row, each cell as ``float`` reads it: the
        head's cells, then the row numbers (``i == 0``) or the cycle's cells
        tiled."""
        head = np.fromiter(map(float, map(operator.itemgetter(i), self.head)),
                           np.float64, len(self.head))
        tiled = self.length - len(self.head)
        if i == 0:
            tail = np.arange(len(self.head), self.length, dtype=np.float64)
        else:
            cycle = head[self.first:]
            tail = np.tile(cycle, -(-tiled // max(cycle.size, 1)))[:tiled]
        return np.concatenate([head, tail])


# Text columns: the text of row i of a table is column i of a uint8 matrix,
# its bytes top to bottom.  A column shorter than the matrix is padded with
# _PAD, a byte that UTF-8 never writes, and the padding is dropped when the
# columns are joined into one text.
_PAD = 0xFF


def _decimal(ints: np.ndarray, min_digits: int = 1) -> np.ndarray:
    """The decimal digits of each non-negative integer of ``ints``, at least
    ``min_digits`` of them, as text columns aligned to the bottom."""
    top = int(ints.max()) if ints.size else 0
    digits = max(min_digits, len(str(top)))
    text = np.empty((digits, ints.size), np.uint8)
    rest = ints.astype(np.int32) if top < 2 ** 31 else ints  # int32 divides faster
    for row in range(digits - 1, -1, -1):
        higher = rest // 10
        text[row] = rest - 10 * higher + ord("0")
        if row < digits - min_digits:  # a leading zero is no digit
            np.putmask(text[row], rest == 0, _PAD)
        rest = higher
    return text


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
    formatted once, after its row number, and every repeat is written in
    one pass by ``_numbered_text``.
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
        tails = [line((0, *row[1:]))[1:].encode("utf-8") for row in rows.cycle]
        fh.flush()  # the text so far, before the body's bytes
        fh.buffer.write(_numbered_text(len(rows.head), rows.length, tails))


def _numbered_text(start: int, stop: int, tails: list[bytes]) -> bytes:
    """The rows ``b"%d" % s + tails[(s - start) % len(tails)]`` for s in
    ``range(start, stop)``, concatenated.

    The rows whose numbers have k digits are made at once, in a matrix with
    one whole cycle of rows per line: every line holds the same tails, and
    each row's k digits sit in the same columns of every line.  The rows of
    the first and last lines that lie outside the k-digit numbers are cut.
    """
    period, pieces, low = len(tails), [], start
    while low < stop:
        k = len(str(low))
        high = min(stop, 10 ** k)
        ends = np.cumsum([0, *(k + len(tail) for tail in tails)])  # of each row in a line
        first = low - (low - start) % period  # the number of a line's first row
        lines = -(-(high - first) // period)
        matrix = np.empty((lines, ends[-1]), np.uint8)
        matrix[:] = np.frombuffer(b"".join(b"0" * k + tail for tail in tails), np.uint8)
        # the last k digits: the rows that are cut may have more or fewer
        digits = _decimal(np.arange(first, first + lines * period), k)[-k:]
        for digit, row in enumerate(digits):
            matrix[:, ends[:-1] + digit] = row.reshape(lines, period)
        begin, end = (line * ends[-1] + ends[row]
                      for line, row in (divmod(s - first, period) for s in (low, high)))
        pieces.append(matrix.reshape(-1)[begin:end])
        low = high
    return b"".join(pieces)


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
        write_document(path, {**asdict(self),
                              "outputs": sorted(str(p) for p in self.outputs)})
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
    to ``start + length``, as an array."""
    if math.isfinite(hi - lo):
        span = (hi - lo) or 1.0  # past 2**53, lo + 1.0 == lo: keep a unit span
        return lambda vs: start + (np.asarray(vs, dtype=np.float64) - lo) / span * length
    lo, span = lo / 2, hi / 2 - lo / 2  # a span past the largest double: halve each value
    return lambda vs: start + (np.asarray(vs, dtype=np.float64) / 2 - lo) / span * length


def _fixed2(values: np.ndarray) -> np.ndarray:
    """The text of ``"%.2f" % v`` for each v of ``values`` in [0, 2**40), as
    text columns; why it is exact is in the module docstring.  A value
    outside that range (-0.0, NaN and inf included) is a ValueError."""
    v = np.asarray(values, dtype=np.float64)
    if not np.all((v < 2.0 ** 40) & ~np.signbit(v)):  # NaN fails the first test
        raise ValueError("_fixed2 formats values in [0, 2**40) only")
    mantissa, exponent = np.frexp(v)
    scaled = (mantissa * 2.0 ** 53).astype(np.int64) * 100
    shift = np.minimum(53 - exponent.astype(np.int64), 62)
    # floor(scaled / 2**k) + 1 exactly when the remainder passes half, or
    # equals it on an odd floor
    cents = (scaled + ((1 << (shift - 1)) - 1 + ((scaled >> shift) & 1))) >> shift
    digits = _decimal(cents, 3)
    return np.concatenate([digits[:-2], np.full((1, v.size), ord("."), np.uint8), digits[-2:]])


def _points_text(pieces: tuple[str, str, str], x_text: np.ndarray,
                 y_text: np.ndarray) -> str:
    """Row i is ``pieces[0]``, column i of ``x_text``, ``pieces[1]``, that
    of ``y_text`` and ``pieces[2]``; the rows, concatenated.  The text
    columns are ``_fixed2``'s."""
    first, middle, last = (np.frombuffer(piece.encode("utf-8"), np.uint8)[:, None]
                           for piece in pieces)
    blocks = [first, x_text, middle, y_text, last]
    text = np.empty((sum(map(len, blocks)), x_text.shape[1]), np.uint8)
    top = 0
    for block in blocks:
        text[top:top + len(block)] = block
        top += len(block)
    return text.T.tobytes().replace(bytes([_PAD]), b"").decode("utf-8")


def _column(rows, i: int) -> np.ndarray:
    """Column ``i`` of ``rows``, each cell as ``float`` reads it."""
    if isinstance(rows, TiledRows):
        return rows.column(i)
    return np.fromiter(map(float, map(operator.itemgetter(i), rows)), np.float64)


def _finite(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points (x, y) of the two columns with both coordinates finite."""
    keep = np.isfinite(xs) & np.isfinite(ys)
    return (xs, ys) if keep.all() else (xs[keep], ys[keep])


def _in_order(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points sorted by x, then y; a trace's steps are in order already."""
    if np.all(xs[1:] > xs[:-1]):
        return xs, ys
    order = np.lexsort((ys, xs))  # stable, as sorted() on (x, y) pairs is
    return xs[order], ys[order]


def emit_plot(spec: PlotSpec, header: list[str], rows) -> Path:
    """Render columns of ``rows`` (rows under ``header``, as given to
    ``write_csv``) to a self-contained SVG; deterministic for fixed rows.

    Each point is ``float(x), float(y)``; the series label is the ``str`` of
    the series cell.  A column not in the header is a ValueError.
    """
    for col in (spec.x_column, spec.y_column, spec.series_column):
        if col is not None and col not in header:
            raise ValueError(f"{spec.output_svg}: missing column {col!r}")

    xs = _column(rows, header.index(spec.x_column))
    ys = _column(rows, header.index(spec.y_column))
    if spec.series_column is None:
        groups = {"": slice(None)} if xs.size else {}
    else:
        groups = {}
        keys = map(str, map(operator.itemgetter(header.index(spec.series_column)), rows))
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
    # a non-finite point (say, the mean price of an auction with no sale) has
    # no place on the axes; its series keeps its label
    series = {key: _finite(xs[index], ys[index]) for key, index in groups.items()}

    all_x = np.concatenate([np.empty(0), *(x for x, _ in series.values())])
    all_y = np.concatenate([np.empty(0), *(y for _, y in series.values())])
    if not all_x.size:  # no finite point
        all_x = all_y = np.array([0.0, 1.0])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
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

    keys = sorted(series)
    points = [_in_order(*series[key]) for key in keys]
    # each point lies in [lo, hi] on both axes, and the rounding of each
    # operation of _axis is monotonic, so its pixels lie on the plot area.
    # Every series' pixels are formatted in one _fixed2 call per axis, and
    # series i reads its own text columns.
    x_text = _fixed2(px(np.concatenate([np.empty(0), *(xs for xs, _ in points)])))
    y_text = _fixed2(py(np.concatenate([np.empty(0), *(ys for _, ys in points)])))
    ends = np.cumsum([0] + [xs.size for xs, _ in points]).tolist()
    for idx, key in enumerate(keys):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        cols = slice(ends[idx], ends[idx + 1])
        if spec.kind == "line":
            text = _points_text(("", ",", " "), x_text[:, cols], y_text[:, cols])[:-1]
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                         f'points="{text}"/>')
        elif ends[idx + 1] > ends[idx]:
            parts.append(_points_text(
                ('<circle cx="', '" cy="', f'" r="2.5" fill="{color}" fill-opacity="0.6"/>\n'),
                x_text[:, cols], y_text[:, cols])[:-1])
        if key:
            parts.append(
                f'<text x="{_W - _MR - 4}" y="{_MT + 14 + 14 * idx}" font-size="11" '
                f'text-anchor="end" fill="{color}">{key}</text>')

    parts.append("</svg>")
    out = Path(spec.output_svg)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out
