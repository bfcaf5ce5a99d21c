"""Parameter round-trips, CSV determinism, manifests, SVG plots."""

import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selfreward import reporting
from selfreward.params import (
    ParamsError,
    load_params,
    save_params,
)
from selfreward.reporting import (
    PlotSpec,
    RunManifest,
    TiledRows,
    _fixed2,
    _numbered_text,
    emit_plot,
    write_csv,
)


def test_params_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {f"k/{i}": rng.normal(size=(3, 3)) for i in range(20)}
    assert sum(v.size for v in params.values()) == 180
    path = tmp_path / "p.json"
    save_params(path, params)
    loaded = load_params(path)
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].shape == params[name].shape
        np.testing.assert_array_equal(loaded[name], params[name])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(
    st.text(min_size=1, max_size=8),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
    max_size=4))
def test_params_roundtrip_any_names_shapes_and_floats(tmp_path, params):
    path = tmp_path / "p.json"
    save_params(path, params, meta={"scenario": "fish1d"})
    template = {name: np.zeros(arr.shape) for name, arr in params.items()}
    loaded = load_params(path, scenario="fish1d", template=template)
    assert loaded.keys() == params.keys()
    for name, arr in params.items():
        assert loaded[name].dtype == np.float64 and loaded[name].shape == arr.shape
        # bit for bit, signed zeros and subnormals included
        assert loaded[name].tobytes() == arr.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_non_finite_value_refused(tmp_path, value):
    # json writes NaN/Infinity and reads them back; load_params refuses them
    path = tmp_path / "p.json"
    save_params(path, {"ok": np.zeros(2), "w": np.array([[0.5, value]])})
    with pytest.raises(ParamsError, match="'w' holds a non-finite value"):
        load_params(path)


def test_params_truncated_file_reports_offset(tmp_path):
    path = tmp_path / "p.json"
    save_params(path, {"w": np.ones(3)})
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed parameter file at "
                                                   f"byte offset {len(text) // 2}: ")):
        load_params(path)


def test_params_unknown_version(tmp_path):
    path = tmp_path / "p.json"
    save_params(path, {"w": np.ones(2)})
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: unsupported parameter format_version 99, expected 1")):
        load_params(path)


def test_params_checked_against_scenario_and_template(tmp_path):
    path = tmp_path / "p.json"
    save_params(path, {"w": np.ones((2, 3))}, meta={"scenario": "fish1d"})
    template = {"w": np.zeros((2, 3))}
    assert load_params(path, scenario="fish1d", template=template)["w"].shape == (2, 3)
    with pytest.raises(ParamsError, match="scenario 'fish1d'"):
        load_params(path, scenario="lavaland")
    with pytest.raises(ParamsError, match="shape"):
        load_params(path, template={"w": np.zeros(6)})
    with pytest.raises(ParamsError, match="missing \\['b'\\]"):
        load_params(path, template={"w": np.zeros((2, 3)), "b": np.zeros(2)})
    # a document without meta.scenario is checked by its names alone
    save_params(path, {"w": np.ones((2, 3))})
    assert "w" in load_params(path, scenario="lavaland", template=template)


def test_params_not_a_document(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: not a parameter document (missing format_version)")):
        load_params(path)


@pytest.mark.parametrize("params, message", [
    ([], "'params' must be a JSON object, not list"),
    ("w", "'params' must be a JSON object, not str"),
    (None, "'params' must be a JSON object, not NoneType"),
])
def test_params_that_are_not_an_object_refused(tmp_path, params, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"format_version": 1, "params": params}))
    with pytest.raises(ParamsError, match=re.escape(f"{path}: {message}")):
        load_params(path)


def test_params_missing_refused(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"format_version": 1}))
    with pytest.raises(ParamsError, match="missing params"):
        load_params(path)


@pytest.mark.parametrize("values", [
    ["1"], [True], [0.5, False], [[0.5]], [None], 0.5, "0.5", {"0": 0.5},
])
def test_params_values_that_are_not_json_numbers_refused(tmp_path, values):
    path = tmp_path / "p.json"
    doc = {"format_version": 1, "params": {"w": {"shape": [1], "values": values}}}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsError,
                       match=re.escape(f"{path}: parameter 'w' values must be a list "
                                       "of JSON numbers")):
        load_params(path)


@pytest.mark.parametrize("shape", [
    2, [-1], [2, -1], [-2, -1], [True, 2], [2.0], [3], [1, 3], [], "2", None, {"0": 2},
])
def test_params_malformed_shape_refused(tmp_path, shape):
    """A shape is a list of non-negative integers whose product is the number
    of values; numpy's reshape would take 2, [-1], [2, -1] and [True, 2]."""
    path = tmp_path / "p.json"
    doc = {"format_version": 1, "params": {"w": {"shape": shape, "values": [0.5, 1.5]}}}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsError,
                       match=re.escape(f"{path}: parameter 'w' shape must be a list of "
                                       "non-negative integers whose product is its 2 values")):
        load_params(path, template={"w": np.zeros(2)})


@pytest.mark.parametrize("shape, values", [
    ([], [0.5]), ([0], []), ([2, 0, 3], []), ([1, 2], [0.5, 1.5]),
])
def test_params_well_formed_shapes_load(tmp_path, shape, values):
    path = tmp_path / "p.json"
    doc = {"format_version": 1, "params": {"w": {"shape": shape, "values": values}}}
    path.write_text(json.dumps(doc))
    assert load_params(path)["w"].shape == tuple(shape)


def test_params_integer_values_read_as_floats(tmp_path):
    path = tmp_path / "p.json"
    doc = {"format_version": 1, "params": {"w": {"shape": [2], "values": [1, -2]}}}
    path.write_text(json.dumps(doc))
    loaded = load_params(path)["w"]
    assert loaded.dtype == np.float64 and loaded.tolist() == [1.0, -2.0]
    # an integer too large for a double is refused, not raised as OverflowError
    doc["params"]["w"]["values"] = [1, 10 ** 400]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsError, match="bad parameter entry"):
        load_params(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_csv_roundtrip_and_determinism(tmp_path):
    rows = [[0, 0.1, "a"], [1, 0.2, "b"]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["i", "x", "s"], rows)
    write_csv(p2, ["i", "x", "s"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    header, *data = read_rows(p1)
    assert header == ["i", "x", "s"]
    assert data[0] == ["0", "0.1", "a"]


def test_write_csv_writes_each_cell_type_as_csv_does(tmp_path):
    rows = [
        [1.5, 2, "x", 0.1],
        [1e-300, -(10 ** 20), "y,z", -0.0],
        [math.nan, math.inf, "", 7],
        [True, False, "w", 2.0],
        [None, 3, "v", 0.5],                       # None is an empty field
        [np.float64(0.25), np.int64(4), "u", 1.0],
        (0.3, 1, "t", math.nan),                   # a tuple row
    ]
    write_csv(tmp_path / "out.csv", ["a", "b", "c", "d"], rows)
    assert (tmp_path / "out.csv").read_bytes() == (
        b"a,b,c,d\n"
        b"1.5,2,x,0.1\n"
        b'1e-300,-100000000000000000000,"y,z",-0.0\n'
        b"nan,inf,,7\n"
        b"True,False,w,2.0\n"
        b",3,v,0.5\n"
        b"0.25,4,u,1.0\n"
        b"0.3,1,t,nan\n")


def test_write_csv_writes_numpy_scalars_as_python_numbers(tmp_path):
    path = tmp_path / "np.csv"
    write_csv(path, ["x"], [[np.float64(0.25), np.int64(4)]])
    assert path.read_text(encoding="utf-8") == "x\n0.25,4\n"


def test_float_formatting_roundtrips(tmp_path):
    value = 0.1 + 0.2  # repr keeps the exact double
    path = tmp_path / "f.csv"
    write_csv(path, ["x"], [[value]])
    assert float(read_rows(path)[1][0]) == value


def test_manifest_contents(tmp_path):
    m = RunManifest(scenario="fish1d", preset="run", seed=7,
                    config={"steps": 10}, outputs=["trace.csv"])
    path = m.write(tmp_path)
    doc = json.loads(path.read_text())
    assert doc["scenario"] == "fish1d"
    assert doc["seed"] == 7
    assert doc["outputs"] == ["trace.csv"]
    assert "code_version" in doc


HEADER = ["x", "y", "grp"]


def test_plot_deterministic(tmp_path):
    rows = [[0, 1.0, "a"], [1, 2.0, "a"], [0, 3.0, "b"]]
    s1 = tmp_path / "p1.svg"
    s2 = tmp_path / "p2.svg"
    emit_plot(PlotSpec(x_column="x", y_column="y", series_column="grp",
                       output_svg=str(s1)), HEADER, rows)
    emit_plot(PlotSpec(x_column="x", y_column="y", series_column="grp",
                       output_svg=str(s2)), HEADER, rows)
    assert s1.read_bytes() == s2.read_bytes()
    body = s1.read_text()
    assert body.startswith("<svg")
    assert "http://www.w3.org/2000/svg" in body
    assert 'href' not in body  # self-contained: no external references


def test_plot_axis_labels_from_columns(tmp_path):
    out = tmp_path / "p.svg"
    emit_plot(PlotSpec(x_column="x", y_column="y", output_svg=str(out)),
              HEADER, [[0, 1.0, "a"]])
    body = out.read_text()
    assert ">x</text>" in body and ">y</text>" in body


def test_plot_missing_column_named(tmp_path):
    out = str(tmp_path / "p.svg")
    for spec in (PlotSpec(x_column="nope", y_column="y", output_svg=out),
                 PlotSpec(x_column="x", y_column="y", series_column="nope",
                          output_svg=out)):
        # with rows or without
        for rows in ([[0, 1.0, "a"]], []):
            with pytest.raises(ValueError, match="missing column 'nope'"):
                emit_plot(spec, HEADER, rows)
    assert not (tmp_path / "p.svg").exists()


def test_plot_empty_csv_gives_empty_axes(tmp_path):
    out = tmp_path / "p.svg"
    emit_plot(PlotSpec(x_column="x", y_column="y", output_svg=str(out)), HEADER, [])
    assert out.read_text().startswith("<svg")


def test_plot_scatter_kind(tmp_path):
    out = tmp_path / "p.svg"
    emit_plot(PlotSpec(x_column="x", y_column="y", output_svg=str(out), kind="scatter"),
              HEADER, [[0, 1.0, "a"], [1, 2.0, "a"]])
    assert "<circle" in out.read_text()


def test_plot_leaves_out_non_finite_points(tmp_path):
    # the first row's y is nan, as the mean price of an auction with no sale
    rows = [[0.25, float("nan"), "a"], [0.5, 2.0, "a"],
            [1.0, 4.0, "a"], [0.75, float("inf"), "b"]]
    out = tmp_path / "p.svg"
    emit_plot(PlotSpec(x_column="x", y_column="y", series_column="grp",
                       output_svg=str(out), kind="scatter"), HEADER, rows)
    body = out.read_text()
    assert "nan" not in body and "inf" not in body
    assert body.count("<circle") == 2
    # the axes span the finite points only: x from 0.5 to 1, y from 2 to 4
    ticks = re.findall(r">([^<]*)</text>", body)
    assert ticks[:10] == ["0.5", "0.625", "0.75", "0.875", "1",
                          "2", "2.5", "3", "3.5", "4"]
    assert ">b</text>" in body  # a series with no finite point keeps its label


def test_plot_of_one_value_past_two_to_the_53(tmp_path):
    # y_lo + 1.0 == y_lo there, so the span must not come from that sum
    out = tmp_path / "p.svg"
    emit_plot(PlotSpec(x_column="x", y_column="y", output_svg=str(out)),
              HEADER, [[0, 2.0 ** 53, "a"], [1, 2.0 ** 53, "a"]])
    assert 'points="64.00,374.00 620.00,374.00"' in out.read_text()


def reference_svg(spec, header, rows) -> str:
    """The SVG of ``emit_plot``, each point read, placed and formatted one
    value at a time, in Python floats and "%.2f"."""
    rows = list(rows)
    ix, iy = header.index(spec.x_column), header.index(spec.y_column)
    groups = {}
    for row in rows:
        key = "" if spec.series_column is None else str(row[header.index(spec.series_column)])
        groups.setdefault(key, []).append((float(row[ix]), float(row[iy])))
    series = {key: [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]
              for key, points in groups.items()}
    everything = [point for points in series.values() for point in points]
    all_x = [x for x, _ in everything] or [0.0, 1.0]
    all_y = [y for _, y in everything] or [0.0, 1.0]
    x_lo, x_hi, y_lo, y_hi = min(all_x), max(all_x), min(all_y), max(all_y)
    x_hi = x_lo + 1.0 if x_hi == x_lo else x_hi
    y_hi = y_lo + 1.0 if y_hi == y_lo else y_hi

    def axis(lo, hi, start, length):
        if math.isfinite(hi - lo):
            span = (hi - lo) or 1.0
            return lambda v: start + (v - lo) / span * length
        lo, span = lo / 2, hi / 2 - lo / 2
        return lambda v: start + (v / 2 - lo) / span * length

    W, H, ML, MR, MT, MB = 640, 420, 64, 20, 28, 46
    px, py = axis(x_lo, x_hi, ML, W - ML - MR), axis(y_lo, y_hi, H - MB, -(H - MT - MB))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" '
             'stroke="black" stroke-width="1"/>',
             f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" stroke="black" stroke-width="1"/>']
    for t in reporting._ticks(x_lo, x_hi):
        parts.append(f'<text x="{px(t):.1f}" y="{H - MB + 16}" font-size="10" '
                     f'text-anchor="middle">{t:.4g}</text>')
    for t in reporting._ticks(y_lo, y_hi):
        parts.append(f'<text x="{ML - 6}" y="{py(t):.1f}" font-size="10" '
                     f'text-anchor="end">{t:.4g}</text>')
    parts.append(f'<text x="{(ML + W - MR) / 2:.1f}" y="{H - 10}" font-size="12" '
                 f'text-anchor="middle">{spec.x_column}</text>')
    parts.append(f'<text x="14" y="{(MT + H - MB) / 2:.1f}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 14 {(MT + H - MB) / 2:.1f})">{spec.y_column}</text>')
    if spec.title:
        parts.append(f'<text x="{W / 2:.1f}" y="18" font-size="13" '
                     f'text-anchor="middle">{spec.title}</text>')
    for idx, key in enumerate(sorted(series)):
        color = reporting._SERIES_COLORS[idx % len(reporting._SERIES_COLORS)]
        points = series[key]
        if any(a[0] >= b[0] for a, b in zip(points, points[1:])):
            points = sorted(points)
        if spec.kind == "line":
            text = " ".join("%.2f,%.2f" % (px(x), py(y)) for x, y in points)
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                         f'points="{text}"/>')
        else:
            parts += [f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                      f'fill="{color}" fill-opacity="0.6"/>' for x, y in points]
        if key:
            parts.append(f'<text x="{W - MR - 4}" y="{MT + 14 + 14 * idx}" font-size="11" '
                         f'text-anchor="end" fill="{color}">{key}</text>')
    return "\n".join(parts) + "\n</svg>\n"


EXTREMES = st.sampled_from([-1e308, 1e308])  # their difference overflows a double


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6) | EXTREMES,
                               st.floats(width=64) | EXTREMES,
                               st.sampled_from(["a", "b", "c"])), max_size=20),
       kind=st.sampled_from(["line", "scatter"]))
def test_plot_of_rows_in_hand_matches_plot_of_the_csv(tmp_path, rows, kind):
    # csv writes each float by repr, so the text read back parses to the same
    # points and the plot keeps its bytes; a span past the largest double
    # (-1e308 to 1e308) still puts every point and tick at a finite place
    path = tmp_path / "data.csv"
    write_csv(path, HEADER, rows)
    header, *text_rows = read_rows(path)
    spec = PlotSpec(x_column="x", y_column="y", series_column="grp",
                    output_svg=str(tmp_path / "p.svg"), kind=kind)
    in_hand = emit_plot(spec, HEADER, rows).read_bytes()
    assert emit_plot(spec, header, text_rows).read_bytes() == in_hand
    assert b"nan" not in in_hand and b"inf" not in in_hand
    assert in_hand == reference_svg(spec, HEADER, rows).encode()


CELLS = (st.floats() | st.integers() | st.booleans() | st.none()
         | st.text(alphabet=",\"\n\r ab", max_size=3))


@st.composite
def tiled_rows(draw, cells=CELLS, width=st.integers(1, 4)):
    """TiledRows of ``width`` columns, their cycle (if any) from a drawn row."""
    n = draw(width)
    head = [(s, *draw(st.tuples(*[cells] * (n - 1))))
            for s in range(draw(st.integers(0, 6)))]
    if not head or draw(st.booleans()):
        return TiledRows(head, len(head), len(head))
    return TiledRows(head, draw(st.integers(0, len(head) - 1)),
                     draw(st.integers(len(head), 60)))


def test_tiled_rows_refuse_a_length_no_cycle_fills():
    with pytest.raises(ValueError):
        TiledRows([(0, "a")], 1, 5)
    with pytest.raises(ValueError):
        TiledRows([(0, "a"), (1, "b")], 0, 1)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=tiled_rows())
def test_tiled_rows_read_and_write_as_their_list(tmp_path, rows):
    period = len(rows.head) - rows.first
    want = [*rows.head, *[(s, *rows.head[rows.first + (s - rows.first) % period][1:])
                          for s in range(len(rows.head), len(rows))]]
    assert list(rows) == want and len(rows) == len(want)
    header = [f"c{i}" for i in range(len(want[0]) if want else 1)]
    write_csv(tmp_path / "tiled.csv", header, rows)
    write_csv(tmp_path / "list.csv", header, want)
    assert (tmp_path / "tiled.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=tiled_rows(st.floats(width=64) | st.integers(-5, 5) | EXTREMES, st.just(3)),
       series=st.booleans(), kind=st.sampled_from(["line", "scatter"]))
def test_tiled_rows_plot_as_their_list(tmp_path, rows, series, kind):
    spec = PlotSpec(x_column="x", y_column="y", series_column="grp" if series else None,
                    output_svg=str(tmp_path / "p.svg"), kind=kind)
    tiled = emit_plot(spec, HEADER, rows).read_bytes()
    assert emit_plot(spec, HEADER, list(rows)).read_bytes() == tiled
    assert tiled == reference_svg(spec, HEADER, rows).encode()


def fixed2_texts(values) -> list[str]:
    text = _fixed2(np.asarray(values, dtype=np.float64))
    return [bytes(column[column != reporting._PAD]).decode("ascii") for column in text.T]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(0, 2.0 ** 40, exclude_max=True)
                  | st.floats(0, 640) | st.integers(0, 64000).map(lambda c: c / 100)))
def test_fixed2_is_percent_2f(values):
    assert fixed2_texts(values) == ["%.2f" % v for v in values]


def test_fixed2_is_percent_2f_on_every_binary_tie_below_640():
    # k/8 is exact, and n + 1/8, 3/8, 5/8, 7/8 lie halfway between two cents
    values = np.arange(640 * 8 + 1) / 8
    assert fixed2_texts(values) == ["%.2f" % v for v in values]


def test_fixed2_is_percent_2f_a_ulp_either_side_of_each_half_cent_below_640():
    halves = (2 * np.arange(64000) + 1) / 200  # the double nearest n + 0.005
    values = np.concatenate([np.nextafter(halves, 0), halves, np.nextafter(halves, np.inf), [0.0]])
    assert fixed2_texts(values) == ["%.2f" % v for v in values]


def test_fixed2_edges_of_its_range():
    values = [0.0, 5e-324, 2.0 ** -9, np.nextafter(2.0 ** 40, 0), 2.0 ** 39 + 0.005]
    assert fixed2_texts(values) == ["%.2f" % v for v in values]
    assert fixed2_texts([]) == []


@pytest.mark.parametrize("value", [-0.0, -5e-324, -1.0, 2.0 ** 40, 1e300, math.inf, -math.inf,
                                   math.nan])
def test_fixed2_refuses_what_it_cannot_format(value):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*40\)"):
        _fixed2(np.array([1.0, value]))


@pytest.mark.parametrize("rows", [
    [[0.0, -0.0, "a"], [-0.0, 0.0, "a"], [1.0, -0.0, "b"], [-0.0, 2.0, "b"]],  # signed zeros
    [[-0.0, -0.0, "a"], [0.0, 0.0, "a"]],
    [[0.5, math.nan, "a"], [math.inf, 1.0, "a"], [1.0, 2.0, "a"], [2.0, -math.inf, "b"]],
    [[3, 1.0, "a"], [1, 2.0, "a"], [2, 0.5, "a"], [1, 1.5, "a"], [-1, 0.25, "b"]],  # x unsorted
    [[0, 2.0 ** 53, "a"], [1, 2.0 ** 53, "a"]],
    [[2.0 ** 60, 1.0, "a"], [2.0 ** 60 + 2.0 ** 8, -1e308, "a"], [1e308, 1e308, "b"]],
    [],
])
@pytest.mark.parametrize("series", [None, "grp"])
@pytest.mark.parametrize("kind", ["line", "scatter"])
def test_plot_points_are_placed_and_formatted_one_value_at_a_time(tmp_path, rows, series, kind):
    spec = PlotSpec(x_column="x", y_column="y", series_column=series,
                    output_svg=str(tmp_path / "p.svg"), kind=kind, title="t")
    assert emit_plot(spec, HEADER, rows).read_text() == reference_svg(spec, HEADER, rows)


@pytest.mark.parametrize("start", [0, 7, 95, 998, 9990])
@pytest.mark.parametrize("tails", [[b",a\n"], [b",1,eat,T\n", b",22,move,F\n", b"\n"],
                                   [",\u00e9%d\x00\xff\n".encode("utf-8")] * 2 + [b",\n"] * 5])
def test_numbered_text_is_each_row_number_and_its_tail(start, tails):
    for stop in (start, start + 1, start + 3, 10050):
        want = b"".join(b"%d" % s + tails[(s - start) % len(tails)] for s in range(start, stop))
        assert _numbered_text(start, stop, tails) == want
