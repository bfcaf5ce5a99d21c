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

from selfreward.params import (
    ParamsError,
    ParamsParseError,
    ParamsVersionError,
    load_params,
    save_params,
)
from selfreward.reporting import (
    ConfigError,
    PlotSpec,
    RunManifest,
    emit_plot,
    format_value,
    read_csv,
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
    with pytest.raises(ParamsParseError, match="byte offset"):
        load_params(path)


def test_params_unknown_version(tmp_path):
    path = tmp_path / "p.json"
    save_params(path, {"w": np.ones(2)})
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsVersionError):
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
    with pytest.raises(ParamsParseError):
        load_params(path)


@pytest.mark.parametrize("params, message", [
    ([], "'params' must be a JSON object, not list"),
    ("w", "'params' must be a JSON object, not str"),
    (None, "'params' must be a JSON object, not NoneType"),
])
def test_params_that_are_not_an_object_refused(tmp_path, params, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"format_version": 1, "params": params}))
    with pytest.raises(ParamsParseError, match=re.escape(f"{path}: {message}")):
        load_params(path)


def test_params_missing_refused(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"format_version": 1}))
    with pytest.raises(ParamsParseError, match="missing params"):
        load_params(path)


@pytest.mark.parametrize("values", [
    ["1"], [True], [0.5, False], [[0.5]], [None], 0.5, "0.5", {"0": 0.5},
])
def test_params_values_that_are_not_json_numbers_refused(tmp_path, values):
    path = tmp_path / "p.json"
    doc = {"format_version": 1, "params": {"w": {"shape": [1], "values": values}}}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsParseError,
                       match=re.escape(f"{path}: parameter 'w' values must be a list "
                                       "of JSON numbers")):
        load_params(path)


def test_params_integer_values_read_as_floats(tmp_path):
    path = tmp_path / "p.json"
    doc = {"format_version": 1, "params": {"w": {"shape": [2], "values": [1, -2]}}}
    path.write_text(json.dumps(doc))
    loaded = load_params(path)["w"]
    assert loaded.dtype == np.float64 and loaded.tolist() == [1.0, -2.0]
    # an integer too large for a double is refused, not raised as OverflowError
    doc["params"]["w"]["values"] = [1, 10 ** 400]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamsParseError, match="bad parameter entry"):
        load_params(path)


def test_csv_roundtrip_and_determinism(tmp_path):
    rows = [[0, 0.1, "a"], [1, 0.2, "b"]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["i", "x", "s"], rows)
    write_csv(p2, ["i", "x", "s"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    header, data = read_csv(p1)
    assert header == ["i", "x", "s"]
    assert data[0] == ["0", "0.1", "a"]


def test_write_csv_writes_the_bytes_of_the_per_cell_path(tmp_path):
    header = ["a", "b", "c", "d"]
    rows = [
        [1.5, 2, "x", 0.1],                        # builtin str, int, float only
        [1e-300, -(10 ** 20), "y,z", -0.0],
        [math.nan, math.inf, "", 7],
        [True, False, "w", 2.0],                   # bools
        [None, 3, "v", 0.5],
        [np.float64(0.25), np.int64(4), "u", 1.0],
        (0.3, 1, "t", math.nan),                   # a tuple row
    ]
    write_csv(tmp_path / "out.csv", header, rows)
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_float_formatting_roundtrips(tmp_path):
    value = 0.1 + 0.2  # repr keeps the exact double
    path = tmp_path / "f.csv"
    write_csv(path, ["x"], [[value]])
    _, data = read_csv(path)
    assert float(data[0][0]) == value


def test_manifest_contents(tmp_path):
    m = RunManifest(scenario="fish1d", preset="run", seed=7,
                    config={"steps": 10}, outputs=["trace.csv"])
    path = m.write(tmp_path)
    doc = json.loads(path.read_text())
    assert doc["scenario"] == "fish1d"
    assert doc["seed"] == 7
    assert doc["outputs"] == ["trace.csv"]
    assert "code_version" in doc


def make_csv(tmp_path, rows, header=("x", "y", "grp")):
    path = tmp_path / "data.csv"
    write_csv(path, list(header), rows)
    return path


def test_plot_deterministic(tmp_path):
    csv = make_csv(tmp_path, [[0, 1.0, "a"], [1, 2.0, "a"], [0, 3.0, "b"]])
    s1 = tmp_path / "p1.svg"
    s2 = tmp_path / "p2.svg"
    emit_plot(PlotSpec(input_csv=str(csv), x_column="x", y_column="y",
                       series_column="grp", output_svg=str(s1)))
    emit_plot(PlotSpec(input_csv=str(csv), x_column="x", y_column="y",
                       series_column="grp", output_svg=str(s2)))
    assert s1.read_bytes() == s2.read_bytes()
    body = s1.read_text()
    assert body.startswith("<svg")
    assert "http://www.w3.org/2000/svg" in body
    assert 'href' not in body  # self-contained: no external references


def test_plot_axis_labels_from_columns(tmp_path):
    csv = make_csv(tmp_path, [[0, 1.0, "a"]])
    out = tmp_path / "p.svg"
    emit_plot(PlotSpec(input_csv=str(csv), x_column="x", y_column="y",
                       output_svg=str(out)))
    body = out.read_text()
    assert ">x</text>" in body and ">y</text>" in body


def test_plot_missing_column_named(tmp_path):
    csv = make_csv(tmp_path, [[0, 1.0, "a"]])
    with pytest.raises(ConfigError, match="nope"):
        emit_plot(PlotSpec(input_csv=str(csv), x_column="nope", y_column="y",
                           output_svg=str(tmp_path / "p.svg")))


def test_plot_empty_csv_gives_empty_axes(tmp_path):
    csv = make_csv(tmp_path, [])
    out = tmp_path / "p.svg"
    emit_plot(PlotSpec(input_csv=str(csv), x_column="x", y_column="y",
                       output_svg=str(out)))
    assert out.read_text().startswith("<svg")


def test_plot_scatter_kind(tmp_path):
    csv = make_csv(tmp_path, [[0, 1.0, "a"], [1, 2.0, "a"]])
    out = tmp_path / "p.svg"
    emit_plot(PlotSpec(input_csv=str(csv), x_column="x", y_column="y",
                       output_svg=str(out), kind="scatter"))
    assert "<circle" in out.read_text()


def test_plot_leaves_out_non_finite_points(tmp_path):
    # the first row's y is nan, as the mean price of an auction with no sale
    csv = make_csv(tmp_path, [[0.25, float("nan"), "a"], [0.5, 2.0, "a"],
                              [1.0, 4.0, "a"], [0.75, float("inf"), "b"]])
    out = tmp_path / "p.svg"
    emit_plot(PlotSpec(input_csv=str(csv), x_column="x", y_column="y",
                       series_column="grp", output_svg=str(out), kind="scatter"))
    body = out.read_text()
    assert "nan" not in body and "inf" not in body
    assert body.count("<circle") == 2
    # the axes span the finite points only: x from 0.5 to 1, y from 2 to 4
    ticks = re.findall(r">([^<]*)</text>", body)
    assert ticks[:10] == ["0.5", "0.625", "0.75", "0.875", "1",
                          "2", "2.5", "3", "3.5", "4"]
    assert ">b</text>" in body  # a series with no finite point keeps its label
