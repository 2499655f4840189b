"""Figure contracts: valid SVG, lossless CSV round trips, and the
selection rules behind each plot builder."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdexplain import fpca, sim, viz

import oracles
from helpers import make_dataset


@pytest.fixture(scope="module")
def smoke():
    grid = sim.TimeGrid(40)
    ds = sim.generate_dataset(30, sim.SimParams(), seed=1, grid=grid)
    model = fpca.fit(ds)
    scores = fpca.transform(model, ds)
    return ds, model, scores


def _all_specs(smoke):
    ds, model, scores = smoke
    return [
        ("eig", viz.eigenfunction_plot(model, 1)),
        ("meanpm", viz.mean_pm_eigenfunction(model, 1)),
        ("bundles", viz.extreme_score_bundles(model, ds, 1, m=3)),
        ("scatter", viz.score_scatter(scores, ds.labels.y1, (1, 2), "y1")),
        ("heatmap", viz.correlation_heatmap(ds, stride=10)),
        ("groups", viz.group_means_plot(ds, "by-y1")),
    ]


# ---------------------------------------------------------------------------
# rendering and persistence
# ---------------------------------------------------------------------------

_SPANS = st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e)
_STARTS = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(x0=_STARTS, x_span=_SPANS, y0=_STARTS, y_span=_SPANS, data=st.data())
@example(x0=-1.0, x_span=2.0, y0=-1e-12, y_span=1e-12, data=None)
def test_polyline_matches_point_by_point(x0, x_span, y0, y_span, data):
    x_range, y_range = (x0, x0 + x_span), (y0, y0 + y_span)
    assume(x_range[1] > x_range[0] and y_range[1] > y_range[0])
    frame = viz._Frame(x_range, y_range)

    def coords(lo, hi, size):
        # range ends, signed zeros, points inside and points well outside
        value = st.one_of(st.sampled_from([lo, hi, 0.0, -0.0]),
                          st.floats(lo, hi),
                          st.floats(-2e6, 2e6, allow_nan=False))
        return st.lists(value, min_size=size, max_size=size)

    if data is None:
        xs = [-1.0, 1.0, -0.0, 0.0]
        ys = [-1e-12, 0.0, -0.0, -1e-12]
    else:
        size = data.draw(st.integers(0, 40))
        xs = data.draw(coords(*x_range, size))
        ys = data.draw(coords(*y_range, size))
    assert frame.polyline(np.array(xs, dtype=np.float64),
                          np.array(ys, dtype=np.float64)) == \
        oracles.polyline_ref(frame, xs, ys)


def _exact_frame():
    """A frame whose `sx` maps every float to itself and whose `sy` maps
    every float but -0.0 to itself, so chosen values reach the printer."""
    frame = viz._Frame((0.0, 1.0), (0.0, -1.0))
    frame.px, frame.pw, frame.py, frame.ph = -0.0, 1.0, -1.0, 1.0
    return frame


_HARD_VALUES = {
    "exact-ties": [0.125, -0.125, 70.375, 699.875, -699.875, 0.375],
    # 0.025 is just above a tie, but its float product with 100 is 2.5
    "near-ties": [1.005, 2.675, 0.025, -0.025, 9.995, 999.995],
    "signed-zeros": [-0.0, 0.0, -0.004, 0.004, -0.005, 5e-324],
    "empty": [],
    "magnitude-bound": [999999.994, 999999.995, 999999.996, 1e6, -1e6,
                        1e6 + 0.125, 123456789.125, -1e300],
}


@pytest.mark.parametrize("values", _HARD_VALUES.values(), ids=_HARD_VALUES)
def test_polyline_prints_hard_values_as_format_does(values):
    frame = _exact_frame()
    xs = np.array(values, dtype=np.float64)
    ys = xs[::-1].copy()
    assert np.array_equal(frame.sx(xs), xs) and np.array_equal(frame.sy(ys), ys)
    assert frame.polyline(xs, ys) == oracles.polyline_ref(frame, xs, ys)


def test_polyline_prints_overflowing_coordinates_as_words():
    # the x span overflows to inf, the y map of +-1e300 to -+inf
    frame = viz._Frame((-1e308, 1e308), (0.0, 1e-300))
    xs = np.array([1e308, -1e308, 0.0, 1e308])
    ys = np.array([1e300, -1e300, 0.0, -0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        points = frame.polyline(xs, ys)
    assert points == oracles.polyline_ref(frame, xs, ys)
    assert points == "nan,-inf 70.00,inf 70.00,430.00 nan,430.00"


def test_bundles_svg_matches_point_by_point_polylines(monkeypatch):
    """A figure-scale check: 101 series of 1000 points."""
    ds = sim.generate_dataset(100, sim.SimParams(), seed=4,
                              grid=sim.TimeGrid(1000))
    spec = viz.extreme_score_bundles(fpca.fit(ds), ds, 1, m=50)
    svg = viz.render_svg(spec)
    assert svg.count("<polyline ") == 101
    monkeypatch.setattr(viz._Frame, "polyline", oracles.polyline_ref)
    assert svg == viz.render_svg(spec)


def test_svg_well_formed_for_every_kind(smoke):
    for name, spec in _all_specs(smoke):
        root = ET.fromstring(viz.render_svg(spec))
        assert root.tag.endswith("svg"), name


def test_csv_round_trip_rerenders_identically(smoke, tmp_path):
    for name, spec in _all_specs(smoke):
        svg_path, csv_path = viz.save_figure(spec, tmp_path, name)
        loaded = viz.load_figure_spec(csv_path)
        assert viz.render_svg(loaded) == svg_path.read_text()
        assert loaded.extras == spec.extras


def test_loaded_scatter_groups_exact(smoke, tmp_path):
    ds, model, scores = smoke
    spec = viz.score_scatter(scores, ds.labels.y1, (1, 2), "y1")
    _, csv_path = viz.save_figure(spec, tmp_path, "sc")
    loaded = viz.load_figure_spec(csv_path)
    assert np.array_equal(loaded.groups, spec.groups)
    assert loaded.group_names == ["y1 = 0", "y1 = 1"]


def test_load_rejects_csv_without_meta(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("x,y\n0.0,1.0\n")
    with pytest.raises(ValueError, match="metadata line"):
        viz.load_figure_spec(path)
    with pytest.raises(FileNotFoundError, match="missing artifact"):
        viz.load_figure_spec(tmp_path / "absent.csv")


@pytest.mark.parametrize("cut, message", [
    (lambda lines: lines[:1], "no data rows"),
    (lambda lines: lines[:2], "no data rows"),
    (lambda lines: [lines[0], lines[1].replace(",a,", ",b,")] + lines[2:],
     "no column 'a'"),
    (lambda lines: [lines[0][:20]] + lines[1:], "malformed JSON"),
    (lambda lines: [lines[0].replace('"series_names"', '"names"')]
     + lines[1:], "missing key 'series_names'"),
    (lambda lines: [lines[0].replace('"has_groups"', '"groups"')]
     + lines[1:], "missing key 'has_groups'"),
    (lambda lines: ["# [1, 2]"] + lines[1:], "not a JSON object"),
    (lambda lines: [lines[0].replace('"series_names": ["z", "a", "c"]',
                                     '"series_names": null')] + lines[1:],
     "series_names must be a list, got None"),
    (lambda lines: [lines[0].replace('"title": "t"', '"title": 3')]
     + lines[1:], "title must be a string, got 3")],
    ids=["metadata-only", "header-only", "series-column-missing",
         "metadata-cut", "series-names-missing", "has-groups-missing",
         "metadata-not-object", "series-names-null", "title-number"])
def test_load_rejects_truncated_figure_csv(tmp_path, cut, message):
    x = np.linspace(0.0, 1.0, 4)
    spec = viz.PlotSpec("group-means", "t", "x", "y", x,
                        [viz.Series("z", x), viz.Series("a", -x),
                         viz.Series("c", x)])
    _, path = viz.save_figure(spec, tmp_path, "f")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(cut(lines)) + "\n")
    with pytest.raises(ValueError, match=message) as info:
        viz.load_figure_spec(path)
    assert str(path) in str(info.value)


def test_plotspec_validation():
    x = np.linspace(0.0, 1.0, 5)
    good = [viz.Series("a", np.ones(5))]
    with pytest.raises(ValueError, match="unknown plot kind"):
        viz.PlotSpec("pie", "t", "x", "y", x, good)
    with pytest.raises(ValueError, match="non-finite x"):
        viz.PlotSpec("eigenfunction", "t", "x", "y",
                     np.array([0.0, np.nan]), [viz.Series("a", np.zeros(2))])
    with pytest.raises(ValueError, match="length"):
        viz.PlotSpec("eigenfunction", "t", "x", "y", x,
                     [viz.Series("a", np.ones(4))])
    with pytest.raises(ValueError, match="non-finite values"):
        viz.PlotSpec("eigenfunction", "t", "x", "y", x,
                     [viz.Series("a", np.full(5, np.inf))])
    with pytest.raises(ValueError, match="CSV-safe"):
        viz.PlotSpec("eigenfunction", "t", "x", "y", x,
                     [viz.Series("a,b", np.ones(5))])
    with pytest.raises(ValueError, match="2 groups for 3 x values"):
        viz.PlotSpec("score-scatter", "t", "x", "y", x[:3],
                     [viz.Series("y", np.ones(3))], groups=np.array([0, 1]))
    with pytest.raises(ValueError, match="values of series 'a' span more "
                       "than the float range"):
        viz.PlotSpec("group-means", "t", "x", "y", x[:3],
                     [viz.Series("a", np.array([-1e308, 0.0, 1e308]))])
    with pytest.raises(ValueError, match="series 'lo' to 'hi' span more"):
        viz.PlotSpec("group-means", "t", "x", "y", x[:2],
                     [viz.Series("lo", np.full(2, -1e308)),
                      viz.Series("hi", np.full(2, 1e308))])
    with pytest.raises(ValueError, match="x values span more than the float"):
        viz.PlotSpec("eigenfunction", "t", "x", "y",
                     np.array([0.0, 1.79e308]), [viz.Series("a", np.ones(2))])
    rows = [viz.Series(f"t_{i + 1}", np.ones(3)) for i in range(3)]
    with pytest.raises(ValueError, match="heatmap has 2 series for 3 x"):
        viz.PlotSpec("correlation-heatmap", "t", "x", "y", x[:3], rows[:2])
    with pytest.raises(ValueError, match=r"shape \(3, 2\), not \(3, 3\)"):
        viz.PlotSpec("correlation-heatmap", "t", "x", "y", x[:3], rows,
                     defined=np.ones((3, 2), dtype=bool))


def test_load_refuses_heatmap_csv_short_of_a_series(smoke, tmp_path):
    ds, _, _ = smoke
    _, path = viz.save_figure(viz.correlation_heatmap(ds, stride=10),
                              tmp_path, "heat")
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace(', "t_4"]', "]")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="heatmap has 3 series for 4 x") \
            as info:
        viz.load_figure_spec(path)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# eigenfunction and mean +/- component figures
# ---------------------------------------------------------------------------

def test_eigenfunction_plot_carries_model_row(smoke):
    _, model, _ = smoke
    spec = viz.eigenfunction_plot(model, 2)
    assert np.array_equal(spec.series[0].values, model.eigenfunctions[1])
    assert spec.extras["component"] == 2
    for j in (0, model.n_components + 1):
        with pytest.raises(ValueError, match="out of range"):
            viz.eigenfunction_plot(model, j)


def test_mean_pm_is_exact_mirror(smoke):
    _, model, _ = smoke
    c = 2.0
    spec = viz.mean_pm_eigenfunction(model, 1, c)
    offset = (c * np.sqrt(float(model.eigenvalues[0]))) * model.eigenfunctions[0]
    assert np.array_equal(spec.series[0].values, model.mean)
    assert np.array_equal(spec.series[1].values, model.mean + offset)
    assert np.array_equal(spec.series[2].values, model.mean - offset)


def test_mean_pm_two_point_closed_form():
    # {mu + g, mu - g}: sqrt(eigenvalue) * eigenfunction == sqrt(2) * g
    m = 24
    t = np.linspace(-4.0, 0.0, m)
    mu = 10.0 + np.zeros(m)
    g = np.exp(-((t + 2.0) ** 2) / 0.5)
    ds = make_dataset(np.vstack([mu + g, mu - g]))
    model = fpca.fit(ds)
    spec = viz.mean_pm_eigenfunction(model, 1, c=1.0)
    expected_plus = mu + np.sqrt(2.0) * g
    assert np.max(np.abs(spec.series[1].values - expected_plus)) <= 1e-9
    assert np.max(np.abs(spec.series[2].values - (2.0 * mu - expected_plus))) \
        <= 1e-9


def test_mean_pm_deviation_linear_in_multiplier(smoke):
    _, model, _ = smoke
    dev1 = viz.mean_pm_eigenfunction(model, 1, 1.0)
    dev2 = viz.mean_pm_eigenfunction(model, 1, 2.0)
    d1 = dev1.series[1].values - dev1.series[0].values
    d2 = dev2.series[1].values - dev2.series[0].values
    assert np.allclose(d2, 2.0 * d1, rtol=1e-12, atol=1e-10)


def test_mean_pm_errors(smoke):
    _, model, _ = smoke
    with pytest.raises(ValueError, match="positive"):
        viz.mean_pm_eigenfunction(model, 1, c=0.0)
    with pytest.raises(ValueError, match="positive"):
        viz.mean_pm_eigenfunction(model, 1, c=-1.0)
    # zero-variance component, as a saved model may hold one
    flat_model = fpca.FpcaModel(sim.TimeGrid(12, -4.0, 0.0), np.ones(12),
                                np.full((1, 12), 0.5), np.zeros(1), 2, 0.0)
    with pytest.raises(ValueError, match="zero variance"):
        viz.mean_pm_eigenfunction(flat_model, 1)


# ---------------------------------------------------------------------------
# extreme score bundles
# ---------------------------------------------------------------------------

def test_bundles_minimal_case():
    t = np.linspace(-4.0, 0.0, 16)
    mu = 10.0 + np.zeros(16)
    g = np.exp(-((t + 2.0) ** 2) / 0.3)
    ds = make_dataset(np.vstack([mu + g, mu - g]))
    model = fpca.fit(ds)
    spec = viz.extreme_score_bundles(model, ds, 1, m=1)
    assert spec.extras["bottom_indices"] == [1]
    assert spec.extras["top_indices"] == [0]
    # mean + one low + one high
    assert [s.name for s in spec.series] == ["mean", "low_1", "high_1"]
    assert np.array_equal(spec.series[2].values, ds.values[0])


def test_bundles_tie_breaks_by_signature_index():
    # scores (+s, +s, -s, -s): ascending strict order is [2, 3, 0, 1]
    t = np.linspace(-4.0, 0.0, 16)
    mu = 10.0 + np.zeros(16)
    g = np.exp(-((t + 2.0) ** 2) / 0.3)
    ds = make_dataset(np.vstack([mu + g, mu + g, mu - g, mu - g]))
    model = fpca.fit(ds)
    spec = viz.extreme_score_bundles(model, ds, 1, m=1)
    assert spec.extras["bottom_indices"] == [2]
    assert spec.extras["top_indices"] == [1]


def test_bundles_disjoint_and_partition(smoke):
    ds, model, _ = smoke
    m = ds.n // 2
    spec = viz.extreme_score_bundles(model, ds, 1, m=m)
    bottom = set(spec.extras["bottom_indices"])
    top = set(spec.extras["top_indices"])
    assert len(bottom) == len(top) == m
    assert not bottom & top
    assert bottom | top == set(range(ds.n))
    assert len(spec.series) == 2 * m + 1


def test_bundles_errors(smoke):
    ds, model, _ = smoke
    with pytest.raises(ValueError, match=">= 1"):
        viz.extreme_score_bundles(model, ds, 1, m=0)
    with pytest.raises(ValueError, match="at least"):
        viz.extreme_score_bundles(model, ds, 1, m=ds.n)
    with pytest.raises(ValueError, match="out of range"):
        viz.extreme_score_bundles(model, ds, 0, m=1)


# ---------------------------------------------------------------------------
# score scatter
# ---------------------------------------------------------------------------

def test_scatter_pair_separates_shifted_classes():
    rng = np.random.default_rng(9)
    scores = rng.normal(size=(60, 2))
    labels = (np.arange(60) % 2).astype(np.float64)
    scores[labels == 1, 0] += 4.0
    spec = viz.score_scatter(scores, labels, (1, 2), "y1")
    x0 = spec.x[spec.groups == 0]
    x1 = spec.x[spec.groups == 1]
    assert x1.mean() - x0.mean() > 3.0
    assert np.array_equal(spec.x, scores[:, 0])
    assert np.array_equal(spec.series[0].values, scores[:, 1])


def test_scatter_single_component_continuous():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=(20, 3))
    y3 = rng.uniform(size=20)
    spec = viz.score_scatter(scores, y3, (2,), "y3")
    assert spec.groups is None
    assert np.array_equal(spec.x, scores[:, 1])
    assert np.array_equal(spec.series[0].values, y3)


def test_scatter_errors():
    scores = np.random.default_rng(0).normal(size=(10, 2))
    binary = (np.arange(10) % 2).astype(np.float64)
    smooth = np.linspace(0.1, 0.9, 10)
    with pytest.raises(ValueError, match="no components"):
        viz.score_scatter(scores, binary, ())
    with pytest.raises(ValueError, match="one or two"):
        viz.score_scatter(scores, binary, (1, 2, 1))
    with pytest.raises(ValueError, match="out of range"):
        viz.score_scatter(scores, binary, (1, 3))
    with pytest.raises(ValueError, match="binary target"):
        viz.score_scatter(scores, smooth, (1, 2))
    with pytest.raises(ValueError, match="targets do not match"):
        viz.score_scatter(scores, binary[:-1], (1,))


# ---------------------------------------------------------------------------
# correlation heatmap
# ---------------------------------------------------------------------------

def test_correlation_matches_textbook_formula():
    rng = np.random.default_rng(4)
    values = 5.0 + rng.normal(size=(8, 6))
    ds = make_dataset(values)
    times, corr, defined = viz.correlation_matrix(ds, stride=1)
    assert np.all(defined)
    expected = np.corrcoef(values.T)
    assert np.max(np.abs(corr - expected)) <= 1e-12
    assert np.array_equal(times, ds.grid.points)


def test_correlation_duplicate_columns_near_one():
    rng = np.random.default_rng(6)
    values = 5.0 + rng.normal(size=(10, 4))
    values[:, 2] = values[:, 0]
    ds = make_dataset(values)
    _, corr, defined = viz.correlation_matrix(ds, stride=1)
    assert defined[0, 2]
    assert abs(corr[0, 2] - 1.0) <= 1e-12
    assert np.array_equal(np.diag(corr), np.ones(4))


def test_correlation_zero_variance_column_undefined():
    rng = np.random.default_rng(7)
    values = 5.0 + rng.normal(size=(6, 4))
    values[:, 1] = 3.0
    ds = make_dataset(values)
    _, corr, defined = viz.correlation_matrix(ds, stride=1)
    assert not defined[0, 1] and not defined[1, 0]
    assert defined[1, 1] and corr[1, 1] == 1.0
    assert defined[0, 2]


def test_correlation_identical_rows_all_undefined_off_diagonal():
    values = np.vstack([np.linspace(1.0, 2.0, 5)] * 3)
    ds = make_dataset(values)
    _, corr, defined = viz.correlation_matrix(ds, stride=1)
    assert np.array_equal(defined, np.eye(5, dtype=bool))
    assert np.array_equal(np.diag(corr), np.ones(5))


def test_correlation_stride(smoke):
    ds, _, _ = smoke
    times, corr, defined = viz.correlation_matrix(ds, stride=7)
    q = ds.grid.points[::7].size
    assert times.size == q and corr.shape == (q, q) == defined.shape
    with pytest.raises(ValueError, match="stride"):
        viz.correlation_matrix(ds, stride=0)


def test_heatmap_values_bounded(smoke):
    ds, _, _ = smoke
    spec = viz.correlation_heatmap(ds, stride=10)
    for s in spec.series:
        assert np.all(np.abs(s.values) <= 1.0)
    assert spec.defined.shape == (spec.x.size, spec.x.size)


# ---------------------------------------------------------------------------
# group means
# ---------------------------------------------------------------------------

def test_group_means_quartiles_give_twelve_series():
    grid = sim.TimeGrid(30)
    ds = sim.generate_dataset(40, sim.SimParams(), seed=3, grid=grid)
    spec = viz.group_means_plot(ds, "by-y3-quartile")
    names = [s.name for s in spec.series]
    assert len(names) == 12
    assert names[0] == "y3 Q1 mean"
    assert names[1] == "y3 Q1 lower"
    assert names[2] == "y3 Q1 upper"
    for k in range(0, 12, 3):
        mean = spec.series[k].values
        lower = spec.series[k + 1].values
        upper = spec.series[k + 2].values
        assert np.all(lower <= mean) and np.all(mean <= upper)
        assert np.allclose(upper + lower, 2.0 * mean, rtol=1e-12, atol=1e-9)
