"""Simulator contracts: determinism, label effects, grouping summaries."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdexplain.errors import NumericalError
from fdexplain.seeding import stage_seed
from fdexplain.sim import (INTENSITY_FLOOR, Dataset, LabelSet, SimParams,
                           TimeGrid, class_conditional_means,
                           generate_dataset, sample_labels)

import helpers
import oracles

NOISELESS = SimParams().noiseless()
SMALL_GRID = TimeGrid(200)


def _one(y1: int, y2: int, y3: float, params: SimParams = NOISELESS,
         grid: TimeGrid = SMALL_GRID) -> np.ndarray:
    return oracles.generate_signature_ref(y1, y2, y3, params, grid,
                                          np.random.default_rng(0))


# ---------------------------------------------------------------------------
# grids and parameter validation
# ---------------------------------------------------------------------------

def test_default_grid_shape():
    grid = TimeGrid()
    assert grid == TimeGrid(1000, -4, 0) and type(grid.start) is float
    assert grid.dt == pytest.approx(4.0 / 999)
    assert grid.points.tobytes() == np.linspace(-4.0, 0.0, 1000).tobytes()
    assert grid.points[0] == grid.start and grid.points[-1] == grid.stop
    assert not grid.points.flags.writeable
    spacing = np.diff(grid.points)
    assert np.max(np.abs(spacing - grid.dt)) < 1e-12


def test_grid_rejects_bad_points():
    for count, start, stop, message in [
            (1, -4.0, 0.0, "grid.count must be >= 2, got 1"),
            (0, -4.0, 0.0, "grid.count must be >= 2, got 0"),
            (10, 0.0, -4.0, "grid needs finite start < stop, got start 0.0 "
                            "and stop -4.0"),
            (10, 1.0, 1.0, "got start 1.0 and stop 1.0"),
            (10, float("nan"), 0.0, "got start nan and stop 0.0"),
            (10, -4.0, float("inf"), "got start -4.0 and stop inf"),
            # the step overflows, or underflows to zero
            (10, -1e308, 1e308, "got start -1e+308 and stop 1e+308"),
            (3, 0.0, 5e-324, "got start 0.0 and stop 5e-324"),
            # a step below the float spacing: 549 of the 999 steps of
            # np.linspace(1.0, 1.0 + 1e-13, 1000) repeat or fall
            (1000, 1.0, 1.0 + 1e-13,
             "grid step 1.0002009230857266e-16 from start 1.0 to stop "
             "1.0000000000001 must exceed the float spacing "
             "2.220446049250313e-16"),
            # the last point overshoots the largest float before np.linspace
            # sets it to stop
            (10, 0.0, 1.7976931348623157e308,
             "grid from start 0.0 to stop 1.7976931348623157e+308 in 10 "
             "points overflows the float range")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            TimeGrid(count, start, stop)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _grids_near_the_float_spacing(draw):
    """(count, start, stop) whose step is a quarter to four times the float
    spacing at `start`."""
    count, start = draw(st.integers(2, 2000)), draw(_finite)
    step = draw(st.floats(0.25, 4.0)) * math.ulp(start)
    return count, start, start + (count - 1) * step


_LARGEST = 1.7976931348623157e308


@st.composite
def _grids_near_the_largest_float(draw):
    """(count, start, stop) with `stop` at or next to the largest float, or
    `start` at or next to its negative, where the points may overflow."""
    count = draw(st.integers(2, 2000))
    end = draw(st.sampled_from([math.nextafter(_LARGEST, 0.0), _LARGEST]))
    other = draw(st.floats(-end, end))
    return (count, other, end) if draw(st.booleans()) else (count, -end, other)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.integers(2, 2000), _finite, _finite),
                 _grids_near_the_float_spacing(),
                 _grids_near_the_largest_float()))
def test_every_grid_that_constructs_has_increasing_points(fields):
    try:
        grid = TimeGrid(*fields)
    except ValueError:
        return
    assert np.all(np.diff(grid.points) > 0)


def test_sim_params_validation():
    with pytest.raises(ValueError):
        SimParams(peak_centers=(-3.0, -2.0))  # wrong length
    with pytest.raises(ValueError):
        SimParams(peak_widths=(0.1, 0.2, -0.3, 0.2))
    with pytest.raises(ValueError):
        SimParams(peak_amplitudes=(1.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        SimParams(noise_sd=-0.01)


def test_sim_params_dict_round_trip():
    params = SimParams(y2_gain=0.9, noise_sd=0.0)
    again = SimParams.from_dict(params.to_dict())
    assert again == params
    with pytest.raises(ValueError, match="unknown"):
        SimParams.from_dict({"not_a_field": 1.0})


# ---------------------------------------------------------------------------
# label sampling
# ---------------------------------------------------------------------------

def test_sample_labels_deterministic():
    a = sample_labels(4, seed=7)
    b = sample_labels(4, seed=7)
    assert np.array_equal(a.y1, b.y1)
    assert np.array_equal(a.y2, b.y2)
    assert np.array_equal(a.y3, b.y3)


def test_sample_labels_prefix_stable():
    # label i does not depend on how many labels are drawn
    small = sample_labels(10, seed=3)
    big = sample_labels(100, seed=3)
    assert np.array_equal(small.y1, big.y1[:10])
    assert np.array_equal(small.y2, big.y2[:10])
    assert np.array_equal(small.y3, big.y3[:10])


def test_sample_labels_marginals():
    labels = sample_labels(100000, seed=11)
    # binomial 4-sigma band around 0.5 is about +/- 0.0063
    assert 0.49 <= labels.y1.mean() <= 0.51
    assert 0.49 <= labels.y2.mean() <= 0.51
    assert np.all((labels.y3 >= 0.0) & (labels.y3 <= 1.0))


def test_sample_labels_single():
    labels = sample_labels(1, seed=0)
    assert 0.0 <= labels.y3[0] <= 1.0
    assert labels.y1[0] in (0, 1)


def test_sample_labels_rejects_empty():
    with pytest.raises(ValueError):
        sample_labels(0, seed=0)


# ---------------------------------------------------------------------------
# single-signature generation
# ---------------------------------------------------------------------------

def test_noiseless_generator_is_pure():
    a = oracles.generate_signature_ref(1, 0, 0.3, NOISELESS, SMALL_GRID,
                                       np.random.default_rng(1))
    b = oracles.generate_signature_ref(1, 0, 0.3, NOISELESS, SMALL_GRID,
                                       np.random.default_rng(2))
    assert np.array_equal(a, b)


def test_y1_toggles_peak_count():
    three = _one(0, 0, 0.5)
    four = _one(1, 0, 0.5)
    assert oracles.count_local_maxima(three) == 3
    assert oracles.count_local_maxima(four) == 4


def test_y1_shifts_first_peak_earlier():
    base = oracles.local_maxima_positions(SMALL_GRID.points, _one(0, 0, 0.5))
    shifted = oracles.local_maxima_positions(SMALL_GRID.points, _one(1, 0, 0.5))
    assert shifted[0] < base[0]


def test_y2_constant_pointwise_ratio():
    off = _one(0, 0, 0.5)
    on = _one(0, 1, 0.5)
    ratio = on / off
    expected = 1.0 + NOISELESS.y2_gain
    assert np.max(np.abs(ratio - expected)) < 1e-12


def test_y3_gain_is_monotone_increasing():
    # isolate the intensity channel by freezing the timing shift
    params = SimParams(y3_timing_span=0.0).noiseless()
    low = _one(0, 0, 0.2, params)
    high = _one(0, 0, 0.8, params)
    expected = (1.0 + params.y3_gain * 0.8) / (1.0 + params.y3_gain * 0.2)
    assert np.max(np.abs(high / low - expected)) < 1e-12


def test_y3_shifts_every_peak_later():
    early = _one(0, 0, 0.15)
    late = _one(0, 0, 0.85)
    pos_early = oracles.local_maxima_positions(SMALL_GRID.points, early)
    pos_late = oracles.local_maxima_positions(SMALL_GRID.points, late)
    assert pos_early.size == pos_late.size == 3
    assert np.all(pos_late > pos_early)


def test_non_finite_generation_aborts():
    params = SimParams(noise_sd=float("inf"))
    with pytest.raises(NumericalError, match="non-finite"):
        with np.errstate(invalid="ignore"):
            generate_dataset(3, params, seed=0, grid=SMALL_GRID)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def test_dataset_deterministic():
    a = generate_dataset(10, SimParams(), seed=5, grid=SMALL_GRID)
    b = generate_dataset(10, SimParams(), seed=5, grid=SMALL_GRID)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels.y3, b.labels.y3)


def test_dataset_seed_sensitivity():
    a = generate_dataset(10, SimParams(), seed=1, grid=SMALL_GRID)
    b = generate_dataset(10, SimParams(), seed=2, grid=SMALL_GRID)
    assert not np.array_equal(a.values, b.values)


def test_dataset_subset_reproducible():
    # signature i is the same no matter how many are generated
    small = generate_dataset(12, SimParams(), seed=9, grid=SMALL_GRID)
    big = generate_dataset(40, SimParams(), seed=9, grid=SMALL_GRID)
    assert np.array_equal(small.values, big.values[:12])
    assert np.array_equal(small.labels.y1, big.labels.y1[:12])
    assert np.array_equal(small.labels.y3, big.labels.y3[:12])


@pytest.mark.parametrize("count", [200, 1000])
@pytest.mark.parametrize("seed", [0, 5, 42])
def test_dataset_rows_match_one_signature_reference(count, seed):
    # row i is the one-signature generator fed substream i of the
    # "signatures" stage stream, bit for bit
    grid = TimeGrid(count)
    ds = generate_dataset(6, SimParams(), seed=seed, grid=grid)
    signature_seed = stage_seed(seed, "signatures")
    for i in range(ds.n):
        ref = oracles.generate_signature_ref(
            ds.labels.y1[i], ds.labels.y2[i], ds.labels.y3[i], SimParams(),
            grid, oracles.substream_ref(signature_seed, i))
        assert ref.tobytes() == ds.values[i].tobytes()


@pytest.mark.parametrize("n", [1, 3, 50])
def test_dataset_equals_a_per_signature_substream_loop(n):
    # the bulk-hashed streams are the one-key streams, whatever n is
    ds = generate_dataset(n, SimParams(), seed=13, grid=SMALL_GRID)
    signature_seed = stage_seed(13, "signatures")
    ref = np.array([oracles.generate_signature_ref(
        ds.labels.y1[i], ds.labels.y2[i], ds.labels.y3[i], SimParams(),
        SMALL_GRID, oracles.substream_ref(signature_seed, i))
        for i in range(n)])
    assert ref.tobytes() == ds.values.tobytes()


def test_dataset_positivity():
    ds = generate_dataset(50, SimParams(), seed=3, grid=SMALL_GRID)
    assert np.all(ds.values >= INTENSITY_FLOOR)
    assert np.all(ds.values > 0.0)


def test_dataset_paper_scale_shape():
    ds = generate_dataset(10000, SimParams(), seed=0)
    assert ds.values.shape == (10000, 1000)
    assert len(ds.labels) == 10000


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        generate_dataset(0, SimParams(), seed=0, grid=SMALL_GRID)


def test_subset_keeps_rows():
    ds = generate_dataset(8, SimParams(), seed=4, grid=SMALL_GRID)
    sub = ds.subset(np.array([1, 5, 6]))
    assert np.array_equal(sub.values, ds.values[[1, 5, 6]])
    assert sub.provenance["subset"] is True
    assert sub.n == 3


def test_dataset_shape_validation():
    grid = TimeGrid(10)
    labels = LabelSet(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64),
                      np.full(2, 0.5))
    with pytest.raises(ValueError):
        Dataset(grid, np.zeros((2, 9)), labels)
    with pytest.raises(ValueError):
        Dataset(grid, np.zeros((3, 10)), labels)


# ---------------------------------------------------------------------------
# group summaries
# ---------------------------------------------------------------------------

def test_group_means_degenerate_group():
    # two identical signatures in one group: mean is the signature, sd 0
    row = _one(0, 0, 0.5)
    other = _one(1, 0, 0.5)
    ds = helpers.make_dataset(np.vstack([row, row, other]), y1=[0, 0, 1])
    groups = class_conditional_means(ds, "by-y1")
    assert groups[0].name == "y1=0" and groups[0].size == 2
    assert np.array_equal(groups[0].mean, row)
    assert np.array_equal(groups[0].sd, np.zeros_like(row))


def test_group_means_empty_group_error_names_group():
    ds = helpers.make_dataset(np.ones((3, 8)), y2=[0, 0, 0])
    with pytest.raises(ValueError, match="y2=1"):
        class_conditional_means(ds, "by-y2")


def test_group_means_unknown_grouping():
    ds = helpers.make_dataset(np.ones((2, 8)))
    with pytest.raises(ValueError, match="grouping"):
        class_conditional_means(ds, "by-y4")


def test_quartile_bins_split_evenly():
    y3 = np.arange(1, 9) / 10.0  # 0.1 .. 0.8
    ds = helpers.make_dataset(np.tile(np.linspace(1, 2, 6), (8, 1)), y3=y3)
    groups = class_conditional_means(ds, "by-y3-quartile")
    assert [g.name for g in groups] == ["y3 Q1", "y3 Q2", "y3 Q3", "y3 Q4"]
    assert [g.size for g in groups] == [2, 2, 2, 2]


def test_y2_group_mean_dominates():
    # multiplicative gain plus noise: y2=1 mean above y2=0 mean nearly everywhere
    ds = generate_dataset(2000, SimParams(), seed=42)
    groups = {g.name: g for g in class_conditional_means(ds, "by-y2")}
    above = np.mean(groups["y2=1"].mean > groups["y2=0"].mean)
    assert above >= 0.95
