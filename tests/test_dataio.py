"""Artifact IO: exact float round trips and format validation."""

import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdexplain import dataio, explain, fpca, mlp, sim
from fdexplain.sim import LabelSet

from helpers import grid_fields, make_dataset
from oracles import format_row_ref


def _dataset(n=7, m=12, seed=0):
    rng = np.random.default_rng(seed)
    return make_dataset(rng.uniform(0.5, 9.0, size=(n, m)),
                        y1=rng.integers(0, 2, size=n),
                        y2=rng.integers(0, 2, size=n),
                        y3=rng.uniform(size=n))


def test_dataset_round_trip_exact(tmp_path):
    ds = _dataset()
    path = tmp_path / "train.csv"
    dataio.write_dataset(ds, path)
    assert dataio.sidecar_path(path).exists()
    back = dataio.read_dataset(path)
    assert np.array_equal(back.values, ds.values)
    assert np.array_equal(back.grid.points, ds.grid.points)
    assert np.array_equal(back.labels.y1, ds.labels.y1)
    assert np.array_equal(back.labels.y2, ds.labels.y2)
    assert np.array_equal(back.labels.y3, ds.labels.y3)


def test_dataset_header_mismatch(tmp_path):
    ds = _dataset(m=12)
    path = tmp_path / "d.csv"
    dataio.write_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("t_0", "time_0")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="header"):
        dataio.read_dataset(path)


def test_missing_files_error(tmp_path):
    ds = _dataset()
    path = tmp_path / "d.csv"
    with pytest.raises(FileNotFoundError, match="missing artifact"):
        dataio.read_dataset(path)
    dataio.write_dataset(ds, path)
    dataio.sidecar_path(path).unlink()
    with pytest.raises(FileNotFoundError, match="missing artifact"):
        dataio.read_dataset(path)


def test_scores_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(9, 4)) * np.logspace(0, -6, 4)
    # signed zero, the smallest subnormal and the largest finite double
    scores[0, :3] = (-0.0, 5e-324, 1.7976931348623157e308)
    ds = _dataset(n=9)
    path = tmp_path / "scores.csv"
    dataio.write_scores(path, scores, ds.labels)
    row = path.read_text().splitlines()[1]
    assert row.startswith("-0.0,5e-324,1.7976931348623157e+308,")
    back, labels = dataio.read_scores(path)
    assert np.array_equal(back, scores)
    assert np.signbit(back[0, 0])
    assert np.array_equal(labels.y3, ds.labels.y3)


def _replace_cell(path, row: int, col: int, text: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_read_dataset_rejects_non_finite(tmp_path, text):
    path = tmp_path / "d.csv"
    dataio.write_dataset(_dataset(), path)
    _replace_cell(path, 3, 5, text)
    with pytest.raises(ValueError, match="non-finite") as info:
        dataio.read_dataset(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("col", [0, -3, -1])  # a score, y1 and y3
def test_read_scores_rejects_non_finite(tmp_path, col):
    path = tmp_path / "s.csv"
    dataio.write_scores(path, np.ones((5, 4)), _dataset(n=5).labels)
    _replace_cell(path, 2, col, "nan")
    with pytest.raises(ValueError, match="non-finite") as info:
        dataio.read_scores(path)
    assert str(path) in str(info.value)


def _write_dataset(path):
    dataio.write_dataset(_dataset(n=5), path)
    return dataio.read_dataset


def _write_scores(path):
    dataio.write_scores(path, np.ones((5, 4)), _dataset(n=5).labels)
    return dataio.read_scores


@pytest.mark.parametrize("write", [_write_dataset, _write_scores])
@pytest.mark.parametrize("label,col", [("y1", -3), ("y2", -2)])
@pytest.mark.parametrize("text", ["7.9", "2.0", "-1.0", "0.5"])
def test_read_rejects_class_labels_other_than_0_or_1(tmp_path, write, label,
                                                     col, text):
    path = tmp_path / "labelled.csv"
    read = write(path)
    _replace_cell(path, 4, col, text)
    width = len(path.read_text().splitlines()[0].split(","))
    with pytest.raises(ValueError, match=f"label {label} is {text}") as info:
        read(path)
    message = str(info.value)
    assert str(path) in message
    assert f"data row 4, column {width + col + 1}" in message


def _scores_file(d):
    path = d / "s.csv"
    dataio.write_scores(path, np.ones((5, 4)), _dataset(n=5).labels)
    return path, lambda: dataio.read_scores(path)


def _dataset_file(d):
    path = d / "d.csv"
    dataio.write_dataset(_dataset(), path)
    return path, lambda: dataio.read_dataset(path)


def _fpca_file(name):
    def setup(d):
        fpca.save_model(fpca.fit(_dataset(n=6)), d)
        return d / name, lambda: fpca.load_model(d)
    return setup


def _pfi_file(d):
    X = np.random.default_rng(3).normal(size=(8, 3))
    report = explain.permutation_importance(lambda a: a[:, 0], X, X[:, 0],
                                            "squared", 2, 0)
    explain.save_pfi(report, d, "y3")
    return d / "y3_pfi.csv", lambda: explain.load_pfi(d, "y3")


def _layer_file(d):
    X = np.random.default_rng(4).normal(size=(12, 2))
    model = mlp.train(X, X[:, 0], mlp.MlpConfig(hidden_sizes=(3,),
                                                task="regression",
                                                max_epochs=2))
    mlp.save_mlp(model, d)
    return d / "layer_1.csv", lambda: mlp.load_mlp(d)


_TABLE_SETUPS = pytest.mark.parametrize("setup", [
    _scores_file, _dataset_file, _fpca_file("mean.csv"),
    _fpca_file("eigenfunctions.csv"), _pfi_file, _layer_file],
    ids=["scores", "dataset", "mean", "eigenfunctions", "pfi", "layer"])


@_TABLE_SETUPS
def test_header_only_table_rejected_by_name(tmp_path, setup):
    path, load = setup(tmp_path)
    path.write_text(path.read_text().partition("\n")[0] + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows") as info:
            load()
    assert str(path) in str(info.value)


def _ragged(cells):
    # a PFI row that misses a replication, or a one-value row doubled
    return cells[:-1] if len(cells) > 1 else cells * 2


def _text(cells):
    return ["abc"] + cells[1:]


def _nan(cells):
    return cells[:-1] + ["nan"]


@_TABLE_SETUPS
@pytest.mark.parametrize("fault", [_ragged, _text, _nan],
                         ids=["ragged", "text", "nan"])
def test_table_content_faults_rejected_by_name(tmp_path, setup, fault):
    path, load = setup(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(fault(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load()
    width = len(lines[1].split(","))
    assert str(info.value) == f"{path}: " + {
        _ragged: f"data row 2 has {len(fault(lines[1].split(',')))} cells, "
                 f"the header has {width}",
        _text: "data row 2, column 1: 'abc' is not a number",
        _nan: f"non-finite value in data row 2, column {width}"}[fault]


@pytest.mark.parametrize("setup, name, key", [
    (_dataset_file, "d.json", "grid"),
    (_fpca_file("mean.csv"), "fpca.json", "grid"),
    (_pfi_file, "y3_pfi.json", "loss"),
    (_layer_file, "mlp.json", "config")],
    ids=["dataset", "fpca", "pfi", "mlp"])
def test_json_without_keys_rejected_by_name(tmp_path, setup, name, key):
    _, load = setup(tmp_path)
    path = tmp_path / name
    path.write_text("{}\n")
    with pytest.raises(ValueError, match=f"missing key '{key}'") as info:
        load()
    assert str(path) in str(info.value)


def _drop(entry, key):
    return lambda meta: meta[entry].pop(key)


@pytest.mark.parametrize("setup, name, edit, message", [
    (_dataset_file, "d.json", lambda meta: meta.update(grid={}),
     "grid: missing key 'count'"),
    (_fpca_file("mean.csv"), "fpca.json", _drop("grid", "stop"),
     "grid: missing key 'stop'"),
    (_fpca_file("mean.csv"), "fpca.json", lambda meta: meta.update(grid=[]),
     "grid: not a JSON object"),
    (_layer_file, "mlp.json", _drop("log", "best_epoch"),
     "log: missing key 'best_epoch'"),
    (_layer_file, "mlp.json", lambda meta: meta["log"].update(momentum=0.9),
     "log: unknown key 'momentum'"),
    (_fpca_file("mean.csv"), "fpca.json", lambda meta: meta["grid"].update(
        count=None), "grid.count must be an integer, got None"),
    (_fpca_file("mean.csv"), "fpca.json", lambda meta: meta["grid"].update(
        count=2.5), "grid.count must be an integer, got 2.5"),
    (_dataset_file, "d.json", lambda meta: meta["grid"].update(count="x"),
     "grid.count must be an integer, got 'x'"),
    (_dataset_file, "d.json", lambda meta: meta.pop("provenance"),
     "missing key 'provenance'"),
    (_layer_file, "mlp.json", lambda meta: meta["log"].update(
        epochs_run="abc"), "log.epochs_run must be an integer, got 'abc'"),
    *[(setup, name, lambda meta, c=count: meta["grid"].update(count=c),
       f"grid.count must be >= 2, got {count}")
      for setup, name in [(_fpca_file("mean.csv"), "fpca.json"),
                          (_dataset_file, "d.json")]
      for count in (1, 0, -3)]],
    ids=["dataset-grid-empty", "fpca-grid-key", "fpca-grid-list",
         "mlp-log-missing", "mlp-log-unknown", "fpca-grid-count-null",
         "fpca-grid-count-fraction", "dataset-grid-count-string",
         "dataset-provenance-missing", "mlp-log-epochs-string",
         "fpca-grid-count-1", "fpca-grid-count-0", "fpca-grid-count--3",
         "dataset-grid-count-1", "dataset-grid-count-0",
         "dataset-grid-count--3"])
def test_nested_json_keys_checked_by_name(tmp_path, setup, name, edit,
                                          message):
    _, load = setup(tmp_path)
    path = tmp_path / name
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=message) as info:
        load()
    assert str(path) in str(info.value)


@pytest.mark.parametrize("setup, name, key, value, message", [
    (_pfi_file, "y3_pfi.json", "replications", None,
     "replications must be an integer, got None"),
    (_pfi_file, "y3_pfi.json", "replications", "abc",
     "replications must be an integer, got 'abc'"),
    (_pfi_file, "y3_pfi.json", "replications", 2.5,
     "replications must be an integer, got 2.5"),
    (_pfi_file, "y3_pfi.json", "seed", True,
     "seed must be an integer, got True"),
    (_pfi_file, "y3_pfi.json", "n_obs", 8.0,
     "n_obs must be an integer, got 8.0"),
    (_pfi_file, "y3_pfi.json", "baseline_loss", "0.5",
     "baseline_loss must be a number, got '0.5'"),
    (_pfi_file, "y3_pfi.json", "loss", None,
     "loss must be a string, got None"),
    (_pfi_file, "y3_pfi.json", "loss", "hinge",
     "loss must be one of zero_one, squared, got 'hinge'"),
    (_fpca_file("mean.csv"), "fpca.json", "n_train", None,
     "n_train must be an integer, got None"),
    (_fpca_file("mean.csv"), "fpca.json", "n_train", 6.5,
     "n_train must be an integer, got 6.5"),
    (_fpca_file("mean.csv"), "fpca.json", "eigenvalues", "1.0",
     "eigenvalues must be a list, got '1.0'"),
    (_fpca_file("mean.csv"), "fpca.json", "eigenvalues", [1.0, None],
     "each item of eigenvalues must be a number, got None"),
    (_fpca_file("mean.csv"), "fpca.json", "eigenvalues", [1.0, float("inf")],
     "each item of eigenvalues must be a finite number, got inf"),
    (_pfi_file, "y3_pfi.json", "baseline_loss", float("nan"),
     "baseline_loss must be a finite number, got nan"),
    (_dataset_file, "d.json", "provenance", None,
     "provenance must be a JSON object, got None")],
    ids=["pfi-reps-null", "pfi-reps-string", "pfi-reps-fraction",
         "pfi-seed-bool", "pfi-n-obs-float", "pfi-baseline-string",
         "pfi-loss-null", "pfi-loss-unknown", "fpca-n-train-null",
         "fpca-n-train-fraction", "fpca-eigenvalues-string",
         "fpca-eigenvalue-null", "fpca-eigenvalue-inf", "pfi-baseline-nan",
         "dataset-provenance-null"])
def test_json_values_of_another_kind_rejected_by_name(tmp_path, setup, name,
                                                      key, value, message):
    _, load = setup(tmp_path)
    path = tmp_path / name
    meta = json.loads(path.read_text())
    meta[key] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        load()
    assert str(path) in str(info.value)


def test_malformed_json_names_the_file(tmp_path):
    path = tmp_path / "meta.json"
    dataio.write_json(path, {"a": 1, "b": [0.5, "x"]})
    path.write_text(path.read_text()[:12])
    with pytest.raises(ValueError, match="malformed JSON") as info:
        dataio.read_json(path)
    assert str(path) in str(info.value)


# every finite double, -0.0 and subnormals included
_finite = st.floats(allow_nan=False, allow_infinity=False)


def _matrices():
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   max_side=6),
                      elements=_finite)


@st.composite
def _scores_and_y3(draw):
    scores = draw(_matrices())
    return scores, draw(hnp.arrays(np.float64, scores.shape[0],
                                   elements=_finite))


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@settings(max_examples=60, deadline=None)
@given(rows=_matrices())
@example(rows=np.array([[-0.0, 5e-324, -2.2250738585072014e-308,
                         1.7976931348623157e308]]))
def test_table_round_trip_bit_identical(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "table_round_trip.csv"
    header = [f"c{j}" for j in range(rows.shape[1])]
    dataio.write_table_csv(path, header, rows)
    back_header, back = dataio.read_table_csv(path)
    assert back_header == header
    assert _bits_equal(back, rows)


@settings(max_examples=60, deadline=None)
@given(case=_scores_and_y3())
@example(case=(np.array([[-0.0, 5e-324]]), np.array([-5e-324])))
def test_scores_round_trip_bit_identical(tmp_path_factory, case):
    scores, y3 = case
    n = scores.shape[0]
    labels = LabelSet(y1=np.arange(n) % 2, y2=np.arange(n) // 2 % 2, y3=y3)
    path = tmp_path_factory.getbasetemp() / "scores_round_trip.csv"
    dataio.write_scores(path, scores, labels)
    back, back_labels = dataio.read_scores(path)
    assert _bits_equal(back, scores)
    assert _bits_equal(back_labels.y3, y3)
    assert np.array_equal(back_labels.y1, labels.y1)
    assert np.array_equal(back_labels.y2, labels.y2)


@settings(max_examples=40, deadline=None)
@given(grid=grid_fields(2000).map(lambda g: sim.TimeGrid(*g)))
@example(grid=sim.TimeGrid(2, -0.0, 1e-323))
@example(grid=sim.TimeGrid(2000, -8.9e307, 8.9e307))
def test_grid_round_trip_is_identity(tmp_path_factory, grid):
    d = tmp_path_factory.getbasetemp() / "grid_round_trip"
    dataio.write_dataset(make_dataset(np.ones((2, grid.count)),
                                      start=grid.start, stop=grid.stop),
                         d / "d.csv")
    fpca.save_model(fpca.FpcaModel(grid, np.zeros(grid.count),
                                   np.zeros((1, grid.count)), np.ones(1), 2),
                    d)
    for back in (dataio.read_dataset(d / "d.csv").grid,
                 fpca.load_model(d).grid):
        assert back == grid and _bits_equal(back.points, grid.points)


# the nextafter neighbours of the bounds of repr's positional range,
# subnormals, signed zeros and the non-finite values
_EDGES = [x for bound in (1e-4, -1e-4, 1e16, -1e16)
          for x in (np.nextafter(bound, 0.0), bound,
                    np.nextafter(bound, 2 * bound))] + [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    np.nextafter(2.2250738585072014e-308, 0.0), np.nan, np.inf, -np.inf]
_any_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])


@st.composite
def _tables(draw):
    """A table of width 0, 1 or 1100 whose row count ranges over several
    `_format_rows` blocks; each cell is one of a drawn pool of values
    (edges included) or a random bit pattern."""
    width = draw(st.sampled_from([0, 1, 1100]))
    step = max(1, dataio._BLOCK_VALUES // max(width, 1))
    n = draw(st.integers(0, 3 * step + 1))
    pool = np.array(draw(st.lists(st.one_of(_any_bits, st.sampled_from(_EDGES)),
                                  min_size=1, max_size=32)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bits = np.frombuffer(rng.bytes(8 * n * width), dtype=np.float64)
    return np.where(rng.random((n, width)) < 0.5,
                    pool[rng.integers(0, pool.size, size=(n, width))],
                    bits.reshape(n, width))


@settings(max_examples=40, deadline=None)
@given(table=_tables())
@example(table=np.array(_EDGES * 40).reshape(-1, 1))
@example(table=np.zeros((3, 0)))
def test_format_rows_match_repr_byte_for_byte(tmp_path_factory, table):
    want = [format_row_ref(row) for row in table]
    assert list(dataio._format_rows(table)) == want
    assert list(dataio._format_rows(np.asfortranarray(table))) == want
    path = tmp_path_factory.getbasetemp() / "format_rows.csv"
    header = [f"c{j}" for j in range(table.shape[1])]
    dataio.write_table_csv(path, header, table)
    assert path.read_bytes() == "".join(
        line + "\n" for line in [",".join(header)] + want).encode()


@pytest.mark.parametrize("rows", [
    [[1.0, 2.0, 3.0]], [[1.0]], [1.0, 2.0], [[[1.0, 2.0]]]],
    ids=["wider", "narrower", "1-D", "3-D"])
def test_write_table_refuses_a_table_that_does_not_fit_the_header(tmp_path,
                                                                  rows):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError) as info:
        dataio.write_table_csv(path, ["a", "b"], rows)
    assert str(path) in str(info.value)
    assert list(tmp_path.iterdir()) == []


def test_scores_wrong_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("a,b,y1,y2,y3\n0.0,0.0,0,0,0.5\n")
    with pytest.raises(ValueError, match="score-matrix"):
        dataio.read_scores(path)


def test_table_column_count_mismatch(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1.0,2.0\n")
    with pytest.raises(ValueError, match="columns"):
        dataio.read_table_csv(path)


def test_params_from_sidecar(tmp_path):
    params = sim.SimParams(noise_sd=0.05, y2_gain=0.9)
    ds = sim.generate_dataset(3, params, seed=11, grid=sim.TimeGrid(20))
    path = tmp_path / "d.csv"
    dataio.write_dataset(ds, path)
    side = dataio.read_json(dataio.sidecar_path(path))
    assert sim.SimParams.from_dict(side["provenance"]["params"]) == params


def test_json_round_trip(tmp_path):
    path = tmp_path / "meta.json"
    obj = {"a": 1, "b": [0.5, "x"], "c": {"d": None}}
    dataio.write_json(path, obj)
    assert dataio.read_json(path) == obj
    with pytest.raises(FileNotFoundError, match="missing artifact"):
        dataio.read_json(tmp_path / "nope.json")


def _lines_then_fail(count):
    for i in range(count):
        yield f"line {i}"
    raise RuntimeError("writer failed")


def test_failed_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "table.csv"
    dataio._write_lines(path, ["old", "bytes"])
    with pytest.raises(RuntimeError, match="writer failed"):
        dataio._write_lines(path, _lines_then_fail(1000))
    assert path.read_bytes() == b"old\nbytes\n"
    with pytest.raises(RuntimeError, match="writer failed"):
        dataio._write_lines(tmp_path / "new.csv", _lines_then_fail(3))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
