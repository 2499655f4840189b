"""Artifact IO: exact float round trips and format validation."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdexplain import dataio, explain, fpca, mlp, sim
from fdexplain.sim import LabelSet

from helpers import make_dataset


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


@pytest.mark.parametrize("setup", [
    _scores_file, _dataset_file, _fpca_file("mean.csv"),
    _fpca_file("eigenfunctions.csv"), _pfi_file, _layer_file],
    ids=["scores", "dataset", "mean", "eigenfunctions", "pfi", "layer"])
def test_header_only_table_rejected_by_name(tmp_path, setup):
    path, load = setup(tmp_path)
    path.write_text(path.read_text().partition("\n")[0] + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows") as info:
            load()
    assert str(path) in str(info.value)


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
     "log: unknown key 'momentum'")],
    ids=["dataset-grid-empty", "fpca-grid-key", "fpca-grid-list",
         "mlp-log-missing", "mlp-log-unknown"])
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
    ds = sim.generate_dataset(3, params, seed=11, grid=sim.default_grid(20))
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
