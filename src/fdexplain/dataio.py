"""File formats: dataset CSV + JSON sidecar, score matrices, generic tables.

All floats are written as shortest round-trip decimals (Python repr), so
file -> load -> file is byte-stable and downstream numbers are exact.
"""

import json
from pathlib import Path

import numpy as np

from .sim import Dataset, LabelSet, SimParams, TimeGrid

FORMAT_VERSION = 1


def _format_row(row) -> str:
    """One CSV line body: each value as a float64 in shortest round-trip
    form (Python repr), so nan, inf and -0.0 survive too."""
    return ",".join(map(repr, np.asarray(row, dtype=np.float64).tolist()))


def write_json(path: Path, obj: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_table_csv(path: Path, header: list[str], rows) -> None:
    """Write a float table; rows may be a 2-D array or list of sequences."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(_format_row(row) + "\n")


def write_text_csv(path: Path, header: list[str], rows) -> None:
    """Write a table of already formatted string cells."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def read_table_csv(path: Path) -> tuple[list[str], np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path}")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)
    if data.size and data.shape[1] != len(header):
        raise ValueError(f"{path}: header has {len(header)} columns, "
                         f"rows have {data.shape[1]}")
    return header, data


def _write_labelled(csv_path: Path, header: list[str], values: np.ndarray,
                    labels: LabelSet) -> None:
    """Write float rows each followed by the integer y1, y2 and float y3
    labels."""
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(values.shape[0]):
            fh.write(f"{_format_row(values[i])},{int(labels.y1[i])},"
                     f"{int(labels.y2[i])},{float(labels.y3[i])!r}\n")


def _split_labels(path: Path, data: np.ndarray,
                  width: int) -> tuple[np.ndarray, LabelSet]:
    """Split a table read back from `_write_labelled` into its `width`
    value columns and the label columns; every cell must be finite and
    every y1/y2 cell exactly 0 or 1."""
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}: non-finite value in data row {row + 1}, "
                         f"column {col + 1}")
    classes = data[:, width:width + 2]
    bad = np.argwhere((classes != 0.0) & (classes != 1.0))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}: label y{col + 1} is "
                         f"{float(classes[row, col])!r}, not 0 or 1, in "
                         f"data row {row + 1}, column {width + col + 1}")
    return np.ascontiguousarray(data[:, :width]), LabelSet(
        y1=data[:, width].astype(np.int64),
        y2=data[:, width + 1].astype(np.int64),
        y3=data[:, width + 2].copy())


def grid_to_dict(grid: TimeGrid) -> dict:
    return {"start": grid.start, "stop": grid.stop, "count": grid.count}


def grid_from_dict(d: dict) -> TimeGrid:
    return TimeGrid(np.linspace(d["start"], d["stop"], d["count"]))


def sidecar_path(csv_path: Path) -> Path:
    return Path(csv_path).with_suffix(".json")


def dataset_header(m: int) -> list[str]:
    return [f"t_{i}" for i in range(m)] + ["y1", "y2", "y3"]


def write_dataset(dataset: Dataset, csv_path: Path) -> None:
    """Write `<name>.csv` (values + labels) and a `<name>.json` sidecar."""
    csv_path = Path(csv_path)
    _write_labelled(csv_path, dataset_header(dataset.grid.count),
                    dataset.values, dataset.labels)
    write_json(sidecar_path(csv_path), {
        "format_version": FORMAT_VERSION,
        "grid": grid_to_dict(dataset.grid),
        "provenance": dataset.provenance,
    })


def read_dataset(csv_path: Path) -> Dataset:
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise FileNotFoundError(f"missing artifact: {csv_path}")
    side = read_json(sidecar_path(csv_path))
    grid = grid_from_dict(side["grid"])
    header, data = read_table_csv(csv_path)
    if header != dataset_header(grid.count):
        raise ValueError(f"{csv_path}: header does not match dataset format "
                         f"for a {grid.count}-point grid")
    values, labels = _split_labels(csv_path, data, grid.count)
    return Dataset(grid, values, labels, side.get("provenance", {}))


def params_from_sidecar(csv_path: Path) -> SimParams:
    side = read_json(sidecar_path(csv_path))
    return SimParams.from_dict(side["provenance"]["params"])


def scores_header(r: int) -> list[str]:
    return [f"fpc_{j + 1}" for j in range(r)] + ["y1", "y2", "y3"]


def write_scores(csv_path: Path, scores: np.ndarray, labels: LabelSet) -> None:
    _write_labelled(Path(csv_path), scores_header(scores.shape[1]), scores,
                    labels)


def read_scores(csv_path: Path) -> tuple[np.ndarray, LabelSet]:
    header, data = read_table_csv(csv_path)
    r = len(header) - 3
    if r < 1 or header != scores_header(r):
        raise ValueError(f"{csv_path}: not a score-matrix file")
    return _split_labels(csv_path, data, r)
