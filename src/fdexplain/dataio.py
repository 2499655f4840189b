"""File formats: dataset CSV + JSON sidecar, score matrices, generic tables.

All floats are written as shortest round-trip decimals, byte for byte as
Python repr writes them, so file -> load -> file is byte-stable and
downstream numbers are exact. `_format_rows` prints a table a block at a
time with orjson, whose shortest digits equal repr's; the values that
repr writes with an exponent or as a word are patched in by repr itself.
Every text artifact of the package (JSON, CSV, SVG, the Markdown report)
is written by `_write_lines`, the one place that decides encoding, line
endings, parent-directory creation and the atomic replacement of a file.
Every JSON artifact is read by `read_json`, which checks each key and the
kind of its value against the one shape that the file's loader declares.
"""

import json
import os
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from ._config import _checked
from .sim import Dataset, LabelSet, TimeGrid, default_grid

FORMAT_VERSION = 1

# values per orjson call: large enough to amortize the call, small enough
# that a block's text stays a small fraction of the run's memory
_BLOCK_VALUES = 8192
# repr writes |x| in [1e-4, 1e16) positionally, as orjson does; outside
# that range (zero aside) it uses an exponent, and nan and inf are words
_POSITIONAL = (1e-4, 1e16)


def _format_rows(table: np.ndarray):
    """The CSV line bodies of a 2-D table, one per row: each value as a
    float64 in shortest round-trip form, byte for byte
    `",".join(map(repr, row))`, so nan, inf and -0.0 survive too.

    Rows are printed a block of about `_BLOCK_VALUES` values at a time by
    one orjson call. Values that repr writes with an exponent or as a
    word are zeroed for that call and then replaced by their repr."""
    n, width = table.shape
    step = max(1, _BLOCK_VALUES // max(width, 1))
    for start in range(0, n, step):
        raw = table[start:start + step]
        block = np.array(raw, dtype=np.float64, order="C")
        size = np.abs(block)
        odd = ~((size >= _POSITIONAL[0]) & (size < _POSITIONAL[1])) \
            & (block != 0.0)
        block[odd] = 0.0
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        lines = text[2:-2].decode().split("],[")
        for r in np.flatnonzero(odd.any(axis=1)).tolist():
            cells = lines[r].split(",")
            for j in np.flatnonzero(odd[r]).tolist():
                cells[j] = repr(float(raw[r, j]))
            lines[r] = ",".join(cells)
        yield from lines


def _write_lines(path: Path, lines) -> None:
    """Write `lines`, each string newline-terminated, to `path` as UTF-8,
    creating the parent directory. `lines` may be a generator: writing
    line by line keeps a large table out of memory as one string.

    The lines go to `<path>.tmp`, which then replaces `path` in one step,
    so a writer that fails part way leaves no truncated file: the temp
    file is removed and any earlier file at `path` keeps its bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, obj: dict) -> None:
    _write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


def _checked_json(obj, example: dict, entry: str = "") -> dict:
    """`obj` if it holds every key of `example` with a value of that
    example's JSON kind (`_config._checked`), else a ValueError naming the
    key within `entry`. A nested object, which its loader unpacks into a
    record, may hold no other key; an empty example `{}` is any object."""
    where = f"{entry}: " if entry else ""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}not a JSON object")
    unknown = sorted(set(obj).difference(example)) if entry else []
    if unknown:
        raise ValueError(f"{where}unknown key {unknown[0]!r}")
    checked = dict(obj)
    for key, kind in example.items():
        if key not in obj:
            raise ValueError(f"{where}missing key {key!r}")
        name = f"{entry}.{key}" if entry else key
        if isinstance(kind, dict) and kind:
            checked[key] = _checked_json(obj[key], kind, name)
        else:
            checked[key] = _checked(obj[key], kind, name)
    return checked


def _parse_json(text: str, path: Path, example: dict) -> dict:
    """The JSON object in `text` from `path`, checked against `example`."""
    try:
        return _checked_json(json.loads(text), example)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path: Path, example: dict = {}) -> dict:
    """The JSON object in `path`, of the shape `example` (`_checked_json`)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path}")
    return _parse_json(path.read_text(encoding="utf-8"), path, example)


def write_table_csv(path: Path, header: list[str], rows) -> None:
    """Write a float table; rows may be a 2-D array or list of sequences,
    one value per header column. A table of another shape is refused,
    naming `path`, and nothing is written."""
    table = np.asarray(rows, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"{path}: expected a 2-D table of {len(header)} "
                         f"columns to match the header, got shape "
                         f"{table.shape}")
    _write_lines(path, chain([",".join(header)], _format_rows(table)))


def read_table_csv(path: Path, skiprows: int = 0) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV written by `write_table_csv` (or one
    of the labelled writers), below `skiprows` leading lines; a file
    without data rows is an error."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path}")
    with open(path, encoding="utf-8") as fh:
        for _ in range(skiprows):
            fh.readline()
        header = fh.readline().strip().split(",")
        # stops at the first data line; np.loadtxt would warn on none
        if not any(line.strip() for line in fh):
            raise ValueError(f"{path}: no data rows below the header")
    data = np.loadtxt(path, delimiter=",", skiprows=skiprows + 1, ndmin=2,
                      dtype=np.float64)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: header has {len(header)} columns, "
                         f"rows have {data.shape[1]}")
    return header, data


def _write_labelled(csv_path: Path, header: list[str], values: np.ndarray,
                    labels: LabelSet) -> None:
    """Write float rows each followed by the integer y1, y2 and float y3
    labels."""
    _write_lines(csv_path, chain([",".join(header)], (
        f"{line},{int(y1)},{int(y2)},{float(y3)!r}"
        for line, y1, y2, y3 in zip(_format_rows(values), labels.y1,
                                    labels.y2, labels.y3))))


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


# the shapes of a saved grid (`default_grid`'s arguments, so a grid is read
# back as `default_grid(**meta["grid"])`) and of a dataset's JSON sidecar
GRID = {"count": 0, "start": 0.0, "stop": 0.0}
_SIDECAR = {"grid": GRID, "provenance": {}}


def grid_to_dict(grid: TimeGrid) -> dict:
    return {"start": grid.start, "stop": grid.stop, "count": grid.count}


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
    header, data = read_table_csv(csv_path)
    side = read_json(sidecar_path(csv_path), _SIDECAR)
    grid = default_grid(**side["grid"])
    if header != dataset_header(grid.count):
        raise ValueError(f"{csv_path}: header does not match dataset format "
                         f"for a {grid.count}-point grid")
    values, labels = _split_labels(csv_path, data, grid.count)
    return Dataset(grid, values, labels, side["provenance"])


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
