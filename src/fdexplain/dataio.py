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
kind of its value against the one shape that the file's loader declares
and accepts only finite numbers; every CSV table by `read_table_csv`,
which accepts only finite JSON numbers (the form the writer prints) in
rows as wide as the header and, the mirror of `_format_rows`, reads a
block of rows at a time with orjson. Either reader refuses a file with
an error that starts with its path.
"""

import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import asdict
from itertools import chain, islice
from pathlib import Path

import numpy as np
import orjson

from ._config import _checked
from .sim import Dataset, LabelSet, TimeGrid

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


@contextmanager
def _in_file(path: Path):
    """Re-raise a ValueError of the block as one starting with `path`."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    with _in_file(path):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON: {exc}") from None
        return _checked_json(obj, example)


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
    of the labelled writers), below `skiprows` leading lines, each value
    the bits `float` reads from its cell. Any rows but a table of finite
    JSON numbers as wide as the header are refused, naming `path`: no
    rows, a ragged row, a cell that is no number, nan or inf. The lines
    are streamed and parsed about `_BLOCK_VALUES` values at a time
    (`_parse_block`); when a block is refused, `_first_fault` names the
    first faulty row of the file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path}")
    with open(path, encoding="utf-8") as fh, _in_file(path):
        for _ in range(skiprows):
            fh.readline()
        header = fh.readline().strip().split(",")
        body = fh.tell()
        lines = _data_lines(fh)
        step = max(1, _BLOCK_VALUES // len(header))
        try:
            blocks = [_parse_block(rows) for rows in
                      iter(lambda: list(islice(lines, step)), [])]
            data = np.concatenate(blocks) if blocks else None
        except ValueError as exc:
            fh.seek(body)
            raise ValueError(_first_fault(fh, len(header))
                             or str(exc)) from None
        if data is None:
            raise ValueError("no data rows below the header")
        if data.shape[1] != len(header):
            raise ValueError(f"header has {len(header)} columns, rows have "
                             f"{data.shape[1]}")
        if not np.isfinite(data).all():
            row, col = np.argwhere(~np.isfinite(data))[0]
            raise ValueError(f"non-finite value in data row {row + 1}, "
                             f"column {col + 1}")
    return header, data


def _data_lines(lines):
    """The CSV data `lines` without their newlines; empty lines (those
    `np.loadtxt` skips) are left out and not counted as rows."""
    return (line.rstrip("\n") for line in lines if line != "\n")


# marks of a JSON value that is no number: the first letters of true,
# false and null, a string's quote and an object's brace
_NOT_NUMBER = ("t", "f", "n", '"', "{")
# a cell holding the integer -0, which orjson reads as 0, without its sign
_MINUS_ZERO = re.compile(r"-0[],\s]")


def _parse_block(rows: list[str]) -> np.ndarray:
    """The float table of the CSV data lines `rows`, read by one orjson
    call as a JSON array of arrays; a ValueError unless each row is a list
    of JSON numbers as long as the others. orjson reads each number to the
    bits `float` gives, but `-0` to the integer 0, so a block holding a
    `-0` cell is read again by `float`."""
    text = "[[" + "],[".join(rows) + "]]"
    if any(mark in text for mark in _NOT_NUMBER):
        raise ValueError("a cell is no number")
    block = np.array(orjson.loads(text), dtype=np.float64)
    # a bracket in a row would nest a list or add a row
    if block.ndim != 2 or len(block) != len(rows):
        raise ValueError("a row is no list of numbers")
    if (block == 0.0).any() and _MINUS_ZERO.search(text):
        block = np.array([[float(cell) for cell in row.split(",")]
                          for row in rows])
    return block


def _is_number(cell: str) -> bool:
    """Whether `cell` holds a finite JSON number, with optional spaces."""
    try:
        return type(orjson.loads(cell)) in (int, float)
    except orjson.JSONDecodeError:
        return False


def _first_fault(lines, width: int) -> str | None:
    """The first row of the CSV data `lines` that is not `width` cells
    wide or holds a cell that is not a finite JSON number, numbering rows
    (empty lines aside) and columns from 1; None if there is none."""
    for row, line in enumerate(_data_lines(lines), 1):
        cells = line.split(",")
        if len(cells) != width:
            return f"data row {row} has {len(cells)} cells, the header has {width}"
        for col, cell in enumerate(cells, 1):
            if _is_number(cell):
                continue
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                finite = True
            if not finite:
                return f"non-finite value in data row {row}, column {col}"
            return f"data row {row}, column {col}: {cell!r} is not a number"
    return None


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
    value columns and the label columns; every y1/y2 cell must be exactly
    0 or 1."""
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


# the shapes of a saved grid (`TimeGrid`'s fields, so a grid is read back
# as `TimeGrid(**meta["grid"])`) and of a dataset's JSON sidecar
GRID = asdict(TimeGrid())
_SIDECAR = {"grid": GRID, "provenance": {}}


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
        "grid": asdict(dataset.grid),
        "provenance": dataset.provenance,
    })


def read_dataset(csv_path: Path) -> Dataset:
    header, data = read_table_csv(csv_path)
    side_path = sidecar_path(csv_path)
    side = read_json(side_path, _SIDECAR)
    with _in_file(side_path):
        grid = TimeGrid(**side["grid"])
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
