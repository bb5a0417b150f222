"""Synthetic checkerboard data, CSV ingest/emit, and missing-value corruption."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Dataset, RandomSource, _integer, _non_finite_cell, _number, _real, _whole

__all__ = [
    "CheckerboardSpec",
    "generate_checkerboard",
    "corrupt_missing",
    "LoadedCsv",
    "load_csv",
    "load_features",
    "load_table",
    "save_csv",
]


@dataclass(frozen=True)
class CheckerboardSpec:
    """A grid of isotropic Gaussians with alternating class parity.

    Components sit at the integer points (r, c) of a grid_size x grid_size
    board with unit spacing; component (r, c) belongs to class (r + c) mod 2,
    so class 1 (the minority) holds the odd-parity cells. Every sample picks
    one of its class's components uniformly, then adds N(0, cov_scale * I)
    noise.

    Every field is checked when the spec is made: the counts, `grid_size`
    and `seed` must be integers, and `seed` a 64-bit unsigned one.
    """

    cov_scale: float = 0.1
    n_minority: int = 1000
    n_majority: int = 10000
    seed: int = 0
    grid_size: int = 4

    def __post_init__(self):
        if not _real(self, "cov_scale") > 0:
            raise ValueError(f"cov_scale must be positive, got {self.cov_scale}")
        if _whole(self, "n_minority") < 1 or _whole(self, "n_majority") < 1:
            raise ValueError("both class counts must be positive")
        _whole(self, "grid_size", 2)
        RandomSource(_whole(self, "seed"))

    def class_means(self, cls: int) -> np.ndarray:
        """Component centers of one class, in row-major grid order."""
        points = [
            (float(r), float(c))
            for r in range(self.grid_size)
            for c in range(self.grid_size)
            if (r + c) % 2 == cls
        ]
        return np.asarray(points, dtype=np.float64)


def generate_checkerboard(spec: CheckerboardSpec) -> Dataset:
    """Sample a dataset from a checkerboard spec, with streams drawn from spec.seed.

    Majority rows come first, then minority rows.
    """
    rng = RandomSource(spec.seed)
    sigma = math.sqrt(spec.cov_scale)
    parts = []
    labels = []
    for cls, count, stream in (
        (0, spec.n_majority, rng.child("majority")),
        (1, spec.n_minority, rng.child("minority")),
    ):
        means = spec.class_means(cls)
        gen = stream.generator
        components = gen.integers(0, means.shape[0], size=count)
        noise = gen.normal(0.0, sigma, size=(count, 2))
        parts.append(means[components] + noise)
        labels.append(np.full(count, cls, dtype=np.int64))
    return Dataset(np.vstack(parts), np.concatenate(labels), feature_names=("x0", "x1"))


def corrupt_missing(data: Dataset, missing_ratio: float, rng: RandomSource) -> Dataset:
    """Zero out a uniformly chosen fraction of feature cells.

    Exactly floor(missing_ratio * n_cells) distinct cells are set to 0.0;
    labels are untouched. missing_ratio must lie in [0, 1).
    """
    missing_ratio = _number(missing_ratio, "missing_ratio")
    if not 0.0 <= missing_ratio < 1.0:
        raise ValueError(f"missing_ratio must lie in [0, 1), got {missing_ratio}")
    n_cells = data.n_samples * data.n_features
    count = int(missing_ratio * n_cells)
    if count == 0:
        return Dataset(data.features, data.labels, data.feature_names)
    flat = rng.generator.choice(n_cells, size=count, replace=False)
    features = data.features.copy()
    features[np.unravel_index(flat, features.shape)] = 0.0
    return Dataset(features, data.labels, data.feature_names)


class LoadedCsv(NamedTuple):
    data: Dataset
    n_missing: int


def _resolve_label_column(header, label_column):
    if isinstance(label_column, str):
        if label_column not in header:
            raise ValueError(
                f"label column {label_column!r} not found; header: {header}"
            )
        return header.index(label_column)
    position = _integer(label_column, "label_column")
    try:
        header[position]
    except IndexError:
        raise ValueError(
            f"label column index {position} out of range for {len(header)} columns"
        ) from None
    return position % len(header)


# Rows per block of the CSV reader and writer. The reader holds one block's
# cell strings at a time and converts it a column at a time; the writer
# formats one block's text at a time. On an 11,000-row board, load and save
# times were flat from 256 to 4096 rows per block and slower from 8192, while
# load_csv's tracemalloc peak grew from 0.75 MB at 1024 to 2.05 MB at 4096.
_CSV_BLOCK = 1024


def _row_blocks(reader):
    """The rows of a csv reader in lists of `_CSV_BLOCK`.

    An error from the reader (an oversized field, an undecodable byte) is
    raised only after the rows read before it are yielded, so that an error
    in an earlier row still comes first.
    """
    rows = []
    try:
        for row in reader:
            rows.append(row)
            if len(rows) == _CSV_BLOCK:
                yield rows
                rows = []
    except (csv.Error, ValueError):
        if rows:
            yield rows
        raise
    if rows:
        yield rows


def _convert_block(path, header, rows, first_row, label_pos, missing_token):
    """(feature matrix, label cells, count of missing cells) of rows that all
    have the header's length; `first_row` is the row number of rows[0].

    Missing-token cells are counted and replaced first, then each feature
    column is converted with one `float` pass. If a column fails, the rows
    are scanned cell by cell for the leftmost bad cell of the first bad row.
    """
    block = np.empty((len(rows), len(header) - (label_pos is not None)), dtype=np.float64)
    labels = ()
    n_missing = 0
    column = 0
    for i, cells in enumerate(zip(*rows)):
        if i == label_pos:
            labels = cells
            continue
        missing = cells.count(missing_token)
        if missing:
            n_missing += missing
            cells = [0.0 if cell == missing_token else cell for cell in cells]
        try:
            block[:, column] = np.fromiter(map(float, cells), dtype=np.float64,
                                           count=len(rows))
        except ValueError:
            _raise_first_bad_cell(path, header, rows, first_row, label_pos, missing_token)
        column += 1
    return block, labels, n_missing


def _raise_first_bad_cell(path, header, rows, first_row, label_pos, missing_token):
    for line_no, row in enumerate(rows, start=first_row):
        for i, cell in enumerate(row):
            if i == label_pos or cell == missing_token:
                continue
            try:
                float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: column {header[i]!r} has non-numeric value {cell!r} "
                    f"at row {line_no}; encode categorical columns before loading"
                ) from None


def _read_csv(path, label_column, missing_token, label_optional):
    """Parse a headered CSV a block of rows at a time.

    Returns (feature names, feature matrix, raw label cells, count of missing
    cells). With `label_optional`, a label column named but absent from the
    header leaves every column a feature and no label cells; a `label_column`
    of None names no label column. A `missing_token` of None matches no cell.

    The first error raised is the one a row-major, cell-by-cell pass meets
    first: a row's length is checked before its cells, and within a row the
    leftmost bad cell is reported. Non-finite values are checked last, over
    the whole matrix.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty; a header row is required") from None
        if label_column is None or (
            label_optional and isinstance(label_column, str) and label_column not in header
        ):
            label_pos = None
        else:
            label_pos = _resolve_label_column(header, label_column)
        feature_names = [name for i, name in enumerate(header) if i != label_pos]
        blocks = []
        raw_labels = []
        n_missing = 0
        first_row = 2
        for rows in _row_blocks(reader):
            if set(map(len, rows)) != {len(header)}:
                r = next(r for r, row in enumerate(rows) if len(row) != len(header))
                # The rows above a ragged row are checked before it.
                _convert_block(path, header, rows[:r], first_row, label_pos, missing_token)
                raise ValueError(
                    f"{path}: row {first_row + r} has {len(rows[r])} cells, "
                    f"expected {len(header)}"
                )
            block, labels, missing = _convert_block(
                path, header, rows, first_row, label_pos, missing_token
            )
            blocks.append(block)
            raw_labels.extend(labels)
            n_missing += missing
            first_row += len(rows)
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    features = np.concatenate(blocks)
    bad = _non_finite_cell(features)
    if bad is not None:
        row, column = bad
        raise ValueError(
            f"{path}: column {feature_names[column]!r} has non-finite value "
            f"{features[row, column]} at row {row + 2}"
        )
    return feature_names, features, raw_labels, n_missing


def load_csv(path, label_column="label", positive_label="1", missing_token="") -> LoadedCsv:
    """Read a headered CSV into a Dataset.

    `label_column` is a header name or a column index (negatives count from
    the end). Label values equal to `positive_label` map to 1, the rest to 0;
    more than two distinct label values is an error. Feature cells equal to
    `missing_token` are imputed as 0.0 and counted; any other non-numeric or
    non-finite feature cell is an error naming the row and column.
    """
    feature_names, features, raw_labels, n_missing = _read_csv(
        path, label_column, missing_token, label_optional=False
    )
    distinct = sorted(set(raw_labels))
    if len(distinct) > 2:
        raise ValueError(
            f"{path}: label column has {len(distinct)} distinct values {distinct}; "
            f"binary labels allow at most two"
        )
    labels = np.fromiter(
        (1 if raw == str(positive_label) else 0 for raw in raw_labels),
        dtype=np.int64,
        count=len(raw_labels),
    )
    return LoadedCsv(Dataset(features, labels, feature_names), n_missing)


def load_features(path, label_column="label", missing_token="") -> np.ndarray:
    """Feature matrix of a headered CSV, without its label column if it has one.

    A named `label_column` may be absent, and then every column is a feature;
    an index always names the label column. Cells are read and checked as
    `load_csv` reads them.
    """
    return _read_csv(path, label_column, missing_token, label_optional=True)[1]


def load_table(path):
    """(header, matrix) of a headered CSV in which every cell is a finite number.

    No cell counts as missing; cells are read and checked as `load_csv`
    reads feature cells.
    """
    names, table, _, _ = _read_csv(path, None, None, label_optional=True)
    return names, table


def save_csv(data: Dataset, path) -> None:
    """Write a Dataset as a headered CSV with 17-significant-digit reals.

    The header goes through `csv.writer`, which quotes names that need it.
    Rows are formatted a block at a time with one format string, `{:.17g}`
    per feature and the integer label, over Python floats and ints.
    """
    names = data.feature_names or tuple(f"x{i}" for i in range(data.n_features))
    line = ",".join(["{:.17g}"] * data.n_features + ["{}"]) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(list(names) + ["label"])
        for start in range(0, data.n_samples, _CSV_BLOCK):
            rows = data.features[start:start + _CSV_BLOCK].tolist()
            labels = data.labels[start:start + _CSV_BLOCK].tolist()
            handle.write("".join(
                line.format(*row, label) for row, label in zip(rows, labels)
            ))
