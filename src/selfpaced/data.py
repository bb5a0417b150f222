"""Synthetic checkerboard data, CSV ingest/emit, and missing-value corruption."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Dataset, RandomSource, _non_finite_cell

__all__ = [
    "CheckerboardSpec",
    "generate_checkerboard",
    "corrupt_missing",
    "LoadedCsv",
    "load_csv",
    "load_features",
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
    """

    cov_scale: float = 0.1
    n_minority: int = 1000
    n_majority: int = 10000
    seed: int = 0
    grid_size: int = 4

    def __post_init__(self):
        if not self.cov_scale > 0:
            raise ValueError(f"cov_scale must be positive, got {self.cov_scale}")
        if self.n_minority < 1 or self.n_majority < 1:
            raise ValueError("both class counts must be positive")
        if self.grid_size < 2:
            raise ValueError(f"grid_size must be >= 2, got {self.grid_size}")

    def class_means(self, cls: int) -> np.ndarray:
        """Component centers of one class, in row-major grid order."""
        points = [
            (float(r), float(c))
            for r in range(self.grid_size)
            for c in range(self.grid_size)
            if (r + c) % 2 == cls
        ]
        return np.asarray(points, dtype=np.float64)


def generate_checkerboard(spec: CheckerboardSpec, rng: RandomSource | None = None) -> Dataset:
    """Sample a dataset from a checkerboard spec.

    Majority rows come first, then minority rows. Passing `rng` overrides the
    stream derived from spec.seed.
    """
    if rng is None:
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
    missing_ratio = float(missing_ratio)
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
    position = int(label_column)
    try:
        header[position]
    except IndexError:
        raise ValueError(
            f"label column index {position} out of range for {len(header)} columns"
        ) from None
    return position % len(header)


def _read_csv(path, label_column, missing_token, label_optional):
    """Parse a headered CSV in one pass.

    Returns (feature names, feature matrix, raw label cells, count of missing
    cells). With `label_optional`, a label column named but absent from the
    header leaves every column a feature and no label cells.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty; a header row is required") from None
        if label_optional and isinstance(label_column, str) and label_column not in header:
            label_pos = None
        else:
            label_pos = _resolve_label_column(header, label_column)
        feature_names = [name for i, name in enumerate(header) if i != label_pos]
        rows = []
        raw_labels = []
        n_missing = 0
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {line_no} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            values = []
            for i, cell in enumerate(row):
                if i == label_pos:
                    raw_labels.append(cell)
                    continue
                if cell == missing_token:
                    values.append(0.0)
                    n_missing += 1
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    name = header[i]
                    raise ValueError(
                        f"{path}: column {name!r} has non-numeric value {cell!r} "
                        f"at row {line_no}; encode categorical columns before loading"
                    ) from None
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)
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


def save_csv(data: Dataset, path) -> None:
    """Write a Dataset as a headered CSV with 17-significant-digit reals."""
    names = data.feature_names or tuple(f"x{i}" for i in range(data.n_features))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(names) + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([f"{value:.17g}" for value in row] + [int(label)])
