"""Reference CSV writer and reader: one row and one cell at a time.

These are the `save_csv` and `_read_csv` that `selfpaced.data` used before
it formatted and parsed a block of rows a column at a time. They are kept as
oracles: for the same inputs the library must write the same bytes, return
the same arrays and raise the same first error with the same message.
`reference_load_csv` and `reference_load_features` wrap the reference reader
as `load_csv` and `load_features` wrap the library's.
"""
import csv

import numpy as np

from selfpaced.core import Dataset, _non_finite_cell
from selfpaced.data import LoadedCsv, _resolve_label_column


def reference_save_csv(data, path):
    """Write a Dataset row by row through `csv.writer`."""
    names = data.feature_names or tuple(f"x{i}" for i in range(data.n_features))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(names) + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([f"{value:.17g}" for value in row] + [int(label)])


def reference_read_csv(path, label_column, missing_token, label_optional):
    """(feature names, feature matrix, raw label cells, count of missing cells),
    converting one cell at a time in row-major order."""
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


def reference_load_csv(path, label_column="label", positive_label="1", missing_token=""):
    feature_names, features, raw_labels, n_missing = reference_read_csv(
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


def reference_load_features(path, label_column="label", missing_token=""):
    return reference_read_csv(path, label_column, missing_token, label_optional=True)[1]
