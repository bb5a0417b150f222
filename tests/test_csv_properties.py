"""Property tests for the CSV writer and reader against the row-by-row,
cell-by-cell reference in `csv_reference.py`.

The writer must write the reference's bytes. On generated CSV text the
reader must return the reference's names, matrix, labels and missing count
bit for bit, or raise the reference's first error with the same message.
The block size is drawn small, so a few rows already span several blocks.
"""
import csv
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from csv_reference import (
    reference_load_csv,
    reference_load_features,
    reference_save_csv,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from selfpaced import data as data_module
from selfpaced.core import Dataset
from selfpaced.data import (
    _CSV_BLOCK,
    CheckerboardSpec,
    generate_checkerboard,
    load_csv,
    load_features,
    save_csv,
)

BLOCKS = st.integers(min_value=1, max_value=4)
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308,
                     0.1, 1e16, 123456789.0]),
)
NAMES = st.text(alphabet='ab ,"\n\r\'x_', min_size=0, max_size=5)


def outcome(fn, *args, **kwargs):
    """("ok", result) or ("error", exception type, message)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (ValueError, csv.Error) as exc:
        return ("error", type(exc), str(exc))


@st.composite
def datasets(draw):
    n_rows = draw(st.integers(min_value=0, max_value=9))
    n_features = draw(st.integers(min_value=0, max_value=3))
    features = np.array(
        draw(st.lists(st.lists(FINITE, min_size=n_features, max_size=n_features),
                      min_size=n_rows, max_size=n_rows)),
        dtype=np.float64,
    ).reshape(n_rows, n_features)
    labels = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    names = draw(st.none() | st.lists(NAMES, min_size=n_features, max_size=n_features))
    return Dataset(features, np.array(labels, dtype=np.int64), names)


@settings(max_examples=150, deadline=None, database=None)
@given(data=datasets(), block=BLOCKS)
def test_save_csv_writes_the_reference_bytes(data, block):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = os.path.join(tmp, "ours.csv"), os.path.join(tmp, "ref.csv")
        with mock.patch.object(data_module, "_CSV_BLOCK", block):
            save_csv(data, ours)
        reference_save_csv(data, theirs)
        with open(ours, "rb") as a, open(theirs, "rb") as b:
            assert a.read() == b.read()


FEATURE_CELLS = st.sampled_from([
    "0.5", "-1.25", "3", "1e-300", "5e-324", "-0", "0.1", " 2.5", "7 ", "\t4\n",
    "1_000", "1_0.5", "+6", ".5", "1e999", "-1e999", "nan", "NaN", "inf", "-Infinity",
    "", "NA", "abc", "1,5", '"2"', "1__0", "0x10", "١٢", "2.5.1",
])
LABEL_CELLS = st.sampled_from(["0", "1", "spam", " 1", ""])
HEADER_NAMES = st.sampled_from(["label", "x0", "x1", "a,b", 'q"t', "target", ""])


@st.composite
def csv_texts(draw):
    header = draw(st.lists(HEADER_NAMES, min_size=0, max_size=4))
    n_rows = draw(st.integers(min_value=0, max_value=8))
    rows = []
    for _ in range(n_rows):
        width = len(header)
        if draw(st.integers(0, 9)) == 0:
            width = draw(st.integers(min_value=0, max_value=5))
        rows.append([
            draw(LABEL_CELLS) if i < len(header) and header[i] == "label"
            else draw(FEATURE_CELLS)
            for i in range(width)
        ])
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    return header, rows, quoting


def write_text(path, header, rows, quoting):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n", quoting=quoting)
        if header or rows:
            writer.writerow(header)
        writer.writerows(rows)


def assert_same_load(path, label_column, missing_token, block):
    with mock.patch.object(data_module, "_CSV_BLOCK", block):
        ours = outcome(load_csv, path, label_column=label_column,
                       missing_token=missing_token)
        ours_features = outcome(load_features, path, label_column=label_column,
                                missing_token=missing_token)
    theirs = outcome(reference_load_csv, path, label_column=label_column,
                     missing_token=missing_token)
    theirs_features = outcome(reference_load_features, path, label_column=label_column,
                              missing_token=missing_token)
    assert ours[0] == theirs[0]
    if ours[0] == "error":
        assert ours == theirs
    else:
        got, want = ours[1], theirs[1]
        assert got.n_missing == want.n_missing
        assert got.data.feature_names == want.data.feature_names
        assert got.data.features.shape == want.data.features.shape
        # Bytes tell -0.0 from 0.0.
        assert got.data.features.tobytes() == want.data.features.tobytes()
        assert got.data.labels.tobytes() == want.data.labels.tobytes()
    assert ours_features[0] == theirs_features[0]
    if ours_features[0] == "error":
        assert ours_features == theirs_features
    else:
        assert ours_features[1].shape == theirs_features[1].shape
        assert ours_features[1].tobytes() == theirs_features[1].tobytes()
    return ours


@settings(max_examples=300, deadline=None, database=None)
@given(
    text=csv_texts(),
    label_column=st.sampled_from(["label", "target", 0, -1, 3]),
    missing_token=st.sampled_from(["", "NA"]),
    block=BLOCKS,
)
def test_reader_matches_the_reference(text, label_column, missing_token, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        write_text(path, *text)
        assert_same_load(path, label_column, missing_token, block)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("block", [1, 2, 3, _CSV_BLOCK])
def test_a_bad_cell_above_a_ragged_row_is_reported_first(tmp_path, block):
    path = write_lines(tmp_path / "d.csv", [
        "x0,x1,label", "0.5,1.0,1", "0.7,oops,0", "bad,0.1,1", "1.0,0",
    ])
    result = assert_same_load(path, "label", "", block)
    assert result[2] == (f"{path}: column 'x1' has non-numeric value 'oops' at row 3; "
                         f"encode categorical columns before loading")


@pytest.mark.parametrize("block", [1, 2, _CSV_BLOCK])
def test_the_leftmost_bad_cell_of_the_first_bad_row_is_reported(tmp_path, block):
    # Column x0 fails only in a later row than column x1; within row 3 the
    # label column sits between two bad cells.
    path = write_lines(tmp_path / "d.csv", [
        "x0,label,x1", "0.5,1,1.0", "NA,0,no", "also,1,bad", "worse,0,1.0",
    ])
    result = assert_same_load(path, "label", "NA", block)
    assert "column 'x1' has non-numeric value 'no' at row 3" in result[2]


def test_a_file_spanning_three_blocks_matches_the_reference(tmp_path):
    n_rows = 2 * _CSV_BLOCK + 17
    board = generate_checkerboard(CheckerboardSpec(n_minority=100, n_majority=n_rows - 100))
    path = tmp_path / "board.csv"
    save_csv(board, str(path))
    reference = tmp_path / "reference.csv"
    reference_save_csv(board, str(reference))
    assert path.read_bytes() == reference.read_bytes()
    loaded = assert_same_load(str(path), "label", "", _CSV_BLOCK)[1]
    assert loaded.data.features.tobytes() == board.features.tobytes()
    assert loaded.data.labels.tobytes() == board.labels.tobytes()

    # Errors in the last block name their row in the whole file.
    lines = path.read_text(encoding="utf-8").splitlines()
    last = n_rows + 1
    for broken, message in (
        (lines[:last - 1] + ["0.5,1e999,1"] + lines[last:],
         f"column 'x1' has non-finite value inf at row {last}"),
        (lines[:last - 1] + ["0.5,1"] + lines[last:], f"row {last} has 2 cells, expected 3"),
        (lines[:last - 2] + ["?,0.5,1"] + lines[last - 1:],
         f"column 'x0' has non-numeric value '?' at row {last - 1}"),
    ):
        bad = write_lines(tmp_path / "bad.csv", broken)
        result = assert_same_load(bad, "label", "", _CSV_BLOCK)
        assert message in result[2]


@pytest.mark.parametrize("block", [1, _CSV_BLOCK])
def test_a_reader_error_comes_after_the_rows_read_before_it(tmp_path, block):
    # csv.reader refuses a field over its size limit; a bad cell in an
    # earlier row is still the first error, and without it the reader's own
    # error is raised, as the cell-by-cell reader raises them.
    huge = "9" * (csv.field_size_limit() + 1)
    path = write_lines(tmp_path / "d.csv", ["x0,label", "1,0", "x,1", "2,0", f"{huge},1"])
    result = assert_same_load(path, "label", "", block)
    assert "non-numeric value 'x' at row 3" in result[2]
    path = write_lines(tmp_path / "e.csv", ["x0,label", "1,0", "2,0", f"{huge},1"])
    result = assert_same_load(path, "label", "", block)
    assert result[1] is csv.Error


def test_load_csv_peak_memory_is_at_most_the_reference(tmp_path):
    board = generate_checkerboard(CheckerboardSpec())
    path = str(tmp_path / "board.csv")
    save_csv(board, path)
    peaks = []
    for load in (load_csv, reference_load_csv):
        tracemalloc.start()
        try:
            load(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks
