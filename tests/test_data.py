"""Checkerboard generation, missing-value corruption, and CSV round trips."""
import math

import numpy as np
import pytest

from selfpaced.core import Dataset, RandomSource
from selfpaced.data import (
    CheckerboardSpec,
    corrupt_missing,
    generate_checkerboard,
    load_csv,
    load_features,
    save_csv,
)


def test_spec_validation():
    with pytest.raises(ValueError, match="cov_scale"):
        CheckerboardSpec(cov_scale=0.0)
    with pytest.raises(ValueError, match="counts"):
        CheckerboardSpec(n_minority=0)
    with pytest.raises(ValueError, match="counts"):
        CheckerboardSpec(n_majority=0)
    with pytest.raises(ValueError, match="grid_size"):
        CheckerboardSpec(grid_size=1)


@pytest.mark.parametrize("settings, message", [
    ({"n_majority": 2.5}, r"^n_majority must be an integer, got 2.5$"),
    ({"n_minority": True}, r"^n_minority must be an integer, got True$"),
    ({"grid_size": 2.5}, r"^grid_size must be an integer, got 2.5$"),
    ({"seed": -1}, r"^seed must be a 64-bit unsigned integer, got -1$"),
    ({"n_minority": -3}, r"^both class counts must be positive$"),
    ({"cov_scale": "0.1"}, r"^cov_scale must be a number, got '0.1'$"),
])
def test_spec_refuses_bad_values_when_made(settings, message):
    with pytest.raises(ValueError, match=message):
        CheckerboardSpec(**settings)


def test_spec_stores_numpy_counts_as_ints():
    spec = CheckerboardSpec(n_minority=np.int64(5), n_majority=np.int32(9),
                            seed=np.uint64(2), grid_size=np.int16(3))
    values = (spec.n_minority, spec.n_majority, spec.seed, spec.grid_size)
    assert [type(v) for v in values] == [int] * 4


def test_spec_class_means_alternate_by_parity():
    spec = CheckerboardSpec()
    minority_means = spec.class_means(1)
    majority_means = spec.class_means(0)
    assert minority_means.shape == (8, 2)
    assert majority_means.shape == (8, 2)
    for r, c in minority_means:
        assert (int(r) + int(c)) % 2 == 1
    for r, c in majority_means:
        assert (int(r) + int(c)) % 2 == 0
    # Together they tile the 4x4 grid.
    combined = {(r, c) for r, c in np.vstack([minority_means, majority_means]).tolist()}
    assert combined == {(float(r), float(c)) for r in range(4) for c in range(4)}


def test_generate_counts_and_layout():
    data = generate_checkerboard(CheckerboardSpec(seed=0))
    assert data.n_minority == 1000
    assert data.n_majority == 10000
    assert data.n_features == 2
    assert data.imbalance_ratio == 10.0
    assert data.feature_names == ("x0", "x1")
    # Majority rows come first.
    assert data.labels[:10000].sum() == 0
    assert data.labels[10000:].sum() == 1000


def test_generate_is_deterministic():
    a = generate_checkerboard(CheckerboardSpec(seed=9))
    b = generate_checkerboard(CheckerboardSpec(seed=9))
    c = generate_checkerboard(CheckerboardSpec(seed=10))
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_generate_tiny_covariance_sits_on_grid():
    spec = CheckerboardSpec(cov_scale=1e-18, n_minority=200, n_majority=400, seed=3)
    data = generate_checkerboard(spec)
    rounded = np.round(data.features)
    assert np.allclose(data.features, rounded, atol=1e-6)
    parity = (rounded.sum(axis=1).astype(int)) % 2
    assert np.array_equal(parity, data.labels)


def test_generate_component_usage_is_uniform():
    # Each of the 8 minority components should receive about 125 of 1000
    # samples; allow four binomial standard deviations.
    spec = CheckerboardSpec(cov_scale=0.01, seed=4)
    data = generate_checkerboard(spec)
    minority = data.features[data.labels == 1]
    means = spec.class_means(1)
    nearest = np.argmin(
        ((minority[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    counts = np.bincount(nearest, minlength=8)
    sigma = math.sqrt(1000 * (1 / 8) * (7 / 8))
    assert counts.sum() == 1000
    assert np.all(np.abs(counts - 125) <= 4 * sigma)


def test_generate_component_means_recoverable():
    spec = CheckerboardSpec(cov_scale=0.05, n_minority=2000, n_majority=2000, seed=5)
    data = generate_checkerboard(spec)
    for cls in (0, 1):
        rows = data.features[data.labels == cls]
        means = spec.class_means(cls)
        nearest = np.argmin(
            ((rows[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        for component in range(8):
            observed = rows[nearest == component].mean(axis=0)
            assert np.linalg.norm(observed - means[component]) < 0.1


def all_nonzero_dataset(n=10, d=2):
    features = np.arange(1, n * d + 1, dtype=np.float64).reshape(n, d)
    labels = np.array([0] * (n - 2) + [1, 1])
    return Dataset(features, labels)


def test_corrupt_exact_cell_count():
    data = all_nonzero_dataset(10, 2)
    corrupted = corrupt_missing(data, 0.25, RandomSource(0))
    assert int((corrupted.features == 0.0).sum()) == 5
    assert np.array_equal(corrupted.labels, data.labels)
    assert corrupted.feature_names == data.feature_names
    # Untouched cells keep their values.
    touched = corrupted.features == 0.0
    assert np.array_equal(corrupted.features[~touched], data.features[~touched])


def test_corrupt_half_zeroes_half_the_cells():
    data = all_nonzero_dataset(50, 2)
    corrupted = corrupt_missing(data, 0.5, RandomSource(1))
    assert int((corrupted.features == 0.0).sum()) == 50


def test_corrupt_zero_ratio_copies():
    data = all_nonzero_dataset()
    out = corrupt_missing(data, 0.0, RandomSource(0))
    assert out is not data
    assert np.array_equal(out.features, data.features)


def test_corrupt_is_deterministic():
    data = all_nonzero_dataset(30, 2)
    a = corrupt_missing(data, 0.4, RandomSource(6).child("corrupt", 1))
    b = corrupt_missing(data, 0.4, RandomSource(6).child("corrupt", 1))
    assert np.array_equal(a.features, b.features)


def test_corrupt_ratio_bounds():
    data = all_nonzero_dataset()
    with pytest.raises(ValueError, match="missing_ratio"):
        corrupt_missing(data, 1.0, RandomSource(0))
    with pytest.raises(ValueError, match="missing_ratio"):
        corrupt_missing(data, -0.1, RandomSource(0))


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_load_csv_basic(tmp_path):
    path = write_lines(
        tmp_path / "d.csv",
        ["x0,x1,label", "0.5,1.5,0", "2.5,3.5,1", "4.5,5.5,0"],
    )
    loaded = load_csv(path)
    assert loaded.n_missing == 0
    assert loaded.data.feature_names == ("x0", "x1")
    assert loaded.data.labels.tolist() == [0, 1, 0]
    assert loaded.data.features.tolist() == [[0.5, 1.5], [2.5, 3.5], [4.5, 5.5]]


def test_load_csv_label_column_by_name_and_index(tmp_path):
    path = write_lines(
        tmp_path / "d.csv", ["target,a,b", "1,0.1,0.2", "0,0.3,0.4"]
    )
    by_name = load_csv(path, label_column="target")
    assert by_name.data.labels.tolist() == [1, 0]
    assert by_name.data.feature_names == ("a", "b")
    by_index = load_csv(path, label_column=0)
    assert by_index.data.labels.tolist() == [1, 0]
    by_negative = load_csv(path, label_column=-3)
    assert by_negative.data.labels.tolist() == [1, 0]


def test_load_csv_positive_label_mapping(tmp_path):
    path = write_lines(
        tmp_path / "d.csv", ["x,label", "1,spam", "2,ham", "3,spam"]
    )
    loaded = load_csv(path, positive_label="spam")
    assert loaded.data.labels.tolist() == [1, 0, 1]


def test_load_csv_missing_token_imputes_zero(tmp_path):
    path = write_lines(
        tmp_path / "d.csv", ["x0,x1,label", "0.5,,1", ",,0", "1.0,2.0,1"]
    )
    loaded = load_csv(path)
    assert loaded.n_missing == 3
    assert loaded.data.features.tolist() == [[0.5, 0.0], [0.0, 0.0], [1.0, 2.0]]

    tokened = write_lines(
        tmp_path / "e.csv", ["x0,label", "NA,1", "2.0,0"]
    )
    loaded = load_csv(tokened, missing_token="NA")
    assert loaded.n_missing == 1
    assert loaded.data.features[0, 0] == 0.0


def test_load_csv_error_names_row_and_column(tmp_path):
    path = write_lines(
        tmp_path / "d.csv", ["x0,x1,label", "0.5,1.0,1", "0.7,oops,0"]
    )
    with pytest.raises(ValueError, match="column 'x1'.*'oops'.*row 3"):
        load_csv(path)


def test_load_csv_rejects_non_finite_cells(tmp_path):
    for cell in ("inf", "-inf", "nan", "1e999"):
        path = write_lines(
            tmp_path / "d.csv", ["x0,x1,label", "0.5,1.0,1", f"0.7,{cell},0"]
        )
        with pytest.raises(ValueError, match=r"d\.csv: column 'x1' has non-finite value .* at row 3"):
            load_csv(path)
        with pytest.raises(ValueError, match="column 'x1' has non-finite value"):
            load_features(path)


def test_load_features_with_and_without_a_label_column(tmp_path):
    labelled = write_lines(tmp_path / "l.csv", ["x0,label,x1", "0.5,1,1.5", ",0,3.5"])
    bare = write_lines(tmp_path / "b.csv", ["x0,x1", "0.5,1.5", ",3.5"])
    expected = [[0.5, 1.5], [0.0, 3.5]]
    assert load_features(labelled).tolist() == expected
    assert load_features(bare).tolist() == expected
    assert load_features(labelled, label_column=1).tolist() == expected
    # An index always names a label column, present or not.
    assert load_features(bare, label_column=0).tolist() == [[1.5], [3.5]]


def test_load_csv_structural_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="header row is required"):
        load_csv(str(empty))

    header_only = write_lines(tmp_path / "h.csv", ["x0,label"])
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(header_only)

    ragged = write_lines(tmp_path / "r.csv", ["x0,x1,label", "1.0,2.0,0", "1.0,0"])
    with pytest.raises(ValueError, match="row 3 has 2 cells, expected 3"):
        load_csv(ragged)

    many = write_lines(
        tmp_path / "m.csv", ["x0,label", "1,a", "2,b", "3,c"]
    )
    with pytest.raises(ValueError, match="3 distinct values"):
        load_csv(many)

    named = write_lines(tmp_path / "n.csv", ["x0,label", "1,0"])
    with pytest.raises(ValueError, match="label column 'target' not found"):
        load_csv(named, label_column="target")
    with pytest.raises(ValueError, match="out of range"):
        load_csv(named, label_column=5)


def test_csv_round_trip_is_lossless(tmp_path):
    gen = np.random.default_rng(67)
    features = gen.standard_normal((40, 3)) * 1e3
    labels = gen.integers(0, 2, size=40)
    data = Dataset(features, labels, feature_names=("alpha", "beta", "gamma"))
    path = tmp_path / "round.csv"
    save_csv(data, str(path))
    loaded = load_csv(str(path))
    assert np.array_equal(loaded.data.features, data.features)
    assert np.array_equal(loaded.data.labels, data.labels)
    assert loaded.data.feature_names == ("alpha", "beta", "gamma")
    assert loaded.n_missing == 0


def test_save_csv_header_and_format(tmp_path):
    data = Dataset(np.array([[0.1, 0.2]]), np.array([1]), feature_names=("x0", "x1"))
    path = tmp_path / "one.csv"
    save_csv(data, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x0,x1,label"
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.1
    assert cells[2] == "1"


def test_spec_refuses_an_infinite_cov_scale():
    with pytest.raises(ValueError, match=r"^cov_scale must be finite, got inf$"):
        CheckerboardSpec(cov_scale=math.inf)
