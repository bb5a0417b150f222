"""Every number a caller passes is checked by one rule for its kind.

A whole number is an `int` or a numpy integer. A float such as 2.5, a
string such as "3" and a bool are refused with "<name> must be an integer",
where truncating them would quietly use another value. Arrays of row ids
follow the same rule by dtype, and a real-valued setting refuses a string
such as "0.5" that `float()` would parse, and NaN; a learner's, infinity
too. Labels, wherever they are passed, are 0 or 1 of any dtype, and every
other value is named.
"""
import re

import numpy as np
import pytest

from selfpaced.core import Dataset, RandomSource, partial_ensemble
from selfpaced.data import corrupt_missing, load_csv
from selfpaced.hardness import absolute_error, cross_entropy, squared_error
from selfpaced.learners import AdaBoostClassifier, DecisionTreeClassifier, learner_from_doc
from selfpaced.metrics import aucprc, confusion, metric_report, stratified_split
from selfpaced.sampling import (
    bin_sampling_weights,
    draw_undersample,
    largest_remainder_shares,
    partition_bins,
    self_paced_alpha,
    self_paced_undersample,
)

X = np.array([[0.0], [1.0], [2.0], [3.0]])
Y = np.array([0, 0, 1, 1])


def tree_doc(edit, value):
    """A fitted depth-1 tree's document with one field set to `value`."""
    doc = DecisionTreeClassifier(max_depth=1).fit(X, Y).to_json_doc()
    {"n_features": doc, "feature": doc["root"], "count": doc["root"]["left"]}[edit][edit] = value
    return learner_from_doc(doc)


def booster_doc(value):
    doc = AdaBoostClassifier(n_estimators=1).fit(X, Y).to_json_doc()
    doc["n_features"] = value
    return learner_from_doc(doc)


def label_column(value, tmp_path):
    path = tmp_path / "board.csv"
    path.write_text("a,b,label\n0.5,1.5,1\n2.5,3.5,0\n", encoding="utf-8")
    return load_csv(path, label_column=value)


def two_bins():
    return partition_bins([0.1, 0.9], 2)


# site -> (the name in the message, a call that passes the value, a value it takes)
SITES = {
    "tree max_depth": ("max_depth", lambda v, _: DecisionTreeClassifier(max_depth=v), 3),
    "tree min_samples_split": (
        "min_samples_split", lambda v, _: DecisionTreeClassifier(min_samples_split=v), 3),
    "booster n_estimators": ("n_estimators", lambda v, _: AdaBoostClassifier(n_estimators=v), 3),
    "booster weak_learner_depth": (
        "weak_learner_depth", lambda v, _: AdaBoostClassifier(weak_learner_depth=v), 3),
    "tree document feature": ("feature", lambda v, _: tree_doc("feature", v), 0),
    "tree document count": ("count", lambda v, _: tree_doc("count", v), 2),
    "tree document n_features": ("n_features", lambda v, _: tree_doc("n_features", v), 1),
    "booster document n_features": ("n_features", lambda v, _: booster_doc(v), 1),
    "partition_bins k": ("k", lambda v, _: partition_bins([0.1, 0.9], v), 3),
    "self_paced_alpha i": ("i", lambda v, _: self_paced_alpha(v, 10), 3),
    "self_paced_alpha n": ("n", lambda v, _: self_paced_alpha(1, v), 3),
    "largest_remainder_shares total": (
        "total", lambda v, _: largest_remainder_shares([1.0, 1.0], v), 3),
    "self_paced_undersample target": (
        "target", lambda v, _: self_paced_undersample(two_bins(), [0.5, 0.5], v,
                                                      RandomSource(0)), 2),
    "draw_undersample target": (
        "target", lambda v, _: draw_undersample([4, 5, 6], v, RandomSource(0)), 3),
    "RandomSource seed": ("seed", lambda v, _: RandomSource(v), 3),
    "child index": ("index", lambda v, _: RandomSource(0).child("a", v), 3),
    "partial_ensemble upto": (
        "upto", lambda v, _: partial_ensemble([DecisionTreeClassifier().fit(X, Y)] * 3, v), 3),
    "load_csv label_column": ("label_column", label_column, 2),
}


@pytest.mark.parametrize("site, bad", [
    (site, bad) for site in SITES for bad in (2.5, "3", True)
    # A string label column is a header name, not a bad index.
    if not (site == "load_csv label_column" and bad == "3")
])
def test_every_count_depth_index_and_seed_refuses_a_non_integer(site, bad, tmp_path):
    name, call, _ = SITES[site]
    with pytest.raises(ValueError, match=rf"\b{name} must be an integer, got {bad!r}"):
        call(bad, tmp_path)


@pytest.mark.parametrize("site", SITES)
def test_every_count_depth_index_and_seed_takes_a_numpy_integer(site, tmp_path):
    _, call, good = SITES[site]
    call(np.int64(good), tmp_path)


DATA = Dataset(X, Y)

# site -> (the name in the message, a call that passes row ids)
ROW_ID_SITES = {
    "Dataset.subset": ("rows", DATA.subset),
    "draw_undersample pool": ("pool", lambda rows: draw_undersample(rows, 2, RandomSource(0))),
}


@pytest.mark.parametrize("site, rows", [
    (site, rows) for site in ROW_ID_SITES for rows in (
        [1.5, 2.0, 3.0],
        np.array([0.5, 2.7, 3.2]),
        np.array([False, True, True]),
        np.array([1, 2, 3], dtype=object),
        ["1", "2", "3"],
    )
])
def test_every_array_of_row_ids_refuses_a_non_integer_dtype(site, rows):
    name, call = ROW_ID_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be integer row ids, got dtype "):
        call(rows)


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64, np.int64])
def test_row_ids_of_any_integer_dtype_pick_the_same_rows(dtype):
    rows = np.array([3, 0, 3], dtype=dtype)
    assert DATA.subset(rows).features.tolist() == [[3.0], [0.0], [3.0]]
    drawn = draw_undersample(rows, 3, RandomSource(0))
    assert drawn.dtype == np.int64 and sorted(drawn.tolist()) == [0, 3, 3]


def test_an_empty_list_of_row_ids_passes():
    assert DATA.subset([]).n_samples == 0


@pytest.mark.parametrize("rows, first", [
    ([-1], -1),
    ([4], 4),
    (np.array([0, 3, 9, -2], dtype=np.int8), 9),
])
def test_dataset_subset_refuses_a_row_id_outside_its_rows(rows, first):
    with pytest.raises(ValueError, match=rf"^rows must be row ids in \[0, 4\), got {first}$"):
        DATA.subset(rows)


@pytest.mark.parametrize("site", ROW_ID_SITES)
def test_a_uint64_row_id_past_the_int64_range_is_refused(site):
    name, call = ROW_ID_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be integer row ids, got {2**64 - 1}$"):
        call(np.array([0, 1, 2**64 - 1], dtype=np.uint64))


def split_fractions(value):
    data = Dataset(np.arange(12.0)[:, None], [0] * 6 + [1] * 6)
    return stratified_split(data, (value, 0.3, 0.2), RandomSource(0))


# site -> (the name in the message, a call that passes the value, a value it takes)
REAL_SITES = {
    "tree min_impurity_decrease": (
        "min_impurity_decrease", lambda v: DecisionTreeClassifier(min_impurity_decrease=v), 0.1),
    "booster learning_rate": (
        "learning_rate", lambda v: AdaBoostClassifier(learning_rate=v), 0.5),
    "confusion threshold": ("threshold", lambda v: confusion(Y, [0.2, 0.4, 0.6, 0.8],
                                                             threshold=v), 0.5),
    "bin_sampling_weights alpha": ("alpha", lambda v: bin_sampling_weights(two_bins(), v), 0.5),
    "corrupt_missing missing_ratio": (
        "missing_ratio", lambda v: corrupt_missing(DATA, v, RandomSource(0)), 0.5),
    "stratified_split fractions": ("fractions", split_fractions, 0.5),
}


@pytest.mark.parametrize("site", REAL_SITES)
def test_every_real_valued_setting_refuses_a_string(site):
    name, call, good = REAL_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be a number, got '{good}'$"):
        call(str(good))
    call(np.float32(good))


@pytest.mark.parametrize("site", REAL_SITES)
def test_every_real_valued_setting_refuses_nan(site):
    name, call, _ = REAL_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must "):
        call(float("nan"))
    with pytest.raises(ValueError, match=rf"^{name} must "):
        call(np.float32("nan"))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.float32("inf")])
@pytest.mark.parametrize("site", ["tree min_impurity_decrease", "booster learning_rate"])
def test_every_learner_setting_refuses_infinity(site, value):
    # A learner holds its settings in its LearnerSpec and model document,
    # where json.dumps would write `Infinity`.
    name, call, _ = REAL_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must "):
        call(value)


@pytest.mark.parametrize("learning_rate, labels", [
    (1e308, [0, 0, 1, 1]),  # a perfect round's stage weight is inf
    (1e307, [0, 0, 1, 1]),  # each stage weight is finite, their sum is not
    (61.0, [0, 0, 1, 0]),  # exp(stage weight) overflows
])
def test_a_booster_whose_weights_overflow_names_learning_rate(learning_rate, labels):
    booster = AdaBoostClassifier(n_estimators=3, learning_rate=learning_rate)
    with pytest.raises(ValueError, match=rf"^learning_rate {re.escape(str(learning_rate))} "):
        booster.fit(X, labels)


@pytest.mark.parametrize("learning_rate, labels, scores", [
    (5.0, [0, 0, 1, 0],
     [0.6183073527172182, 0.6183073527172182, 0.7115205477217916, 0.17085362157705228]),
    (1e300, [0, 0, 1, 1],
     [0.11920292202211755, 0.11920292202211755, 0.8807970779778823, 0.8807970779778823]),
])
def test_a_large_learning_rate_that_fits_keeps_its_scores(learning_rate, labels, scores):
    # The scores these fits gave before overflowing rates were refused.
    booster = AdaBoostClassifier(n_estimators=3, learning_rate=learning_rate).fit(X, labels)
    assert booster.predict_proba(X).tolist() == scores


def scores_for(labels):
    return np.linspace(0.1, 0.9, labels.size)


def fitted(learner, labels):
    return learner.fit(np.arange(labels.size, dtype=np.float64)[:, None], labels).to_json_doc()


# site -> (a call that passes labels, whether the site refuses empty input of its own)
LABEL_SITES = {
    "Dataset": (lambda y: Dataset(np.zeros((y.size, 1)), y).labels.tolist(), False),
    "DecisionTreeClassifier.fit": (lambda y: fitted(DecisionTreeClassifier(), y), True),
    "AdaBoostClassifier.fit": (lambda y: fitted(AdaBoostClassifier(n_estimators=3), y), True),
    "confusion": (lambda y: confusion(y, scores_for(y)), True),
    "aucprc": (lambda y: aucprc(y, scores_for(y)), True),
    "metric_report": (lambda y: metric_report(y, scores_for(y)), True),
    "absolute_error": (lambda y: absolute_error(scores_for(y), y).tolist(), False),
    "squared_error": (lambda y: squared_error(scores_for(y), y).tolist(), False),
    "cross_entropy": (lambda y: cross_entropy(scores_for(y), y).tolist(), False),
}

# The arrays of test_dataset_takes_zero_and_one_of_any_dtype (tests/test_core.py).
GOOD_LABELS = [
    np.array([True, False]),
    np.array([0.0, 1.0, -0.0]),
    np.array([0, 1, True, 1.0], dtype=object),
    np.array([0, 1], dtype=np.uint64),
    np.array([], dtype=np.float64),
]

# The arrays of test_dataset_names_the_labels_it_refuses, and unorderable values.
BAD_LABELS = [
    (np.array(["0", "1"]), "['0', '1']"),
    (np.array([0.0, 0.5, np.nan]), "[0.5, nan]"),
    (np.array([1.0, np.inf, -np.inf]), "[-inf, inf]"),
    (np.array([0, 2**64 - 1], dtype=np.uint64), "[18446744073709551615]"),
    (np.array([0, 2, 1, -1], dtype=object), "[-1, 2]"),
    (np.array([0, "x", None], dtype=object), "['x', None]"),
]


@pytest.mark.parametrize("site, labels", [
    (site, labels) for site in LABEL_SITES for labels in GOOD_LABELS
    if labels.size or not LABEL_SITES[site][1]
])
def test_every_label_site_takes_zero_and_one_of_any_dtype_as_int64(site, labels):
    call, _ = LABEL_SITES[site]
    assert call(labels) == call(labels.astype(np.int64))


@pytest.mark.parametrize("site, labels, found", [
    (site, labels, found) for site in LABEL_SITES for labels, found in BAD_LABELS
])
def test_every_label_site_names_the_labels_it_refuses(site, labels, found):
    call, _ = LABEL_SITES[site]
    with pytest.raises(ValueError) as info:
        call(labels)
    assert str(info.value) == f"labels must be 0 or 1, found {found}"
