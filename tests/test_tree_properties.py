"""Property tests for the decision tree on small random weighted datasets.

Feature values come from a handful of integers, so ties are common, and
sample weights include zeros. Depths run from 1 to 12 and unlimited. The
level-wise fit and the level-wise predict are checked bit for bit against
the per-node reference fit and the worklist predict in `tree_reference.py`.
"""
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_reference import ReferenceTree, reference_predict_proba

from selfpaced.core import RandomSource
from selfpaced.data import CheckerboardSpec, generate_checkerboard
from selfpaced.learners import _DESCENT_BLOCK, DecisionTreeClassifier

DEPTHS = st.one_of(st.none(), st.integers(min_value=1, max_value=12))
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25])
NODE_LISTS = ("feature_", "threshold_", "children_", "probability_", "count_")


@st.composite
def weighted_datasets(draw):
    n_rows = draw(st.integers(min_value=1, max_value=40))
    n_features = draw(st.integers(min_value=1, max_value=3))
    cells = st.integers(min_value=0, max_value=4).map(float)
    X = np.array(draw(st.lists(
        st.lists(cells, min_size=n_features, max_size=n_features),
        min_size=n_rows, max_size=n_rows,
    )))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows)))
    w = np.array(draw(st.lists(WEIGHTS, min_size=n_rows, max_size=n_rows)))
    if w.sum() == 0:
        w[0] = 1.0
    # Probe on and between the training values, and outside their range.
    probe = np.array(draw(st.lists(
        st.lists(st.integers(min_value=-1, max_value=9).map(lambda v: v / 2.0),
                 min_size=n_features, max_size=n_features),
        min_size=1, max_size=20,
    )))
    return X, y, w, probe


def assert_same_scores(tree, rows):
    # Bytes tell -0.0 from 0.0 and compare NaN payloads.
    batch = tree.predict_proba(rows)
    assert batch.tobytes() == reference_predict_proba(tree, rows).tobytes()
    for row, expected in zip(rows, batch):
        # One row walks the lists: a scalar for a 1-D row, an array for a
        # one-row matrix.
        single = tree.predict_proba(row)
        assert type(single) is float
        assert np.float64(single).tobytes() == expected.tobytes()
        one = tree.predict_proba(row[np.newaxis, :])
        assert one.shape == (1,) and one.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(data=weighted_datasets(), max_depth=DEPTHS)
def test_tree_invariants(data, max_depth):
    X, y, w, probe = data
    tree = DecisionTreeClassifier(max_depth=max_depth).fit(X, y, sample_weight=w)

    for rows in (X, probe):
        assert_same_scores(tree, rows)

    # Breadth-first layout: a split's children are c and c + 1, after the
    # split, and every node but the root is the child of exactly one split.
    parents = [0] * len(tree.feature_)
    for node, (feature, child) in enumerate(zip(tree.feature_, tree.children_)):
        assert (child == -1) == (feature < 0)
        if child >= 0:
            assert node < child and child + 1 < len(parents)
            parents[child] += 1
            parents[child + 1] += 1
    assert parents == [0] + [1] * (len(parents) - 1)

    doc = tree.to_json_doc()
    restored = DecisionTreeClassifier.from_json_doc(doc)
    assert restored.to_json_doc() == doc
    for name in NODE_LISTS:
        assert getattr(restored, name) == getattr(tree, name)
    for rows in (X, probe):
        assert_same_scores(restored, rows)

    assert sum(c for f, c in zip(tree.feature_, tree.count_) if f < 0) == X.shape[0]


# Sums of these are not exact in float64, so a node's sums depend on the
# order of addition; the dyadic weights above always sum exactly.
NON_DYADIC = [0.0, 0.1, 1.0 / 3.0, 0.7, 1.0, 2.0]


def assert_same_tree(tree, reference):
    # repr tells -0.0 from 0.0, nan from nan-free values, and np.int64 from int.
    for name in NODE_LISTS:
        assert repr(getattr(tree, name)) == repr(getattr(reference, name)), name
    assert json.dumps(tree.to_json_doc()) == json.dumps(reference.to_json_doc())


@st.composite
def oracle_inputs(draw):
    n_rows = draw(st.integers(min_value=1, max_value=60))
    n_features = draw(st.integers(min_value=1, max_value=3))
    cells = st.integers(min_value=0, max_value=4).map(float)
    X = np.array(draw(st.lists(
        st.lists(cells, min_size=n_features, max_size=n_features),
        min_size=n_rows, max_size=n_rows,
    )))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows)))
    kind = draw(st.sampled_from(("none", "unit", "dyadic", "non-dyadic", "unit-interval")))
    if kind == "none":
        return X, y, None
    weight = {
        "unit": st.just(1.0),
        "dyadic": WEIGHTS,
        "non-dyadic": st.sampled_from(NON_DYADIC),
        "unit-interval": st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
        ),
    }[kind]
    w = np.array(draw(st.lists(weight, min_size=n_rows, max_size=n_rows)))
    if w.sum() == 0:
        w[0] = 1.0
    if draw(st.booleans()):
        # Normalized, as AdaBoost passes them.
        w = w / w.sum()
    return X, y, w


@settings(max_examples=300, deadline=None, database=None)
@given(
    data=oracle_inputs(),
    max_depth=DEPTHS,
    min_samples_split=st.integers(min_value=1, max_value=5),
    min_impurity_decrease=st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.2]),
)
def test_level_wise_fit_matches_the_per_node_reference(
    data, max_depth, min_samples_split, min_impurity_decrease
):
    X, y, w = data
    params = dict(max_depth=max_depth, min_samples_split=min_samples_split,
                  min_impurity_decrease=min_impurity_decrease)
    tree = DecisionTreeClassifier(**params).fit(X, y, sample_weight=w)
    assert_same_tree(tree, ReferenceTree(**params).fit(X, y, sample_weight=w))


def test_level_wise_fit_matches_the_reference_on_balanced_bags():
    # Ensemble-sized inputs: 1000 minority rows plus 1000 drawn majority rows
    # of the default board, with unit weights at depth 10 and with the
    # normalized weights of AdaBoost's first round at depth 4.
    data = generate_checkerboard(CheckerboardSpec(), RandomSource(3))
    gen = RandomSource(4).generator
    for bag in range(3):
        rows = np.concatenate([
            data.minority_indices,
            gen.choice(data.majority_indices, data.n_minority, replace=False),
        ])
        X, y = data.features[rows], data.labels[rows]
        tree = DecisionTreeClassifier(max_depth=10).fit(X, y)
        assert_same_tree(tree, ReferenceTree(max_depth=10).fit(X, y))
        w = gen.random(rows.size)
        w = w / w.sum()
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y, sample_weight=w)
        assert_same_tree(tree, ReferenceTree(max_depth=4).fit(X, y, sample_weight=w))


def test_predict_of_a_root_leaf_tree():
    X = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
    tree = DecisionTreeClassifier().fit(X, np.zeros(3, dtype=int))
    assert tree.feature_ == [-1]
    assert_same_scores(tree, X)
    assert tree.predict_proba(np.empty((0, 2))).shape == (0,)


def test_predict_of_a_document_with_a_nan_threshold():
    # Only a read document can hold one; no value is <= NaN, so rows go right.
    doc = DecisionTreeClassifier(max_depth=2).fit(
        np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, 1, 0])
    ).to_json_doc()
    doc["root"]["threshold"] = float("nan")
    tree = DecisionTreeClassifier.from_json_doc(doc)
    assert_same_scores(tree, np.array([[-1.0], [0.5], [1.5], [2.5], [4.0]]))


def test_level_wise_predict_matches_the_reference_across_row_blocks():
    # More than two full blocks plus a partial one, on a depth-10 tree of the
    # default board and on its model document read back.
    data = generate_checkerboard(CheckerboardSpec(n_majority=3000), RandomSource(5))
    tree = DecisionTreeClassifier(max_depth=10).fit(data.features, data.labels)
    rows = RandomSource(6).generator.uniform(-0.5, 4.5, size=(2 * _DESCENT_BLOCK + 123, 2))
    expected = reference_predict_proba(tree, rows).tobytes()
    assert tree.predict_proba(rows).tobytes() == expected
    assert DecisionTreeClassifier.from_json_doc(tree.to_json_doc()).predict_proba(
        rows).tobytes() == expected
    # Column-major input is read block by block as well.
    assert tree.predict_proba(np.asfortranarray(rows)).tobytes() == expected
