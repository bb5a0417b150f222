"""Property tests for the decision tree on small random weighted datasets.

Feature values come from a handful of integers, so ties are common, and
sample weights include zeros. Depths run from 1 to 12 and unlimited. The
level-wise fit, the level-wise predict and the leaf-table predict from
column ranks are checked bit for bit against the per-node reference fit and
the worklist predict in `tree_reference.py`.
"""
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_reference import ReferenceTree, reference_predict_proba

from selfpaced.core import _RANK_BLOCK, MeanScorer, RandomSource, _ColumnRanks
from selfpaced.data import CheckerboardSpec, generate_checkerboard
from selfpaced.learners import (
    _DESCENT_BLOCK,
    _TABLE_CELLS,
    AdaBoostClassifier,
    DecisionTreeClassifier,
)

DEPTHS = st.one_of(st.none(), st.integers(min_value=1, max_value=12))
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25])
NODE_LISTS = ("feature_", "children_", "value_", "count_")


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


@settings(max_examples=300, deadline=None, database=None)
@given(data=oracle_inputs(), max_depth=DEPTHS)
def test_the_document_of_every_fitted_tree_reads_back(data, max_depth):
    # The reader refuses a leaf outside [0, 1]; a fit writes none, whatever
    # its weights.
    X, y, w = data
    tree = DecisionTreeClassifier(max_depth=max_depth).fit(X, y, sample_weight=w)
    assert all(0.0 <= v <= 1.0 for f, v in zip(tree.feature_, tree.value_) if f < 0)
    restored = DecisionTreeClassifier.from_json_doc(json.loads(json.dumps(tree.to_json_doc())))
    assert_same_tree(restored, tree)


def test_level_wise_fit_matches_the_reference_on_balanced_bags():
    # Ensemble-sized inputs: 1000 minority rows plus 1000 drawn majority rows
    # of the default board, with unit weights at depth 10 and with the
    # normalized weights of AdaBoost's first round at depth 4.
    data = generate_checkerboard(CheckerboardSpec(seed=3))
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


def assert_document_holds_the_tree(tree):
    # A tree holds its four node lists and nothing else per node: one value
    # per node, so as many distinct floats as nodes, fresh or read back.
    assert sorted(k for k, v in vars(tree).items() if isinstance(v, list)) == sorted(NODE_LISTS)
    restored = DecisionTreeClassifier.from_json_doc(tree.to_json_doc())
    for name in NODE_LISTS:
        assert repr(getattr(restored, name)) == repr(getattr(tree, name)), name
    for held in (tree, restored):
        assert len({id(value) for value in held.value_}) == len(held.feature_)


def test_a_tree_and_its_document_hold_the_same_thing():
    data = generate_checkerboard(CheckerboardSpec())
    tree = DecisionTreeClassifier(max_depth=10).fit(data.features, data.labels)
    assert len(tree.feature_) == 549
    assert_document_holds_the_tree(tree)
    booster = AdaBoostClassifier(n_estimators=10, weak_learner_depth=4)
    booster.fit(data.features, data.labels)
    assert len(booster.stages_) == 10
    for _, weak in booster.stages_:
        assert_document_holds_the_tree(weak)


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
    data = generate_checkerboard(CheckerboardSpec(n_majority=3000, seed=5))
    tree = DecisionTreeClassifier(max_depth=10).fit(data.features, data.labels)
    rows = RandomSource(6).generator.uniform(-0.5, 4.5, size=(2 * _DESCENT_BLOCK + 123, 2))
    expected = reference_predict_proba(tree, rows).tobytes()
    assert tree.predict_proba(rows).tobytes() == expected
    assert DecisionTreeClassifier.from_json_doc(tree.to_json_doc()).predict_proba(
        rows).tobytes() == expected
    # Column-major input is read block by block as well.
    assert tree.predict_proba(np.asfortranarray(rows)).tobytes() == expected


# Thresholds a read document may hold: repeats, NaN, infinities, -0.0 and
# huge finite values.
BIGGEST = np.finfo(np.float64).max
DOC_THRESHOLDS = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1e308]
)


@st.composite
def ranked_trees(draw):
    """A tree fitted on a small dataset, or its document with drawn thresholds,
    and probe rows that hold -0.0, the largest finite value and duplicates."""
    X, y, w, probe = draw(weighted_datasets())
    tree = DecisionTreeClassifier(max_depth=draw(DEPTHS)).fit(X, y, sample_weight=w)
    if draw(st.booleans()):
        doc = tree.to_json_doc()
        work = [doc["root"]]
        for node in work:
            if "feature" in node:
                node["threshold"] = draw(DOC_THRESHOLDS)
                work += [node["left"], node["right"]]
        tree = DecisionTreeClassifier.from_json_doc(doc)
    extremes = np.repeat([[-0.0], [BIGGEST]], X.shape[1], axis=1)
    probe = np.vstack([probe, X, extremes])
    return tree, probe


def assert_ranked_scores_match(tree, probe):
    """Scores of a batch of two rank blocks, from column ranks, equal the
    worklist reference bit for bit, alone and inside an ensemble."""
    rows = np.resize(probe, (2 * _RANK_BLOCK + 7, probe.shape[1]))
    assert len(_ColumnRanks(rows).blocks) == 2
    expected = reference_predict_proba(tree, rows)
    assert tree._score_rows(rows, _ColumnRanks(rows)).tobytes() == expected.tobytes()
    # Scoring planned the table and built its leaves exactly when it fits.
    assert (tree._table[4] is not None) == (tree._table[3] <= _TABLE_CELLS)
    # An ensemble shares its ranks among its members.
    mean = MeanScorer([tree, tree]).predict_proba(rows)
    assert mean.tobytes() == ((np.zeros(rows.shape[0]) + expected + expected) / 2).tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(case=ranked_trees())
def test_leaf_table_predict_matches_the_reference(case):
    assert_ranked_scores_match(*case)


def test_leaf_table_predict_of_root_leaf_and_one_feature_trees():
    X = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0], [2.0, 0.0]])
    root_leaf = DecisionTreeClassifier().fit(X, np.zeros(4, dtype=int))
    assert root_leaf.feature_ == [-1]
    assert_ranked_scores_match(root_leaf, X)
    one_feature = DecisionTreeClassifier().fit(X[:, :1], np.array([0, 1, 0, 1]))
    assert set(one_feature.feature_) == {-1, 0}
    assert_ranked_scores_match(one_feature, np.array([[-1.0], [0.5], [1.0], [2.0], [3.0]]))


def test_a_tree_over_the_cell_cap_scores_by_descent():
    # Random labels on distinct values grow hundreds of cuts per feature, so
    # the table would hold more than _TABLE_CELLS cells.
    gen = RandomSource(8).generator
    X = gen.random((2000, 2))
    tree = DecisionTreeClassifier(max_depth=None).fit(X, gen.integers(0, 2, size=2000))
    assert_ranked_scores_match(tree, gen.random((500, 2)))
    assert tree._table[3] > _TABLE_CELLS
    assert tree._table[4] is None
