"""Property tests for the decision tree on small random weighted datasets.

Feature values come from a handful of integers, so ties are common, and
sample weights include zeros. Depths run from 1 to 12 and unlimited.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from selfpaced.learners import DecisionTreeClassifier

DEPTHS = st.one_of(st.none(), st.integers(min_value=1, max_value=12))
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25])


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


@settings(max_examples=150, deadline=None, database=None)
@given(data=weighted_datasets(), max_depth=DEPTHS)
def test_tree_invariants(data, max_depth):
    X, y, w, probe = data
    tree = DecisionTreeClassifier(max_depth=max_depth).fit(X, y, sample_weight=w)

    for rows in (X, probe):
        batch = tree.predict_proba(rows)
        assert [tree.predict_proba(row) for row in rows] == batch.tolist()

    doc = tree.to_json_doc()
    restored = DecisionTreeClassifier.from_json_doc(doc)
    assert restored.to_json_doc() == doc
    for field in ("feature_", "threshold_", "left_", "right_", "probability_", "count_"):
        assert getattr(restored, field) == getattr(tree, field)
    for rows in (X, probe):
        assert restored.predict_proba(rows).tolist() == tree.predict_proba(rows).tolist()

    assert sum(c for f, c in zip(tree.feature_, tree.count_) if f < 0) == X.shape[0]
