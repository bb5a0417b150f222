"""Base learners: the weighted decision tree, AdaBoost, and the registry."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from tree_reference import ReferenceTree

from selfpaced.learners import (
    LEARNER_REGISTRY,
    AdaBoostClassifier,
    DecisionTreeClassifier,
    LearnerSpec,
    learner_from_doc,
    learner_to_doc,
)

XS = np.array([[1.0], [2.0], [3.0], [4.0]])


def test_tree_separable_split():
    tree = DecisionTreeClassifier(max_depth=1)
    tree.fit(XS, np.array([0, 0, 1, 1]))
    doc = tree.to_json_doc()
    assert doc["root"]["feature"] == 0
    assert 2.0 <= doc["root"]["threshold"] < 3.0
    assert doc["root"]["threshold"] == 2.5
    assert doc["root"]["left"]["probability"] == 0.0
    assert doc["root"]["right"]["probability"] == 1.0
    assert tree.predict_proba(np.array([1.5])) == 0.0
    assert tree.predict_proba(np.array([3.7])) == 1.0
    out = tree.predict_proba(XS)
    assert out.tolist() == [0.0, 0.0, 1.0, 1.0]


def gini_after_cut(labels, cut):
    """Exact weighted Gini of splitting unit-weight labels at position cut."""
    def gini(part):
        if not part:
            return Fraction(0)
        p = Fraction(sum(part), len(part))
        return 2 * p * (1 - p)

    left, right = labels[:cut], labels[cut:]
    n = len(labels)
    return Fraction(len(left), n) * gini(left) + Fraction(len(right), n) * gini(right)


def test_tree_alternating_labels_best_cut():
    # Labels 0,1,0,1 over ascending x: enumerating the three candidate cuts
    # gives weighted Ginis 1/3, 1/2, 1/3, so the best achievable value is
    # 1/3, reached at either outer threshold.
    labels = [0, 1, 0, 1]
    ginis = [gini_after_cut(labels, cut) for cut in (1, 2, 3)]
    assert ginis == [Fraction(1, 3), Fraction(1, 2), Fraction(1, 3)]
    assert min(ginis) == Fraction(1, 3)

    tree = DecisionTreeClassifier(max_depth=1)
    tree.fit(XS, np.array(labels))
    root = tree.to_json_doc()["root"]
    assert root["threshold"] in (1.5, 3.5)
    cut = {1.5: 1, 3.5: 3}[root["threshold"]]
    realized = (
        Fraction(root["left"]["count"], 4)
        * 2 * Fraction(root["left"]["probability"]).limit_denominator(9)
        * (1 - Fraction(root["left"]["probability"]).limit_denominator(9))
        + Fraction(root["right"]["count"], 4)
        * 2 * Fraction(root["right"]["probability"]).limit_denominator(9)
        * (1 - Fraction(root["right"]["probability"]).limit_denominator(9))
    )
    assert realized == gini_after_cut(labels, cut) == Fraction(1, 3)

    # The choice among tied cuts is stable across refits.
    again = DecisionTreeClassifier(max_depth=1)
    again.fit(XS, np.array(labels))
    assert again.to_json_doc() == tree.to_json_doc()


def test_tree_fits_alternating_labels_at_depth_three():
    tree = DecisionTreeClassifier(max_depth=3)
    tree.fit(XS, np.array([0, 1, 0, 1]))
    assert tree.predict_proba(XS).tolist() == [0.0, 1.0, 0.0, 1.0]


def test_tree_pure_labels_become_a_leaf():
    tree = DecisionTreeClassifier()
    tree.fit(XS, np.array([1, 1, 1, 1]))
    doc = tree.to_json_doc()
    assert doc["root"] == {"probability": 1.0, "count": 4}
    assert tree.predict_proba(np.array([9.0])) == 1.0


def test_tree_unsplittable_leaf_probability():
    # All feature values identical: no cut exists, the root stays a leaf
    # holding the positive fraction 3/4.
    tree = DecisionTreeClassifier()
    tree.fit(np.ones((4, 1)), np.array([1, 1, 1, 0]))
    assert tree.predict_proba(np.array([1.0])) == 0.75


def test_tree_weighted_leaf_probability():
    tree = DecisionTreeClassifier()
    tree.fit(np.ones((2, 1)), np.array([0, 1]), sample_weight=np.array([1.0, 3.0]))
    assert tree.predict_proba(np.array([1.0])) == 0.75


def test_tree_min_samples_split_blocks():
    tree = DecisionTreeClassifier(min_samples_split=3)
    tree.fit(np.array([[1.0], [2.0]]), np.array([0, 1]))
    assert tree.to_json_doc()["root"]["probability"] == 0.5


def test_tree_min_impurity_decrease_blocks():
    # The separable split gains exactly 0.5; a larger floor rejects it.
    accepted = DecisionTreeClassifier(max_depth=1, min_impurity_decrease=0.4)
    accepted.fit(XS, np.array([0, 0, 1, 1]))
    assert "threshold" in accepted.to_json_doc()["root"]

    blocked = DecisionTreeClassifier(max_depth=1, min_impurity_decrease=0.6)
    blocked.fit(XS, np.array([0, 0, 1, 1]))
    assert blocked.to_json_doc()["root"] == {"probability": 0.5, "count": 4}


def test_tree_feature_tie_goes_to_lowest_index():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    tree = DecisionTreeClassifier(max_depth=1)
    tree.fit(X, np.array([0, 0, 1, 1]))
    assert tree.to_json_doc()["root"]["feature"] == 0


def test_tree_unlimited_depth_memorizes_distinct_rows():
    gen = np.random.default_rng(17)
    for _ in range(10):
        n = int(gen.integers(4, 40))
        X = gen.permutation(n).reshape(-1, 1).astype(float)
        y = gen.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        tree = DecisionTreeClassifier(max_depth=None)
        tree.fit(X, y)
        assert np.array_equal(tree.predict_proba(X) >= 0.5, y == 1)


def test_tree_unlimited_depth_on_a_deep_chain():
    # Alternating labels along one feature: the best cut peels one row off an
    # end at every level, so the tree is a chain 2999 splits deep, far past
    # Python's recursion limit.
    n = 3000
    X = np.arange(n, dtype=float).reshape(-1, 1)
    y = np.arange(n) % 2
    tree = DecisionTreeClassifier(max_depth=None)
    tree.fit(X, y)
    depth = [0] * len(tree.feature_)
    for node, feature in enumerate(tree.feature_):
        if feature >= 0:
            child = tree.children_[node]
            depth[child] = depth[child + 1] = depth[node] + 1
    assert max(depth) == n - 1
    assert tree.predict_proba(X).tolist() == y.astype(float).tolist()
    assert tree.predict_proba(X[1500]) == 0.0
    assert tree.predict_proba(X[1501]) == 1.0


@pytest.mark.parametrize("values", [
    # Adjacent floats: their midpoint rounds up to the larger one.
    [np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)],
    # Their sum overflows, so the midpoint is inf.
    [1e308, 1.5e308],
    [-1.5e308, -1e308],
], ids=["adjacent floats", "overflow", "negative overflow"])
def test_tree_split_never_leaves_a_child_empty(values):
    X = np.array(values).reshape(-1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = DecisionTreeClassifier(max_depth=None).fit(X, [0, 1])
        reference = ReferenceTree(max_depth=None).fit(X, [0, 1])
    assert len(tree.feature_) == 3
    assert tree.threshold_[0] == values[0]
    assert tree.count_ == [0, 1, 1]
    assert tree.probability_ == [0.0, 0.0, 1.0]
    assert tree.predict_proba(X).tolist() == [0.0, 1.0]
    assert repr(reference.threshold_) == repr(tree.threshold_)


def test_tree_rejects_non_finite_features():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]])
    y = np.array([0, 1, 0])
    for bad in (np.nan, np.inf, -np.inf):
        dirty = X.copy()
        dirty[2, 1] = bad
        with pytest.raises(ValueError, match="row 2, column 1"):
            DecisionTreeClassifier().fit(dirty, y)
        with pytest.raises(ValueError, match="row 2, column 1"):
            AdaBoostClassifier().fit(dirty, y)
    tree = DecisionTreeClassifier().fit(X, y)
    with pytest.raises(ValueError, match="row 0, column 0"):
        tree.predict_proba(np.array([np.nan, 0.0]))
    probe = np.zeros((4, 2))
    probe[3, 1] = np.inf
    with pytest.raises(ValueError, match="row 3, column 1"):
        tree.predict_proba(probe)


MALFORMED_TREE_EDITS = {
    "missing threshold": lambda d: d["root"].pop("threshold"),
    "left without right": lambda d: d["root"].pop("right"),
    "missing feature": lambda d: d["root"].pop("feature"),
    "leaf without count": lambda d: d["root"]["left"].pop("count"),
    "bad threshold": lambda d: d["root"].update(threshold="high"),
    "feature out of range": lambda d: d["root"].update(feature=1),
    "node not an object": lambda d: d["root"].update(left=[1, 2]),
    "missing root": lambda d: d.pop("root"),
    "missing params": lambda d: d.pop("params"),
    "unknown param": lambda d: d["params"].update(depth=3),
}


@pytest.mark.parametrize("edit", MALFORMED_TREE_EDITS.values(), ids=MALFORMED_TREE_EDITS.keys())
def test_tree_rejects_malformed_documents(edit):
    tree = DecisionTreeClassifier(max_depth=1).fit(XS, np.array([0, 0, 1, 1]))
    doc = tree.to_json_doc()
    assert DecisionTreeClassifier.from_json_doc(doc).to_json_doc() == doc
    edit(doc)
    with pytest.raises(ValueError, match="malformed"):
        DecisionTreeClassifier.from_json_doc(doc)
    with pytest.raises(ValueError, match="malformed"):
        learner_from_doc({"kind": "adaboost", "params": {}, "n_features": 1,
                          "stages": [{"weight": 1.0, "tree": doc}]})


def doc_depth(node):
    if "threshold" not in node:
        return 0
    return 1 + max(doc_depth(node["left"]), doc_depth(node["right"]))


def test_tree_respects_max_depth_fuzz():
    gen = np.random.default_rng(23)
    for _ in range(20):
        depth = int(gen.integers(1, 5))
        X = gen.random((60, 3))
        y = gen.integers(0, 2, size=60)
        tree = DecisionTreeClassifier(max_depth=depth)
        tree.fit(X, y)
        assert doc_depth(tree.to_json_doc()["root"]) <= depth


def test_tree_json_round_trip_is_lossless():
    gen = np.random.default_rng(29)
    for _ in range(10):
        X = gen.random((50, 2))
        y = gen.integers(0, 2, size=50)
        tree = DecisionTreeClassifier(max_depth=4)
        tree.fit(X, y)
        restored = learner_from_doc(learner_to_doc(tree))
        probe = gen.random((30, 2))
        assert np.array_equal(tree.predict_proba(probe), restored.predict_proba(probe))
        assert restored.max_depth == 4


def test_tree_param_validation():
    with pytest.raises(ValueError, match="max_depth"):
        DecisionTreeClassifier(max_depth=0)
    with pytest.raises(ValueError, match="min_samples_split"):
        DecisionTreeClassifier(min_samples_split=0)
    with pytest.raises(ValueError, match="min_impurity_decrease"):
        DecisionTreeClassifier(min_impurity_decrease=-0.1)


def test_tree_input_validation():
    tree = DecisionTreeClassifier()
    with pytest.raises(ValueError, match="has not been fitted"):
        tree.predict_proba(np.array([1.0]))
    with pytest.raises(ValueError, match="2-D"):
        tree.fit(np.array([1.0, 2.0]), np.array([0, 1]))
    with pytest.raises(ValueError, match="nonempty"):
        tree.fit(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        tree.fit(np.ones((2, 1)), np.array([0, 5]))
    with pytest.raises(ValueError, match="shape"):
        tree.fit(np.ones((3, 1)), np.array([0, 1]))
    with pytest.raises(ValueError, match="sample_weight"):
        tree.fit(np.ones((2, 1)), np.array([0, 1]), sample_weight=np.ones(3))
    with pytest.raises(ValueError, match="not all be zero"):
        tree.fit(np.ones((2, 1)), np.array([0, 1]), sample_weight=np.zeros(2))
    tree.fit(np.ones((2, 2)), np.array([0, 1]))
    with pytest.raises(ValueError, match="expects 2 features"):
        tree.predict_proba(np.ones((2, 3)))


def test_adaboost_first_round_error_and_stage_weight():
    # Best stump cuts at 2.5 and mislabels the last sample: error 1/4,
    # stage weight 0.5 * ln(3).
    ada = AdaBoostClassifier(n_estimators=1)
    ada.fit(XS, np.array([0, 0, 1, 0]))
    assert len(ada.stages_) == 1
    assert ada.errors_ == [0.25]
    assert ada.stages_[0][0] == pytest.approx(0.5493061443340549, abs=1e-15)
    assert ada.stages_[0][0] == pytest.approx(0.5 * math.log(3))


def test_adaboost_reweights_missed_samples():
    ada = AdaBoostClassifier(n_estimators=1)
    ada.fit(XS, np.array([0, 0, 1, 0]))
    w = ada.sample_weight_
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    # The misclassified fourth sample was scaled by exp(0.5 ln 3) = sqrt(3).
    assert w[3] == pytest.approx(math.sqrt(3) / (3 + math.sqrt(3)), abs=1e-12)
    assert w[0] == w[1] == w[2]


def test_adaboost_weights_stay_normalized_fuzz():
    gen = np.random.default_rng(37)
    for _ in range(20):
        X = gen.random((40, 2))
        y = gen.integers(0, 2, size=40)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        ada = AdaBoostClassifier(n_estimators=5, weak_learner_depth=2)
        ada.fit(X, y)
        assert ada.sample_weight_.sum() == pytest.approx(1.0, abs=1e-12)
        assert (ada.sample_weight_ >= 0).all()
        for err in ada.errors_:
            assert 0.0 <= err < 0.5


def test_adaboost_single_round_equals_its_stump():
    y = np.array([0, 0, 1, 1])
    ada = AdaBoostClassifier(n_estimators=1)
    ada.fit(XS, y)
    stump = DecisionTreeClassifier(max_depth=1)
    stump.fit(XS, y)
    assert np.array_equal(
        ada.predict_proba(XS) >= 0.5, stump.predict_proba(XS) >= 0.5
    )


def test_adaboost_perfect_round_capped_weight_and_continue():
    # A separable problem drives error to 0; the stage weight caps at
    # 0.5 * ln(1e10) and boosting keeps going with uniform weights.
    ada = AdaBoostClassifier(n_estimators=3)
    ada.fit(XS, np.array([0, 0, 1, 1]))
    assert len(ada.stages_) == 3
    assert ada.errors_ == [0.0, 0.0, 0.0]
    for stage_weight, _ in ada.stages_:
        assert stage_weight == pytest.approx(11.512925464970229, abs=1e-12)
    # Unanimous votes give margin 1: probability 1 / (1 + exp(-2)).
    assert ada.predict_proba(np.array([4.0])) == pytest.approx(
        0.8807970779778823, abs=1e-15
    )
    assert ada.predict_proba(np.array([1.0])) == pytest.approx(
        1.0 - 0.8807970779778823, abs=1e-15
    )
    assert ada.decision_margin(np.array([4.0])) == pytest.approx(1.0)


def test_adaboost_gives_up_when_no_stump_helps():
    # Identical feature values admit no split; the leaf predicts 0.5 which
    # maps to class 1, erring on exactly half the weight. No stage is kept
    # and every score collapses to the neutral 0.5.
    ada = AdaBoostClassifier(n_estimators=5)
    ada.fit(np.ones((4, 1)), np.array([0, 1, 0, 1]))
    assert ada.stages_ == []
    assert ada.errors_ == []
    assert ada.decision_margin(np.array([1.0])) == 0.0
    assert ada.predict_proba(np.array([1.0])) == 0.5


def test_adaboost_learning_rate_scales_stage_weights():
    slow = AdaBoostClassifier(n_estimators=1, learning_rate=0.1)
    slow.fit(XS, np.array([0, 0, 1, 0]))
    assert slow.stages_[0][0] == pytest.approx(0.05 * math.log(3), abs=1e-15)


def test_adaboost_json_round_trip():
    gen = np.random.default_rng(43)
    X = gen.random((60, 2))
    y = gen.integers(0, 2, size=60)
    ada = AdaBoostClassifier(n_estimators=4, weak_learner_depth=2)
    ada.fit(X, y)
    restored = learner_from_doc(learner_to_doc(ada))
    probe = gen.random((25, 2))
    assert np.array_equal(ada.predict_proba(probe), restored.predict_proba(probe))
    assert restored.n_estimators == 4
    assert restored.weak_learner_depth == 2
    assert [s[0] for s in restored.stages_] == [s[0] for s in ada.stages_]


def test_adaboost_param_and_input_validation():
    with pytest.raises(ValueError, match="n_estimators"):
        AdaBoostClassifier(n_estimators=0)
    with pytest.raises(ValueError, match="weak_learner_depth"):
        AdaBoostClassifier(weak_learner_depth=0)
    with pytest.raises(ValueError, match="learning_rate"):
        AdaBoostClassifier(learning_rate=0.0)
    ada = AdaBoostClassifier()
    with pytest.raises(ValueError, match="requires both classes"):
        ada.fit(XS, np.array([0, 0, 0, 0]))
    with pytest.raises(ValueError, match="has not been fitted"):
        AdaBoostClassifier().predict_proba(np.array([1.0]))


def test_learner_registry_and_spec():
    assert set(LEARNER_REGISTRY) == {"tree", "adaboost"}
    spec = LearnerSpec("tree", {"max_depth": 3})
    model = spec.create()
    assert isinstance(model, DecisionTreeClassifier)
    assert model.max_depth == 3
    booster = LearnerSpec("adaboost", {"n_estimators": 7}).create()
    assert isinstance(booster, AdaBoostClassifier)
    assert booster.n_estimators == 7
    with pytest.raises(ValueError, match="unknown base learner 'svm'"):
        LearnerSpec("svm")


def test_learner_doc_dispatch_errors():
    with pytest.raises(ValueError, match="to_json_doc"):
        learner_to_doc(object())
    with pytest.raises(ValueError, match="unknown learner document kind 'mystery'"):
        learner_from_doc({"kind": "mystery"})
    with pytest.raises(ValueError, match="malformed learner document"):
        learner_from_doc({"params": {}})
    with pytest.raises(ValueError, match="tree document"):
        DecisionTreeClassifier.from_json_doc({"kind": "adaboost"})
