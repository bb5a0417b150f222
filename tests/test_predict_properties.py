"""One check per predict call, and one-row scores equal to batch scores.

A 1-D row is scored as a one-row matrix all the way down, so its score must
equal, bit for bit, that row's entry of a batch score. Every public predict
call checks its input once, however many members and stages sit below it.
"""
import numpy as np
from helpers import NearestMeanLearner
from hypothesis import given, settings
from hypothesis import strategies as st

from selfpaced.core import MeanScorer
from selfpaced.data import CheckerboardSpec, generate_checkerboard
from selfpaced.ensembles import SpeConfig, spe_fit
from selfpaced.learners import AdaBoostClassifier, DecisionTreeClassifier, LearnerSpec

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
WEAK_DEPTHS = st.integers(min_value=1, max_value=4)


def board(seed, n_minority=100, n_majority=1000):
    return generate_checkerboard(
        CheckerboardSpec(n_minority=n_minority, n_majority=n_majority, seed=seed)
    )


def assert_one_row_equals_batch(model, X):
    batch = model.predict_proba(X)
    for row, expected in zip(X, batch):
        single = model.predict_proba(row)
        assert type(single) is float
        # Bytes tell -0.0 from 0.0 and compare NaN payloads.
        assert np.float64(single).tobytes() == expected.tobytes()


@settings(max_examples=20, deadline=None, database=None)
@given(seed=SEEDS, weak_depth=WEAK_DEPTHS)
def test_bare_learner_one_row_equals_batch(seed, weak_depth):
    data = board(seed)
    X, y = data.features, data.labels
    assert_one_row_equals_batch(DecisionTreeClassifier(max_depth=3 * weak_depth).fit(X, y), X)
    assert_one_row_equals_batch(AdaBoostClassifier(10, weak_depth).fit(X, y), X)


@settings(max_examples=10, deadline=None, database=None)
@given(seed=SEEDS, weak_depth=WEAK_DEPTHS)
def test_ensemble_one_row_equals_batch(seed, weak_depth):
    data = board(seed, 50, 500)
    probe = data.features[::3]
    for learner in (
        LearnerSpec("tree", {"max_depth": 3 * weak_depth}),
        LearnerSpec("adaboost", {"weak_learner_depth": weak_depth}),
    ):
        model = spe_fit(data, SpeConfig(n_estimators=3, base_learner=learner, seed=seed))
        assert_one_row_equals_batch(model, probe)
    mixed = MeanScorer([
        NearestMeanLearner().fit(data.features, data.labels),
        DecisionTreeClassifier(max_depth=weak_depth).fit(data.features, data.labels),
    ])
    assert_one_row_equals_batch(mixed, probe)


def test_an_ensemble_of_boosters_checks_its_input_once(monkeypatch):
    data = board(7, 40, 400)
    spec = LearnerSpec("adaboost", {"n_estimators": 3, "weak_learner_depth": 2})
    model = spe_fit(data, SpeConfig(n_estimators=3, base_learner=spec))
    scans = []
    isfinite = np.isfinite

    def counting_isfinite(values, *args, **kwargs):
        scans.append(np.shape(values))
        return isfinite(values, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    for X in (data.features, data.features[0], data.features[:1]):
        scans.clear()
        model.predict_proba(X)
        assert scans == [np.atleast_2d(X).shape]
