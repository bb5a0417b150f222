"""Confusion-matrix metrics, precision-recall area, and stratified splitting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import brute_force_aucprc, formula_confusion_scores, random_scored_instance
from selfpaced.core import Dataset, RandomSource
from selfpaced.metrics import (
    ConfusionMatrix,
    aucprc,
    confusion,
    confusion_scores,
    metric_report,
    stratified_split,
)


def test_confusion_perfect_and_inverted():
    perfect = confusion(np.array([1, 0]), np.array([0.9, 0.1]))
    assert (perfect.tp, perfect.fp, perfect.fn, perfect.tn) == (1, 0, 0, 1)
    inverted = confusion(np.array([1, 0]), np.array([0.1, 0.9]))
    assert (inverted.tp, inverted.fp, inverted.fn, inverted.tn) == (0, 1, 1, 0)


def test_confusion_boundary_score_counts_positive():
    cm = confusion(np.array([1, 0]), np.array([0.5, 0.5]))
    assert cm.tp == 1
    assert cm.fp == 1
    assert cm.fn == 0
    assert cm.tn == 0


def test_confusion_custom_threshold():
    cm = confusion(np.array([1, 1, 0]), np.array([0.8, 0.6, 0.6]), threshold=0.7)
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 0, 1, 1)
    assert cm.total == 3


def test_confusion_input_validation():
    with pytest.raises(ValueError):
        confusion(np.array([1, 0]), np.array([0.5]))
    with pytest.raises(ValueError):
        confusion(np.array([1, 2]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        confusion(np.array([1, 0]), np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        confusion(np.array([], dtype=int), np.array([]))


def test_scores_perfect_matrix():
    scores = confusion_scores(ConfusionMatrix(tp=1, fp=0, fn=0, tn=1))
    assert scores.precision == 1.0
    assert scores.recall == 1.0
    assert scores.f1 == 1.0
    assert scores.gmean == 1.0
    assert scores.mcc == 1.0


def test_scores_worked_example():
    # tp=50 fp=10 fn=20 tn=920: P=50/60, R=50/70, MCC=45800/sqrt(60*70*930*940).
    scores = confusion_scores(ConfusionMatrix(tp=50, fp=10, fn=20, tn=920))
    assert scores.precision == pytest.approx(0.8333333333333334, abs=1e-12)
    assert scores.recall == pytest.approx(0.7142857142857143, abs=1e-12)
    assert scores.f1 == pytest.approx(0.7692307692307693, abs=1e-12)
    assert scores.gmean == pytest.approx(0.7715167498104596, abs=1e-12)
    assert scores.mcc == pytest.approx(0.75584967683511, abs=1e-12)
    assert scores.mcc == pytest.approx(45800 / math.sqrt(60 * 70 * 930 * 940))
    # Published four-decimal approximations of the same numbers.
    assert scores.precision == pytest.approx(0.8333, abs=5e-5)
    assert scores.recall == pytest.approx(0.7143, abs=5e-5)
    assert scores.f1 == pytest.approx(0.7692, abs=5e-5)
    assert scores.gmean == pytest.approx(0.7715, abs=5e-5)
    assert scores.mcc == pytest.approx(0.7558, abs=5e-5)


def test_scores_degenerate_zero_conventions():
    no_predicted_positive = confusion_scores(ConfusionMatrix(tp=0, fp=0, fn=3, tn=5))
    assert no_predicted_positive.precision == 0.0
    assert no_predicted_positive.f1 == 0.0
    assert no_predicted_positive.gmean == 0.0
    assert no_predicted_positive.mcc == 0.0

    all_one_cell = confusion_scores(ConfusionMatrix(tp=0, fp=0, fn=0, tn=7))
    assert all_one_cell.precision == 0.0
    assert all_one_cell.recall == 0.0
    assert all_one_cell.mcc == 0.0


def test_scores_validation():
    with pytest.raises(ValueError):
        confusion_scores(ConfusionMatrix(tp=-1, fp=0, fn=0, tn=1))
    with pytest.raises(ValueError):
        confusion_scores(ConfusionMatrix(tp=0, fp=0, fn=0, tn=0))


def test_scores_match_formula_oracle_fuzz():
    gen = np.random.default_rng(53)
    for _ in range(100):
        tp, fp, fn, tn = (int(v) for v in gen.integers(0, 50, size=4))
        if tp + fp + fn + tn == 0:
            continue
        ours = confusion_scores(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        oracle = formula_confusion_scores(tp, fp, fn, tn)
        assert ours.precision == pytest.approx(oracle["precision"], abs=1e-12)
        assert ours.recall == pytest.approx(oracle["recall"], abs=1e-12)
        assert ours.f1 == pytest.approx(oracle["f1"], abs=1e-12)
        assert ours.gmean == pytest.approx(oracle["gmean"], abs=1e-12)
        assert ours.mcc == pytest.approx(oracle["mcc"], abs=1e-12)
        assert -1.0 <= ours.mcc <= 1.0
        for v in (ours.precision, ours.recall, ours.f1, ours.gmean):
            assert 0.0 <= v <= 1.0


def test_aucprc_perfect_ranking():
    assert aucprc(np.array([1, 1, 0, 0]), np.array([0.9, 0.8, 0.2, 0.1])) == 1.0


def test_aucprc_worked_example():
    # Ranks: positive at 0.9 (P=1, dR=1/2), negative at 0.8, positive at 0.3
    # (P=2/3, dR=1/2) -> 1/2 + 1/3 = 5/6.
    value = aucprc(np.array([1, 0, 1]), np.array([0.9, 0.8, 0.3]))
    assert value == pytest.approx(0.8333333333333334, abs=1e-12)
    assert value == pytest.approx(5 / 6)


def test_aucprc_all_tied_scores_equal_prevalence():
    labels = np.array([1, 0, 0, 0, 1, 0, 0, 0, 0, 0])
    value = aucprc(labels, np.full(10, 0.4))
    assert value == pytest.approx(0.2, abs=1e-12)


def test_aucprc_tie_block_uses_block_end_precision():
    # Scores 0.9, then a tied block {pos, neg} at 0.5: the block contributes
    # dR=1/2 at precision 2/3 -> total 1/2 + 1/3.
    value = aucprc(np.array([1, 1, 0]), np.array([0.9, 0.5, 0.5]))
    assert value == pytest.approx(5 / 6, abs=1e-12)


def test_aucprc_single_class_rejected():
    with pytest.raises(ValueError, match="positive and one negative"):
        aucprc(np.array([1, 1]), np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="positive and one negative"):
        aucprc(np.array([0, 0]), np.array([0.5, 0.6]))


def test_aucprc_invariant_under_monotone_transform():
    gen = np.random.default_rng(59)
    for _ in range(20):
        labels = gen.integers(0, 2, size=15)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = gen.random(15)
        assert aucprc(labels, scores) == pytest.approx(
            aucprc(labels, scores**2), abs=1e-12
        )


def test_aucprc_matches_brute_force_fuzz():
    gen = np.random.default_rng(61)
    for _ in range(100):
        labels, scores = random_scored_instance(gen)
        assert aucprc(labels, scores) == brute_force_aucprc(labels, scores)
        # Swapping the classes and flipping scores is another valid instance.
        assert aucprc(1 - labels, 1.0 - scores) == brute_force_aucprc(
            1 - labels, 1.0 - scores
        )


def test_metric_report_keys_and_values():
    labels = np.array([1, 0, 1, 0, 0])
    scores = np.array([0.9, 0.6, 0.4, 0.2, 0.1])
    report = metric_report(labels, scores, threshold=0.3)
    assert list(report) == [
        "aucprc", "f1", "gmean", "mcc", "precision", "recall", "threshold",
    ]
    cs = confusion_scores(confusion(labels, scores, threshold=0.3))
    assert report == {
        "aucprc": aucprc(labels, scores), "f1": cs.f1, "gmean": cs.gmean,
        "mcc": cs.mcc, "precision": cs.precision, "recall": cs.recall, "threshold": 0.3,
    }
    assert metric_report(labels, scores)["threshold"] == 0.5


def loop_aucprc(labels, scores):
    """Reference: the block loop `aucprc` ran before it summed with cumsum."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(labels == 1))
    order = np.argsort(-scores, kind="stable")
    ranked_scores = scores[order]
    tp_cum = np.cumsum(labels[order] == 1)
    is_block_end = np.empty(labels.size, dtype=bool)
    is_block_end[:-1] = ranked_scores[:-1] != ranked_scores[1:]
    is_block_end[-1] = True
    area = 0.0
    prev_recall = 0.0
    for end in np.flatnonzero(is_block_end):
        tp = int(tp_cum[end])
        recall = tp / n_pos
        area += (recall - prev_recall) * (tp / (end + 1))
        prev_recall = recall
    return area


@st.composite
def tied_scored_instances(draw):
    size = draw(st.integers(min_value=2, max_value=300))
    labels = draw(hnp.arrays(np.int64, size, elements=st.integers(0, 1)))
    labels[:2] = (0, 1)
    # Few distinct scores, so most blocks hold many rows; sometimes all tied.
    n_levels = draw(st.integers(min_value=1, max_value=12))
    levels = st.integers(min_value=0, max_value=n_levels - 1).map(lambda v: v / 11.0)
    return labels, draw(hnp.arrays(np.float64, size, elements=levels))


@settings(max_examples=150, deadline=None, database=None)
@given(instance=tied_scored_instances())
def test_aucprc_equals_the_block_loop_bitwise(instance):
    labels, scores = instance
    value = aucprc(labels, scores)
    assert type(value) is float
    assert value.hex() == loop_aucprc(labels, scores).hex()


def test_aucprc_equals_the_block_loop_on_distinct_scores():
    gen = np.random.default_rng(67)
    for size in (2, 10, 1000, 20000):
        labels = gen.integers(0, 2, size=size)
        labels[:2] = (0, 1)
        scores = gen.random(size)
        assert aucprc(labels, scores).hex() == loop_aucprc(labels, scores).hex()


def imbalanced_dataset(n_majority=100, n_minority=10):
    n = n_majority + n_minority
    features = np.arange(n, dtype=np.float64).reshape(-1, 1)
    labels = np.concatenate(
        [np.zeros(n_majority, dtype=int), np.ones(n_minority, dtype=int)]
    )
    return Dataset(features, labels)


def test_split_exact_counts():
    data = imbalanced_dataset()
    train, validation, test = stratified_split(data, rng=RandomSource(0))
    assert (train.n_majority, train.n_minority) == (60, 6)
    assert (validation.n_majority, validation.n_minority) == (20, 2)
    assert (test.n_majority, test.n_minority) == (20, 2)
    for part in (train, validation, test):
        assert part.imbalance_ratio == 10.0


def test_split_disjoint_and_exhaustive():
    data = imbalanced_dataset()
    parts = stratified_split(data, rng=RandomSource(3))
    seen = []
    for part in parts:
        seen.extend(part.features[:, 0].tolist())
    assert sorted(seen) == list(range(110))


def test_split_deterministic_and_seed_sensitive():
    data = imbalanced_dataset()
    a = stratified_split(data, rng=RandomSource(7))
    b = stratified_split(data, rng=RandomSource(7))
    c = stratified_split(data, rng=RandomSource(8))
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[2].features, b[2].features)
    assert not np.array_equal(a[0].features, c[0].features)


def test_split_uneven_fractions():
    data = imbalanced_dataset(n_majority=10, n_minority=5)
    train, validation, test = stratified_split(
        data, fractions=(0.5, 0.25, 0.25), rng=RandomSource(1)
    )
    assert (train.n_majority, train.n_minority) == (5, 3)
    assert (validation.n_majority, validation.n_minority) == (3, 1)
    assert (test.n_majority, test.n_minority) == (2, 1)


def test_split_validation():
    data = imbalanced_dataset()
    with pytest.raises(ValueError, match="requires a RandomSource"):
        stratified_split(data)
    with pytest.raises(ValueError, match="three fractions"):
        stratified_split(data, fractions=(0.5, 0.5), rng=RandomSource(0))
    with pytest.raises(ValueError, match="sum to 1"):
        stratified_split(data, fractions=(0.5, 0.3, 0.3), rng=RandomSource(0))
    with pytest.raises(ValueError, match="positive"):
        stratified_split(data, fractions=(1.0, 0.0, 0.0), rng=RandomSource(0))
    tiny = imbalanced_dataset(n_majority=50, n_minority=2)
    with pytest.raises(ValueError, match="class 1 has only 2 samples"):
        stratified_split(tiny, rng=RandomSource(0))
