"""Independent oracles used to freeze and cross-check expected test values,
and a base learner from outside the package.

These deliberately avoid the library's own code paths: the AUCPRC oracle
re-derives precision/recall at every distinct threshold by direct counting,
and the confusion-metric oracle evaluates the textbook formulas with exact
rational arithmetic.
"""

import math
from fractions import Fraction

import numpy as np


def brute_force_aucprc(labels, scores):
    """Average precision by exhaustive threshold sweep.

    Every distinct score is used as a threshold (predict positive when
    score >= threshold), visited from high to low so recall is
    non-decreasing, recomputing the confusion counts from scratch each time
    with no sorting or cumulative shortcuts. Area accumulates as
    (recall step) x (precision at that threshold) in that same order, which
    is the definition of the average-precision step area; following the
    definitional operation order keeps float results bitwise comparable.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0 or n_pos == len(labels):
        raise ValueError("need both classes")
    area = 0.0
    prev_recall = 0.0
    for threshold in sorted(set(float(s) for s in scores), reverse=True):
        predicted = scores >= threshold
        tp = int(np.sum(predicted & (labels == 1)))
        fp = int(np.sum(predicted & (labels == 0)))
        recall = tp / n_pos
        precision = tp / (tp + fp) if tp + fp else 0.0
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def formula_confusion_scores(tp, fp, fn, tn):
    """The five metrics straight from their defining formulas, as exactly
    as float conversion allows (rationals throughout, one final sqrt)."""

    def ratio(num, den):
        return Fraction(num, den) if den else Fraction(0)

    recall = ratio(tp, tp + fn)
    precision = ratio(tp, tp + fp)
    f1 = (ratio(2 * recall * precision, recall + precision)
          if recall + precision else Fraction(0))
    gmean = math.sqrt(recall * precision)
    mcc_den_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if mcc_den_sq:
        mcc = (tp * tn - fp * fn) / math.sqrt(mcc_den_sq)
    else:
        mcc = 0.0
    return {
        "precision": float(precision),
        "recall": float(recall),
        "f1": float(f1),
        "gmean": gmean,
        "mcc": mcc,
    }


def random_scored_instance(gen, max_size=20):
    """A small random labeled/scored instance containing both classes."""
    size = int(gen.integers(2, max_size + 1))
    while True:
        labels = gen.integers(0, 2, size=size)
        if 0 < labels.sum() < size:
            break
    # Quantized scores force frequent ties, exercising the block rule.
    scores = gen.integers(0, 11, size=size) / 10.0
    return labels, scores


class NearestMeanLearner:
    """A factory base learner that honours only the public contract.

    It scores a row by its distance to each class mean and checks nothing,
    so on its own a NaN row comes back as a NaN score.
    """

    def fit(self, X, y, sample_weight=None):
        X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
        self.centres_ = np.array([X[y == 0].mean(axis=0), X[y == 1].mean(axis=0)])
        self.n_features_in_ = X.shape[1]
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        distance = ((X[..., np.newaxis, :] - self.centres_) ** 2).sum(axis=-1)
        scores = distance[..., 0] / (distance[..., 0] + distance[..., 1])
        return float(scores) if X.ndim == 1 else scores
