"""Threshold metrics, the area under the precision-recall curve, and splits.

Conventions: a sample is predicted positive when its score is greater than or
equal to the threshold, and every 0/0 ratio collapses to 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, _check_unit_interval, _labels, _number
from .sampling import largest_remainder_shares

__all__ = [
    "ConfusionMatrix",
    "ConfusionScores",
    "confusion",
    "confusion_scores",
    "aucprc",
    "metric_report",
    "stratified_split",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class ConfusionScores:
    precision: float
    recall: float
    f1: float
    gmean: float
    mcc: float


def _checked_scored(labels, scores):
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("labels and scores must be aligned 1-D sequences")
    if labels.size == 0:
        raise ValueError("cannot score an empty prediction set")
    labels = _labels(labels)
    _check_unit_interval(scores, "scores")
    return labels, scores


def confusion(labels, scores, threshold=0.5) -> ConfusionMatrix:
    """Confusion counts at a threshold (score >= threshold is positive)."""
    labels, scores = _checked_scored(labels, scores)
    threshold = _number(threshold, "threshold")
    if math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold}")
    predicted = scores >= threshold
    actual = labels == 1
    return ConfusionMatrix(
        tp=int(np.sum(predicted & actual)),
        fp=int(np.sum(predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
        tn=int(np.sum(~predicted & ~actual)),
    )


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def confusion_scores(cm: ConfusionMatrix) -> ConfusionScores:
    """Precision, recall, F1, G-mean and MCC from confusion counts.

    G-mean here is the geometric mean of recall and precision. MCC is 0
    whenever any marginal of the matrix is empty.
    """
    if min(cm.tp, cm.fp, cm.fn, cm.tn) < 0:
        raise ValueError("confusion counts must be nonnegative")
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    f1 = _ratio(2 * recall * precision, recall + precision)
    gmean = math.sqrt(recall * precision)
    denom_sq = (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    mcc = _ratio(cm.tp * cm.tn - cm.fp * cm.fn, math.sqrt(denom_sq))
    return ConfusionScores(precision, recall, f1, gmean, mcc)


def aucprc(labels, scores) -> float:
    """Area under the precision-recall curve by the average-precision step rule.

    Samples are ranked by score descending; all samples sharing a score form
    one block and contribute (delta recall) * (precision at the block end).
    Requires at least one positive and one negative label.
    """
    labels, scores = _checked_scored(labels, scores)
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0 or n_pos == labels.size:
        raise ValueError("aucprc requires at least one positive and one negative")
    # One block per distinct score, in descending order: its row count and
    # its positive count give the block end's rank and true positives.
    distinct, block_of = np.unique(scores, return_inverse=True)
    rows = np.bincount(block_of, minlength=distinct.size)[::-1]
    positives = np.bincount(block_of[labels == 1], minlength=distinct.size)[::-1]
    tp = np.cumsum(positives)
    recall = tp / n_pos
    terms = np.diff(recall, prepend=0.0) * (tp / np.cumsum(rows))
    # cumsum adds the blocks one after another, in rank order; np.sum's
    # pairwise order would round differently.
    return float(np.cumsum(terms)[-1])


def metric_report(labels, scores, threshold=0.5) -> dict:
    """AUCPRC plus the confusion scores at `threshold`, and the threshold.

    The one metric set of `eval`, `metrics` and the benchmark cells; its key
    order is the order of their JSON.
    """
    cs = confusion_scores(confusion(labels, scores, threshold=threshold))
    return {
        "aucprc": aucprc(labels, scores),
        "f1": cs.f1,
        "gmean": cs.gmean,
        "mcc": cs.mcc,
        "precision": cs.precision,
        "recall": cs.recall,
        "threshold": threshold,
    }


def stratified_split(data: Dataset, fractions=(0.6, 0.2, 0.2), rng=None):
    """Split a dataset into three parts, preserving class proportions.

    Per class, counts follow the fractions by largest remainder (so each
    split's class share is within one sample of exact), rows are shuffled by
    `rng`, and the splits are disjoint and exhaustive. Each class must have
    at least three samples.
    """
    if rng is None:
        raise ValueError("stratified_split requires a RandomSource")
    fractions = tuple(_number(f, "fractions") for f in fractions)
    if len(fractions) != 3:
        raise ValueError(f"expected three fractions, got {len(fractions)}")
    if not all(f > 0 for f in fractions):
        raise ValueError("fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")

    gen = rng.generator
    blocks = ([], [], [])
    for cls in (0, 1):
        rows = np.flatnonzero(data.labels == cls)
        if rows.size < 3:
            raise ValueError(
                f"class {cls} has only {rows.size} samples; need at least 3 to split"
            )
        counts = largest_remainder_shares(fractions, rows.size)
        shuffled = gen.permutation(rows)
        start = 0
        for part, count in enumerate(counts):
            blocks[part].append(shuffled[start:start + count])
            start += count
    splits = []
    for part in range(3):
        rows = np.sort(np.concatenate(blocks[part]))
        splits.append(data.subset(rows))
    return tuple(splits)
