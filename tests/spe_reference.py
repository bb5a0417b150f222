"""Reference spe: the self-paced under-sampling loop, written out plainly.

A bootstrap learner f0 is fitted on as many majority rows as there are
minority rows, drawn with `generator.choice`, plus every minority row. Then
each iteration i = 1..n:

- re-sums every member's scores on the majority rows in member order, from
  f0 on, and divides by the member count;
- takes each row's hardness against label 0;
- cuts the hardness range into k equal-width bins by masks, each interior
  edge belonging to the bin above it; all-tied values go to bin 0;
- weighs a bin 1 / max(mean hardness + alpha, 1e-12), with
  alpha = tan((i - 1) / n * pi / 2), or 0 if the bin is empty, then
  normalizes the weights;
- splits the minority count into bin quotas by largest remainder, ties to
  the lowest bin, caps each at its bin's size and splits what the caps cut
  off again among the bins with room;
- draws each bin's quota in bin order, taking a bin whole, with no draw,
  when its quota is its size, and fits the next learner on the drawn rows
  plus every minority row.

The model averages f1..fn. The reference needs at least as many majority as
minority rows. It shares only the `RandomSource` keys ("undersample", i),
`Dataset` and the learner with `spe_fit`, and imports nothing from
`selfpaced.sampling` or `selfpaced.ensembles`: for the same inputs the
library's members, alphas, bin counts and scores must equal these, bit for
bit.
"""
import math

import numpy as np

from selfpaced.core import RandomSource

# The hardness of a majority row (label 0) whose ensemble score is p.
REFERENCE_HARDNESS = {
    "absolute": np.abs,
    "squared": lambda p: p * p,
    "cross-entropy": lambda p: -np.log(1.0 - np.clip(p, 1e-12, 1.0 - 1e-12)),
}


def reference_bins(values, k):
    """Per bin, the positions of the values it holds, in input order."""
    lo, hi = values.min(), values.max()
    if lo == hi:
        return [np.arange(values.size)] + [np.arange(0)] * (k - 1)
    edges = np.linspace(lo, hi, k + 1)
    bins = []
    for b in range(k):
        inside = np.ones(values.size, dtype=bool)
        if b > 0:
            inside &= values >= edges[b]
        if b < k - 1:
            inside &= values < edges[b + 1]
        bins.append(np.flatnonzero(inside))
    return bins


def reference_quotas(weights, sizes, target):
    """Bin quotas summing to `target`, none above its bin's size."""
    quotas = [0] * len(sizes)
    remaining = target
    while remaining > 0:
        open_bins = [b for b in range(len(sizes)) if quotas[b] < sizes[b]]
        w = weights[open_bins]
        ideal = w / w.sum() * remaining
        shares = [math.floor(x) for x in ideal]
        leftover = remaining - sum(shares)
        # Largest remainder first; among equal remainders, the lowest bin.
        ranked = sorted(range(len(open_bins)), key=lambda j: (-(ideal[j] - shares[j]), j))
        for j in ranked[:leftover]:
            shares[j] += 1
        for j, b in enumerate(open_bins):
            give = min(shares[j], sizes[b] - quotas[b])
            quotas[b] += give
            remaining -= give
    return quotas


def reference_spe(data, n_estimators, make_learner, seed, k_bins, hardness):
    """(members f1..fn, alpha of each, bin counts of each) of an spe fit."""
    X, y = data.features, data.labels
    minority = np.flatnonzero(y == 1)
    majority = np.flatnonzero(y == 0)
    assert majority.size >= minority.size
    hardness_of = REFERENCE_HARDNESS[hardness]

    def fit(majority_rows):
        rows = np.concatenate([majority_rows, minority])
        return make_learner().fit(X[rows], y[rows])

    gen = RandomSource(seed).child("undersample", 0).generator
    learners = [fit(majority[gen.choice(majority.size, size=minority.size, replace=False)])]
    alphas, counts = [], []
    for i in range(1, n_estimators + 1):
        total = np.zeros(majority.size)
        for learner in learners:
            total = total + learner.predict_proba(X[majority])
        values = hardness_of(total / len(learners))
        bins = reference_bins(values, k_bins)
        alpha = math.tan((i - 1) / n_estimators * math.pi / 2)
        raw = np.zeros(k_bins)
        for b, positions in enumerate(bins):
            if positions.size:
                raw[b] = 1.0 / max(values[positions].mean() + alpha, 1e-12)
        sizes = [positions.size for positions in bins]
        quotas = reference_quotas(raw / raw.sum(), sizes, minority.size)
        gen = RandomSource(seed).child("undersample", i).generator
        drawn = []
        for positions, quota in zip(bins, quotas):
            if quota == positions.size:
                drawn.append(majority[positions])
            elif quota:
                drawn.append(majority[positions[gen.choice(positions.size, size=quota,
                                                           replace=False)]])
        learners.append(fit(np.concatenate(drawn)))
        alphas.append(alpha)
        counts.append(tuple(sizes))
    return learners[1:], alphas, counts
