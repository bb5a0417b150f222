"""Reference cascade: the BalanceCascade loop, written out plainly.

Each round draws as many majority rows as there are minority rows from the
live pool with `generator.choice`, fits a learner on them plus every
minority row, and then, unless it is the last round, scores every majority
row with every member so far, re-sums the members' mean in member order,
and keeps the ceil(rate * |pool|) live rows of highest mean (ties to the
lower row) through a boolean mask. It stops once the pool holds fewer rows
than the minority.

It shares only the `RandomSource` keys ("undersample", i) and the learner
with `cascade_fit`, and imports nothing from `selfpaced.sampling` or
`selfpaced.ensembles`: for the same inputs the library's members, pool
sizes and scores must equal these, bit for bit.
"""
import math

import numpy as np

from selfpaced.core import RandomSource


def reference_mean(members, X):
    """The members' mean score of each row of X, summed in member order."""
    total = np.zeros(X.shape[0])
    for member in members:
        total = total + member.predict_proba(X)
    return total / len(members)


def reference_cascade(data, n_estimators, make_learner, seed, keep_fp_rate=None):
    """(members, pool size before each member's draw) of a cascade."""
    X, y = data.features, data.labels
    minority = np.flatnonzero(y == 1)
    majority = np.flatnonzero(y == 0)
    if keep_fp_rate is None:
        keep_fp_rate = (minority.size / majority.size) ** (1.0 / (n_estimators - 1))
    live = np.ones(majority.size, dtype=bool)
    members, pool_sizes = [], []
    for i in range(n_estimators):
        pool = majority[live]
        gen = RandomSource(seed).child("undersample", i).generator
        drawn = pool[gen.choice(pool.size, size=minority.size, replace=False)]
        rows = np.concatenate([drawn, minority])
        members.append(make_learner().fit(X[rows], y[rows]))
        pool_sizes.append(pool.size)
        if i == n_estimators - 1:
            break
        mean = reference_mean(members, X[majority])
        keep = math.ceil(keep_fp_rate * pool.size)
        live_rows = np.flatnonzero(live)
        # Highest mean first; among equal means, the lower row first.
        ranked = sorted(live_rows.tolist(), key=lambda row: (-mean[row], row))
        live = np.zeros(majority.size, dtype=bool)
        live[ranked[:keep]] = True
        if keep < minority.size:
            break
    return members, pool_sizes
