"""Reference computations the benchmark checks the package against.

Nothing here imports `selfpaced`: the oracles read only plain arrays and the
fields of a board description, so a fault in the package's metrics or data
code cannot hide itself by also being in its checker.
"""
from __future__ import annotations

import math

import numpy as np


def average_precision(labels, scores) -> float:
    """Average precision over the distinct score values, highest first.

    All rows that share a score form one group. Each group adds its share of
    the positives times the precision over every row scored at least as high.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be aligned 1-D arrays")
    values, group = np.unique(scores, return_inverse=True)
    rows = np.bincount(group, minlength=values.size)[::-1]
    positives = np.bincount(group, weights=labels == 1, minlength=values.size)[::-1]
    n_pos = positives.sum()
    if n_pos == 0 or n_pos == labels.size:
        raise ValueError("average precision needs both classes")
    precision = np.cumsum(positives) / np.cumsum(rows)
    return float(np.sum(positives / n_pos * precision))


def bayes_posterior(features, cov_scale, n_minority, n_majority, grid_size) -> np.ndarray:
    """P(class 1 | x) under the board's own Gaussian mixture.

    The board puts an isotropic Gaussian with variance `cov_scale` at every
    integer point (r, c) of a grid_size x grid_size grid. Class 1 owns the
    points with r + c odd; each class picks among its points uniformly. The
    class priors are the class shares of the board.
    """
    features = np.asarray(features, dtype=np.float64)
    grid = [(float(r), float(c)) for r in range(grid_size) for c in range(grid_size)]
    log_odds = math.log(n_minority) - math.log(n_majority)
    log_density = []
    for cls in (0, 1):
        centres = np.array([p for p in grid if (int(p[0]) + int(p[1])) % 2 == cls])
        sq_dist = ((features[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
        exponent = -sq_dist / (2.0 * cov_scale)
        peak = exponent.max(axis=1)
        log_sum = peak + np.log(np.exp(exponent - peak[:, None]).sum(axis=1))
        log_density.append(log_sum - math.log(len(centres)))
    log_odds = log_odds + log_density[1] - log_density[0]
    return 1.0 / (1.0 + np.exp(-log_odds))
