"""Hardness binning, the self-paced quota schedule, and random resamplers."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import _integer, _number, _row_ids

__all__ = [
    "BinPartition",
    "partition_bins",
    "self_paced_alpha",
    "bin_sampling_weights",
    "self_paced_undersample",
    "random_undersample",
    "random_oversample",
    "draw_undersample",
    "largest_remainder_shares",
    "ResamplingWarning",
    "WEIGHT_EPS",
]

# Stand-in divisor when a bin's mean hardness and alpha are both exactly zero.
WEIGHT_EPS = 1e-12


class ResamplingWarning(UserWarning):
    """Raised when a draw must fall back to sampling with replacement."""


@dataclass(frozen=True)
class BinPartition:
    """Equal-width partition of hardness values.

    edges: k+1 bin boundaries over the observed hardness range.
    member_indices: per bin, the positions in the binned values of those
        that landed there, in input order.
    mean_hardness: per bin mean hardness, NaN where a bin is empty.
    """

    edges: np.ndarray
    member_indices: tuple
    mean_hardness: np.ndarray

    @property
    def k(self) -> int:
        return len(self.member_indices)

    @property
    def counts(self) -> np.ndarray:
        return np.array([idx.size for idx in self.member_indices], dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def partition_bins(values, k) -> BinPartition:
    """Cut values into k equal-width bins over their observed range.

    Bins are left-closed and right-open, except the last which is closed on
    both sides. If every value is identical the first bin takes everything.
    Each bin holds the positions of its values in input order; a caller with
    row ids maps only the positions it draws.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("hardness values must be a nonempty 1-D sequence")
    # min and max propagate NaN and meet any infinity.
    lo = float(values.min())
    hi = float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("hardness values must be finite")
    k = _integer(k, "k", 1)

    edges = np.linspace(lo, hi, k + 1)
    if lo == hi:
        bins = np.zeros(values.size, dtype=np.intp)
    else:
        bins = _edge_checked_bins(values, edges, lo, hi)

    # The narrowest unsigned type that holds every bin number lets the stable
    # sort below run as numpy's linear-time radix sort.
    bin_dtype = np.min_scalar_type(k - 1)
    # One stable sort groups the bins and keeps input order inside each, so a
    # bin's slice holds the same values in the same order as a mask would.
    order = np.argsort(bins.astype(bin_dtype), kind="stable")
    sorted_values = values[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(bins, minlength=k))))
    member_indices = []
    mean_hardness = np.full(k, np.nan)
    for b in range(k):
        start, stop = bounds[b], bounds[b + 1]
        member_indices.append(order[start:stop])
        if stop > start:
            mean_hardness[b] = sorted_values[start:stop].mean()
    return BinPartition(edges, tuple(member_indices), mean_hardness)


def _edge_checked_bins(values, edges, lo, hi):
    """Each value's bin, `searchsorted(edges[1:-1], v, side="right")` bit for bit.

    Needs lo < hi. An arithmetic guess lands within a bin or so of the answer; then each
    guess steps towards the one bin b with lower[b] <= v < upper[b], which is
    unique because the edges never decrease. The first pass checks every
    value, later passes only those whose guess moved. The guess divides by
    the span before it multiplies by k, so it stays in [0, k] even when k /
    (hi - lo) would overflow. A span where hi - lo overflows starts every
    guess at bin 0 and takes up to k - 1 passes over the values still moving.
    """
    k = edges.size - 1
    span = hi - lo
    if math.isfinite(span):
        guess = np.subtract(values, lo)
        guess /= span
        guess *= k
        bins = np.minimum(guess, k - 1, out=guess).astype(np.intp)
    else:
        bins = np.zeros(values.size, dtype=np.intp)
    # Like searchsorted over the interior edges, the checks never read
    # edges[0] or edges[-1] (edges[0] is NaN when hi - lo overflows).
    lower = np.concatenate(([-np.inf], edges[1:-1]))
    upper = np.concatenate((edges[1:-1], [np.inf]))
    rows, v, guessed = None, values, bins
    while True:
        step = (v >= upper[guessed]).view(np.int8) - (v < lower[guessed]).view(np.int8)
        moved = np.flatnonzero(step)
        if moved.size == 0:
            return bins
        rows = moved if rows is None else rows[moved]
        bins[rows] += step[moved]
        v, guessed = values[rows], bins[rows]


def self_paced_alpha(i, n) -> float:
    """Self-paced factor for iteration i of n: tan(((i-1)/n) * pi/2).

    Starts at exactly 0.0 for i=1 and grows strictly. The angle stays below
    pi/2, so alpha stays finite: at i=n it is tan((n-1)/n * pi/2), about
    2n/pi (6.31 at n=10).
    """
    i = _integer(i, "i")
    n = _integer(n, "n", 1)
    if not 1 <= i <= n:
        raise ValueError(f"iteration must lie in [1, {n}], got {i}")
    if i == 1:
        return 0.0
    return math.tan(((i - 1) / n) * (math.pi / 2))


def bin_sampling_weights(partition: BinPartition, alpha) -> np.ndarray:
    """Normalized per-bin sampling weights 1 / (mean_hardness + alpha).

    Empty bins get weight 0. A bin whose mean hardness plus alpha is below
    WEIGHT_EPS, such as both exactly zero, gets the dominating (but finite)
    unnormalized weight 1 / WEIGHT_EPS; a tinier positive sum would overflow.
    """
    alpha = _number(alpha, "alpha")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be a nonnegative finite real, got {alpha}")
    filled = partition.counts > 0
    if not filled.any():
        raise ValueError("partition has no nonempty bins")
    # An empty bin's mean is NaN, and so is its reciprocal, until the mask drops it.
    raw = np.where(filled, 1.0 / np.maximum(partition.mean_hardness + alpha, WEIGHT_EPS), 0.0)
    return raw / raw.sum()


def largest_remainder_shares(weights, total) -> np.ndarray:
    """Integer shares of `total` proportional to weights, summing exactly.

    Floors the ideal shares, then hands the leftover units to the largest
    fractional remainders; remainder ties go to the lowest index.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a nonempty 1-D sequence")
    if (weights < 0).any() or not np.isfinite(weights).all():
        raise ValueError("weights must be nonnegative finite reals")
    total = _integer(total, "total", 0)
    wsum = weights.sum()
    if wsum <= 0:
        raise ValueError("weights must not all be zero")
    ideal = weights / wsum * total
    base = np.floor(ideal).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        remainder = ideal - base
        # Primary key: largest remainder; secondary: lowest index.
        order = np.lexsort((np.arange(weights.size), -remainder))
        base[order[:leftover]] += 1
    return base


def _capped_quotas(weights, capacities, target):
    """Apportion `target` across bins, never exceeding per-bin capacity.

    Deficit from capped bins is redistributed proportionally among bins with
    remaining capacity; if those all have zero weight the deficit spreads
    uniformly. Returns (quotas, unmet) where unmet > 0 only when the total
    capacity is below target.
    """
    weights = np.asarray(weights, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.int64)
    quotas = np.zeros(weights.size, dtype=np.int64)
    remaining = int(target)
    while remaining > 0:
        room = capacities - quotas
        active = room > 0
        if not active.any():
            break
        w = weights[active]
        if w.sum() <= 0:
            w = np.ones(w.size)
        alloc = largest_remainder_shares(w, remaining)
        alloc = np.minimum(alloc, room[active])
        quotas[active] += alloc
        remaining -= int(alloc.sum())
    return quotas, remaining


def self_paced_undersample(partition, weights, target, rng) -> np.ndarray:
    """Draw `target` member indices from a partition, bin-proportionally.

    Integer quotas follow the weights by largest remainder, are capped at bin
    occupancy with the deficit redistributed, and each bin is then sampled
    uniformly without replacement. If the partition holds fewer than `target`
    members in total, the shortfall is drawn with replacement and a
    ResamplingWarning is issued.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (partition.k,):
        raise ValueError(f"expected {partition.k} weights, got shape {weights.shape}")
    if (weights < 0).any():
        raise ValueError("weights must be nonnegative")
    target = _integer(target, "target", 1)

    quotas, unmet = _capped_quotas(weights, partition.counts, target)
    gen = rng.generator
    picks = []
    for b in range(partition.k):
        members = partition.member_indices[b]
        q = int(quotas[b])
        if q == 0:
            continue
        if q == members.size:
            picks.append(members)
        else:
            picks.append(members[gen.choice(members.size, size=q, replace=False)])
    if unmet > 0:
        warnings.warn(
            f"partition holds {partition.total} members but {target} were "
            f"requested; drawing the shortfall with replacement",
            ResamplingWarning,
            stacklevel=2,
        )
        everyone = np.concatenate([idx for idx in partition.member_indices if idx.size])
        picks.append(everyone[gen.choice(everyone.size, size=unmet, replace=True)])
    return np.concatenate(picks) if picks else np.empty(0, dtype=np.int64)


def draw_undersample(pool, target, rng) -> np.ndarray:
    """Uniform draw of `target` indices from `pool`, without replacement.

    Falls back to drawing with replacement (with a ResamplingWarning) when
    the pool is smaller than the target.
    """
    pool = _row_ids(pool, "pool")
    if pool.size == 0:
        raise ValueError("cannot draw from an empty pool")
    target = _integer(target, "target", 1)
    gen = rng.generator
    if pool.size >= target:
        return pool[gen.choice(pool.size, size=target, replace=False)]
    warnings.warn(
        f"pool holds {pool.size} members but {target} were requested; "
        f"drawing with replacement",
        ResamplingWarning,
        stacklevel=2,
    )
    return pool[gen.choice(pool.size, size=target, replace=True)]


def random_undersample(data, rng) -> np.ndarray:
    """Majority row indices drawn uniformly, as many as there are minority."""
    if data.n_minority == 0:
        raise ValueError("dataset has no minority samples; target size undefined")
    if data.n_majority == 0:
        raise ValueError("dataset has no majority samples to draw from")
    return draw_undersample(data.majority_indices, data.n_minority, rng)


def random_oversample(data, rng) -> np.ndarray:
    """Minority row indices, repeated until they match the majority count.

    Every original minority row appears at least once; the remainder is drawn
    uniformly with replacement. The result has length n_majority, in shuffled
    order.
    """
    if data.n_minority == 0:
        raise ValueError("dataset has no minority samples to oversample")
    extra = data.n_majority - data.n_minority
    if extra < 0:
        raise ValueError(
            "majority is smaller than minority; repetition cannot balance them"
        )
    gen = rng.generator
    minority = data.minority_indices
    repeats = minority[gen.choice(minority.size, size=extra, replace=True)]
    return gen.permutation(np.concatenate([minority, repeats]))
