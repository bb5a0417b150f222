"""How the self-paced sampler decides which majority rows to keep.

Three pieces combine into one sampling rule:

  1. a hardness function turns an ensemble score into "how wrong are we
     on this row" (majority rows have label 0, so hardness(p, 0)),
  2. equal-width bins over the observed hardness range group rows of
     similar difficulty,
  3. the self-paced factor alpha grows from 0 across iterations, steering
     bin weights from hardness-harmonized (every bin contributes the same
     total hardness) toward uniform (every bin contributes the same count).

This script walks each piece with small concrete numbers.
"""

import numpy as np

from selfpaced import (
    RandomSource,
    absolute_error,
    bin_sampling_weights,
    cross_entropy,
    largest_remainder_shares,
    partition_bins,
    self_paced_alpha,
    self_paced_undersample,
    squared_error,
)

print("== hardness functions ==")
# All three map (score, label) -> nonnegative difficulty. For a majority row
# (label 0) a confident correct score near 0 is easy, a score near 1 is hard.
for p in (0.05, 0.5, 0.95):
    print(
        f"p={p:4.2f}: absolute={absolute_error(p, 0):.4f} "
        f"squared={squared_error(p, 0):.4f} cross-entropy={cross_entropy(p, 0):.4f}"
    )

print()
print("== the alpha schedule ==")
# alpha_i = tan(((i - 1) / n) * pi / 2) for iteration i of n: exactly 0 first,
# exactly 1 at the midpoint, then growing fast. The angle stays below pi / 2,
# so alpha stays finite: about 2n / pi at i = n.
n = 10
alphas = [self_paced_alpha(i, n) for i in range(1, n + 1)]
print("iteration: " + " ".join(f"{i:>7d}" for i in range(1, n + 1)))
print("alpha:     " + " ".join(f"{a:7.3f}" for a in alphas))
print(f"alpha at i = n: {alphas[-1]:.3f}, against 2n/pi = {2 * n / np.pi:.3f}")

print()
print("== binning a hardness vector ==")
# Ten rows with hardness clustered at three levels. k=5 equal-width bins over
# the observed range [0.05, 0.95]; empty bins are allowed and stay empty.
hardness = np.array([0.05, 0.06, 0.07, 0.08, 0.5, 0.52, 0.9, 0.92, 0.94, 0.95])
part = partition_bins(hardness, k=5)
print(f"bin edges: {np.round(part.edges, 3).tolist()}")
print(f"bin counts: {part.counts.tolist()}")

print()
print("== weights across the schedule ==")
# At alpha=0 the weight of a bin is 1/mean_hardness: hard bins are kept rare
# so that count * hardness is level across bins. As alpha grows the weights
# draw together: the schedule's last alpha at n = 10 leaves them close, and a
# very large alpha makes every nonempty bin weigh the same, which is plain
# uniform under-sampling.
for alpha in (0.0, 1.0, alphas[-1], 1e9):
    w = bin_sampling_weights(part, alpha)
    print(f"alpha={alpha:8.4g}: weights={np.round(w, 3).tolist()}")

print()
print("== integer quotas by largest remainder ==")
# Weights are turned into integer per-bin quotas that sum exactly to the
# target. Largest remainder keeps every quota within one of its ideal share.
weights = np.array([0.7, 0.2, 0.1])
for total in (10, 17):
    q = largest_remainder_shares(weights, total)
    print(f"target {total:2d}: quotas {q.tolist()} (sum {int(q.sum())})")

print()
print("== end to end: one self-paced draw ==")
# Draw 6 of the 10 rows at alpha=0. The easy bin holds most rows but each
# kept row is cheap; the hard bin has huge hardness so its quota is tiny.
w = bin_sampling_weights(part, alpha=0.0)
chosen = self_paced_undersample(part, w, target=6, rng=RandomSource(5))
print(f"chosen rows: {sorted(chosen.tolist())}")
print(f"their hardness: {np.round(hardness[sorted(chosen)], 2).tolist()}")

# Spot check the harmonization: per-bin kept-count times mean hardness should
# be roughly level across nonempty bins (exactly level up to integer rounding).
for b, (lo, hi) in enumerate(zip(part.edges[:-1], part.edges[1:])):
    members = [r for r in chosen if b == np.searchsorted(part.edges[1:-1], hardness[r], side="right")]
    if members:
        load = len(members) * float(np.mean(hardness[members]))
        print(f"bin {b}: kept {len(members)}, kept_count*mean_hardness = {load:.3f}")
