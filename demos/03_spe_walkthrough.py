"""A full self-paced ensemble fit, instrumented.

spe_fit accepts a log list and appends one record per trained member:
the bootstrap bag first (no alpha, no bins), then one record per scheduled
iteration carrying the alpha value and the hardness-bin occupancy it saw.
This script trains on the default checkerboard and reads the log back.
"""

import numpy as np

from selfpaced import (
    CheckerboardSpec,
    LearnerSpec,
    SpeConfig,
    aucprc,
    generate_checkerboard,
    partial_ensemble,
    spe_fit,
)

train = generate_checkerboard(CheckerboardSpec(seed=0))
test = generate_checkerboard(CheckerboardSpec(seed=1))

config = SpeConfig(
    n_estimators=10,
    base_learner=LearnerSpec("tree", {"max_depth": 10}),
    k_bins=20,
    hardness="absolute",
    seed=0,
)

log = []
model = spe_fit(train, config, log=log)

# The bootstrap learner only kickstarts hardness scoring; the final model
# keeps the scheduled members alone.
print(f"log entries: {len(log)} (1 bootstrap + {config.n_estimators} scheduled)")
print(f"members in the final model: {len(model.members)}")
print()

print("iter   alpha      bag (min+maj)   occupied bins")
for entry in log:
    if entry.alpha is None:
        print(f"boot   -          {entry.n_minority}+{entry.n_majority}       -")
    else:
        occupied = int(np.count_nonzero(entry.bin_counts))
        print(
            f"{entry.iteration:4d}   {entry.alpha:8.3f}   {entry.n_minority}+{entry.n_majority}       "
            f"{occupied}/{len(entry.bin_counts)}"
        )

# Every bag is exactly balanced: |minority| + |minority| rows.
sizes = {(e.n_minority, e.n_majority) for e in log}
print(f"\nevery bag balanced at 1000+1000: {sizes == {(1000, 1000)}}")

# The early iterations sample with alpha near 0 (hardness-harmonized bins),
# the late ones with alpha up to 6.31 (close to uniform over nonempty bins).
# Watch the occupancy concentrate as the ensemble improves: most majority
# rows become easy, so the low-hardness bins dominate.
first = next(e for e in log if e.alpha is not None)
last = log[-1]
print(f"first iteration bin counts: {first.bin_counts[:6]}... (alpha={first.alpha:.2f})")
print(f"last  iteration bin counts: {last.bin_counts[:6]}... (alpha={last.alpha:.2f})")

print()
print("== prefix ensembles ==")
# partial_ensemble averages only the first `upto` scheduled members, which is
# how the fit itself scores hardness mid-training. Quality typically climbs
# as members accumulate.
scores_full = model.predict_proba(test.features)
print(f"test AUCPRC with all members: {aucprc(test.labels, scores_full):.4f}")
for upto in (1, 3, 10):
    part = partial_ensemble(model, upto)
    value = aucprc(test.labels, part.predict_proba(test.features))
    print(f"test AUCPRC with first {upto:2d} members: {value:.4f}")
