"""Property tests for the sampler: quotas, bins, draws and balanced bags."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selfpaced.core import Dataset, RandomSource
from selfpaced.ensembles import SpeConfig, spe_fit
from selfpaced.learners import DecisionTreeClassifier
from selfpaced.sampling import (
    bin_sampling_weights,
    largest_remainder_shares,
    partition_bins,
    self_paced_undersample,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
# A few integers give many ties and bin-edge values; wide floats give the rest.
HARDNESS = st.one_of(
    st.integers(min_value=0, max_value=4).map(lambda v: v / 4.0),
    st.floats(min_value=0.0, max_value=1.0),
)
BIN_WEIGHTS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))


@settings(max_examples=150, deadline=None, database=None)
@given(
    weights=hnp.arrays(
        np.float64, st.integers(min_value=1, max_value=40),
        elements=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
    ),
    total=st.integers(min_value=0, max_value=10_000),
)
def test_largest_remainder_shares_sum_to_the_total(weights, total):
    weights[0] += 1.0
    shares = largest_remainder_shares(weights, total)
    assert shares.dtype == np.int64 and shares.shape == weights.shape
    assert int(shares.sum()) == total
    assert (shares >= 0).all()


@settings(max_examples=100, deadline=None, database=None)
@given(
    values=hnp.arrays(np.float64, st.integers(min_value=1, max_value=120), elements=HARDNESS),
    k=st.integers(min_value=1, max_value=50),
)
def test_partition_bins_cover_every_index_once(values, k):
    indices = np.arange(values.size) * 7 + 3
    part = partition_bins(values, k, indices=indices)
    assert part.k == k
    assert sorted(np.concatenate(part.member_indices).tolist()) == indices.tolist()
    assert part.total == values.size


@st.composite
def partitioned_draws(draw):
    values = draw(hnp.arrays(np.float64, st.integers(min_value=1, max_value=120),
                             elements=HARDNESS))
    k = draw(st.integers(min_value=1, max_value=20))
    part = partition_bins(values, k, indices=np.arange(values.size) + 1000)
    if draw(st.booleans()):
        weights = bin_sampling_weights(part, draw(st.floats(min_value=0.0, max_value=50.0)))
    else:
        weights = draw(hnp.arrays(np.float64, k, elements=BIN_WEIGHTS))
    target = draw(st.integers(min_value=1, max_value=part.total))
    return part, weights, target, draw(SEEDS)


@settings(max_examples=100, deadline=None, database=None)
@given(args=partitioned_draws())
def test_self_paced_draws_fill_the_target_within_each_bin(args):
    part, weights, target, seed = args
    chosen = self_paced_undersample(part, weights, target, RandomSource(seed))
    assert chosen.size == target
    assert np.unique(chosen).size == target
    for members in part.member_indices:
        assert np.isin(chosen, members).sum() <= members.size
    assert np.isin(chosen, np.concatenate(part.member_indices)).all()


@st.composite
def imbalanced_datasets(draw):
    n_minority = draw(st.integers(min_value=1, max_value=15))
    n_majority = draw(st.integers(min_value=n_minority, max_value=60))
    n_rows = n_minority + n_majority
    features = draw(hnp.arrays(np.float64, (n_rows, 2),
                               elements=st.integers(min_value=0, max_value=4).map(float)))
    labels = draw(st.permutations([1] * n_minority + [0] * n_majority))
    return Dataset(features, labels)


@settings(max_examples=60, deadline=None, database=None)
@given(
    data=imbalanced_datasets(),
    n_estimators=st.integers(min_value=1, max_value=5),
    k_bins=st.integers(min_value=1, max_value=8),
    seed=SEEDS,
)
def test_every_spe_bag_is_balanced(data, n_estimators, k_bins, seed):
    bags = []

    def counting_tree():
        tree = DecisionTreeClassifier(max_depth=3)
        fit = tree.fit

        def counting_fit(X, y, sample_weight=None):
            bags.append((int((y == 1).sum()), int((y == 0).sum())))
            return fit(X, y, sample_weight)

        tree.fit = counting_fit
        return tree

    log = []
    config = SpeConfig(n_estimators=n_estimators, base_learner=counting_tree,
                       k_bins=k_bins, seed=seed)
    spe_fit(data, config, log=log)
    assert [entry.iteration for entry in log] == list(range(n_estimators + 1))
    assert all(entry.n_minority == entry.n_majority for entry in log)
    assert all(entry.n_minority == data.n_minority for entry in log)
    assert bags == [(data.n_minority, data.n_minority)] * (n_estimators + 1)
