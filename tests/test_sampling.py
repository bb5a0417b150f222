"""Binning, the self-paced schedule, quota apportionment, and resamplers."""
import math

import numpy as np
import pytest

from selfpaced.core import Dataset, RandomSource
from selfpaced.sampling import (
    WEIGHT_EPS,
    BinPartition,
    ResamplingWarning,
    _capped_quotas,
    bin_sampling_weights,
    draw_undersample,
    largest_remainder_shares,
    partition_bins,
    random_oversample,
    random_undersample,
    self_paced_alpha,
    self_paced_undersample,
)


def test_partition_two_bins_interior_edge_goes_up():
    part = partition_bins(np.array([0.0, 0.5, 1.0]), 2)
    assert part.k == 2
    assert np.allclose(part.edges, [0.0, 0.5, 1.0])
    # 0.5 sits on the interior edge and belongs to the upper bin.
    assert part.member_indices[0].tolist() == [0]
    assert part.member_indices[1].tolist() == [1, 2]
    assert part.counts.tolist() == [1, 2]
    assert part.mean_hardness[0] == pytest.approx(0.0)
    assert part.mean_hardness[1] == pytest.approx(0.75)
    assert part.total == 3


def test_partition_maximum_lands_in_last_bin():
    part = partition_bins(np.array([0.0, 0.25, 0.5, 0.75, 1.0]), 4)
    assert part.counts.tolist() == [1, 1, 1, 2]


def test_partition_all_equal_values_use_first_bin():
    part = partition_bins(np.full(7, 0.3), 20)
    assert part.k == 20
    assert part.counts.tolist() == [7] + [0] * 19
    assert part.mean_hardness[0] == pytest.approx(0.3)
    assert np.isnan(part.mean_hardness[1:]).all()


def test_partition_single_bin():
    part = partition_bins(np.array([0.2, 0.9, 0.4]), 1)
    assert part.counts.tolist() == [3]
    assert part.mean_hardness[0] == pytest.approx(0.5)


def test_partition_carries_dataset_indices():
    # Bins hold positions in the binned values; a caller with dataset row ids
    # maps them through its ids, as spe_fit does with the majority rows.
    ids = np.array([17, 4])
    part = partition_bins(np.array([0.9, 0.1]), 2)
    assert [m.dtype for m in part.member_indices] == [np.int64, np.int64]
    assert ids[part.member_indices[0]].tolist() == [4]
    assert ids[part.member_indices[1]].tolist() == [17]


def test_partition_bins_takes_no_row_ids():
    with pytest.raises(TypeError, match="indices"):
        partition_bins(np.array([0.1, 0.9]), 2, indices=np.array([3, 5]))


def test_partition_edges_span_observed_range():
    values = np.array([3.0, 11.0, 7.0])
    part = partition_bins(values, 4)
    assert part.edges[0] == 3.0
    assert part.edges[-1] == 11.0
    assert np.allclose(np.diff(part.edges), 2.0)


def test_partition_input_validation():
    with pytest.raises(ValueError, match="nonempty"):
        partition_bins(np.array([]), 2)
    with pytest.raises(ValueError, match="finite"):
        partition_bins(np.array([0.1, np.inf]), 2)
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        partition_bins(np.array([0.1]), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_partition_bins_refuses_nan_and_either_infinity_before_k(bad, at):
    values = np.where(np.arange(5) == at, bad, 0.5)
    for k in (3, 0):
        with pytest.raises(ValueError, match=r"^hardness values must be finite$"):
            partition_bins(values, k)


def test_partition_bins_puts_signed_zeros_in_one_bin():
    part = partition_bins(np.array([0.0, -0.0, 0.0]), 4)
    assert part.counts.tolist() == [3, 0, 0, 0]


def test_partition_bins_cover_everything_fuzz():
    gen = np.random.default_rng(21)
    for _ in range(50):
        size = int(gen.integers(1, 200))
        k = int(gen.integers(1, 30))
        values = gen.random(size) * float(gen.integers(1, 5))
        part = partition_bins(values, k)
        gathered = np.concatenate(part.member_indices)
        assert sorted(gathered.tolist()) == list(range(size))
        for b, members in enumerate(part.member_indices):
            if members.size:
                assert part.mean_hardness[b] == pytest.approx(values[members].mean())


def mask_loop_partition(values, k, indices):
    """Reference binning: one mask per bin over every value, bins by edge tests."""
    lo, hi = values.min(), values.max()
    edges = np.linspace(lo, hi, k + 1)
    members = []
    means = np.full(k, np.nan)
    for b in range(k):
        if lo == hi:
            mask = np.full(values.size, b == 0)
        else:
            mask = np.ones(values.size, dtype=bool)
            if b > 0:
                mask &= values >= edges[b]
            if b < k - 1:
                mask &= values < edges[b + 1]
        members.append(indices[mask])
        if mask.any():
            means[b] = values[mask].mean()
    return edges, members, means


def test_partition_bins_matches_mask_loop_bitwise():
    gen = np.random.default_rng(47)
    # Constant values, and bin numbers too wide for 8 and for 16 bits.
    cases = [(np.full(9, 0.25), 5), (np.array([0.0, 1.0]), 300), (gen.random(40), 70000)]
    for _ in range(60):
        size = int(gen.integers(1, 3000))
        k = int(gen.choice([1, 2, 7, 20, 64, 300]))
        if gen.random() < 0.5:
            # Few distinct values, many of them on bin edges, most bins empty.
            values = gen.integers(0, 5, size=size) / 4.0
        else:
            values = gen.random(size) ** 3
        cases.append((values, k))
    for values, k in cases:
        part = partition_bins(values, k)
        edges, members, means = mask_loop_partition(values, k, np.arange(values.size))
        assert part.edges.tobytes() == edges.tobytes()
        assert len(part.member_indices) == k
        for got, want in zip(part.member_indices, members):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert part.mean_hardness.tobytes() == means.tobytes()


def test_a_subnormal_span_takes_few_edge_check_passes(monkeypatch):
    # Values a few subnormals apart, where k / (hi - lo) overflows. Each
    # edge-check pass makes one np.flatnonzero call, and guesses that start
    # near their bins, not at bin 0, need few passes.
    values = np.random.default_rng(0).integers(0, 2**20, size=1000) * 5e-324
    passes = []
    flatnonzero = np.flatnonzero

    def counting_flatnonzero(a):
        passes.append(len(a))
        return flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", counting_flatnonzero)
    partition_bins(values, 65537)
    assert len(passes) <= 1000


def test_unit_range_hardness_takes_one_edge_check_pass(monkeypatch):
    # Over spe's usual hardness range the guess already is each value's bin,
    # so the first pass over every value moves none of them.
    passes = []
    flatnonzero = np.flatnonzero

    def counting_flatnonzero(a):
        passes.append(len(a))
        return flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", counting_flatnonzero)
    gen = np.random.default_rng(5)
    for values in (gen.random(10_000), np.concatenate(([0.0, 1.0], gen.random(5000))),
                   gen.random(1000) ** 3):
        for k in (2, 10, 20, 64, 1000):
            passes.clear()
            partition_bins(values, k)
            assert passes == [values.size]


def test_alpha_starts_at_exact_zero():
    assert self_paced_alpha(1, 10) == 0.0
    assert self_paced_alpha(1, 1) == 0.0


def test_alpha_midpoint_is_one():
    # i=6, n=10 puts the angle at pi/4.
    assert self_paced_alpha(6, 10) == pytest.approx(1.0, abs=1e-12)


def test_alpha_final_iteration_value():
    assert self_paced_alpha(10, 10) == pytest.approx(6.313751514675041, abs=1e-6)
    assert self_paced_alpha(10, 10) == pytest.approx(math.tan(0.45 * math.pi))


def test_alpha_strictly_increasing():
    values = [self_paced_alpha(i, 10) for i in range(1, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_alpha_argument_validation():
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        self_paced_alpha(1, 0)
    with pytest.raises(ValueError, match=r"\[1, 10\]"):
        self_paced_alpha(0, 10)
    with pytest.raises(ValueError, match=r"\[1, 10\]"):
        self_paced_alpha(11, 10)


def test_weights_inverse_to_hardness():
    # Bin means 0.1 and 0.9 with alpha=0: 1/0.1 and 1/0.9 normalize to
    # exactly 0.9 and 0.1.
    part = partition_bins(np.array([0.1, 0.9]), 2)
    weights = bin_sampling_weights(part, 0.0)
    assert weights[0] == pytest.approx(0.9, abs=1e-12)
    assert weights[1] == pytest.approx(0.1, abs=1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_weights_flatten_as_alpha_grows():
    part = partition_bins(np.array([0.1, 0.9]), 2)
    sharp = bin_sampling_weights(part, 0.0)
    soft = bin_sampling_weights(part, 10.0)
    flat = bin_sampling_weights(part, 1e9)
    assert sharp[0] > soft[0] > flat[0]
    assert flat[0] == pytest.approx(0.5, abs=1e-6)
    assert flat[1] == pytest.approx(0.5, abs=1e-6)


def test_weights_empty_bins_get_zero():
    part = partition_bins(np.array([0.0, 1.0]), 4)
    weights = bin_sampling_weights(part, 1.0)
    assert weights[1] == 0.0
    assert weights[2] == 0.0
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_weights_zero_hardness_zero_alpha_dominates():
    part = partition_bins(np.array([0.0, 0.0, 1.0]), 2)
    # The zero-hardness bin's raw weight is 1/1e-12, which dwarfs 1/1. So is
    # it for an alpha whose reciprocal would overflow.
    for alpha in (0.0, 1e-310, 5e-324):
        weights = bin_sampling_weights(part, alpha)
        assert weights[0] > 0.999999999
        assert weights[1] > 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_weights_single_bin_is_one():
    part = partition_bins(np.array([0.4, 0.4, 0.4]), 1)
    assert bin_sampling_weights(part, 0.7).tolist() == [1.0]


def test_weights_validation():
    part = partition_bins(np.array([0.1, 0.9]), 2)
    with pytest.raises(ValueError, match="nonnegative finite"):
        bin_sampling_weights(part, -0.5)
    with pytest.raises(ValueError, match="nonnegative finite"):
        bin_sampling_weights(part, float("inf"))
    empty = BinPartition(
        np.array([0.0, 1.0]),
        (np.empty(0, dtype=np.int64),),
        np.array([np.nan]),
    )
    with pytest.raises(ValueError, match="no nonempty bins"):
        bin_sampling_weights(empty, 0.0)


def test_weights_match_a_per_bin_loop_bitwise():
    def per_bin_loop(part, alpha):
        raw = np.zeros(part.k)
        for b in range(part.k):
            if part.counts[b] > 0:
                raw[b] = 1.0 / max(part.mean_hardness[b] + alpha, WEIGHT_EPS)
        return raw / raw.sum()

    gen = np.random.default_rng(23)
    for _ in range(100):
        size = int(gen.integers(1, 60))
        # Cubed values leave upper bins empty; zeros meet WEIGHT_EPS at alpha 0.
        values = gen.random(size) ** 3 * gen.integers(0, 2, size=size)
        part = partition_bins(values, int(gen.integers(1, 30)))
        for alpha in (0.0, 5e-324, 1e-13, float(gen.random()), 1e9):
            got = bin_sampling_weights(part, alpha)
            assert got.tobytes() == per_bin_loop(part, alpha).tobytes()


def test_largest_remainder_exact_total():
    assert largest_remainder_shares(np.array([0.5, 0.5]), 3).tolist() == [2, 1]
    assert largest_remainder_shares(np.array([1.0, 1.0, 1.0]), 10).tolist() == [4, 3, 3]
    assert largest_remainder_shares(np.array([0.7, 0.2, 0.1]), 10).tolist() == [7, 2, 1]
    assert largest_remainder_shares(np.array([2.0, 6.0]), 4).tolist() == [1, 3]
    assert largest_remainder_shares(np.array([1.0]), 5).tolist() == [5]
    assert largest_remainder_shares(np.array([0.3, 0.7]), 0).tolist() == [0, 0]


def test_largest_remainder_fuzz_sums_and_rounding():
    gen = np.random.default_rng(31)
    for _ in range(200):
        size = int(gen.integers(1, 12))
        weights = gen.random(size) + 1e-9
        total = int(gen.integers(0, 500))
        shares = largest_remainder_shares(weights, total)
        assert shares.sum() == total
        assert (shares >= 0).all()
        # Largest-remainder never strays more than one unit from the ideal.
        ideal = weights / weights.sum() * total
        assert np.all(np.abs(shares - ideal) < 1.0)


def test_largest_remainder_validation():
    with pytest.raises(ValueError, match="nonempty"):
        largest_remainder_shares(np.array([]), 3)
    with pytest.raises(ValueError, match="nonnegative finite"):
        largest_remainder_shares(np.array([-0.1, 1.0]), 3)
    with pytest.raises(ValueError, match="not all be zero"):
        largest_remainder_shares(np.array([0.0, 0.0]), 3)
    with pytest.raises(ValueError, match=r"^total must be >= 0, got -1$"):
        largest_remainder_shares(np.array([1.0]), -1)


def test_capped_quotas_refill_until_the_target_or_every_bin_is_full():
    # Bin 0 caps at 1 and bin 1 at 2, so their overflow moves to bin 2 over
    # later rounds.
    quotas, unmet = _capped_quotas([0.7, 0.2, 0.1], [1, 2, 50], 20)
    assert quotas.tolist() == [1, 2, 17] and unmet == 0
    # Past the total capacity every bin fills and the rest stays unmet.
    quotas, unmet = _capped_quotas([0.7, 0.2, 0.1], [1, 2, 5], 20)
    assert quotas.tolist() == [1, 2, 5] and unmet == 12
    # Zero weights on the bins with room spread the overflow evenly.
    quotas, unmet = _capped_quotas([1.0, 0.0, 0.0], [1, 4, 4], 7)
    assert quotas.tolist() == [1, 3, 3] and unmet == 0


def test_undersample_exact_size_and_membership():
    values = np.concatenate([np.full(30, 0.2), np.full(70, 0.8)])
    part = partition_bins(values, 2)
    weights = bin_sampling_weights(part, 1.0)
    chosen = self_paced_undersample(part, weights, 50, RandomSource(0))
    assert chosen.shape == (50,)
    assert len(set(chosen.tolist())) == 50
    assert set(chosen.tolist()) <= set(range(100))


def test_undersample_quota_overflow_redistributes():
    # Bin 0 holds 3 members but full weight; the 2 overflow units move to
    # bin 1 even though its weight is zero.
    values = np.concatenate([np.zeros(3), np.ones(100)])
    part = partition_bins(values, 2)
    chosen = self_paced_undersample(part, np.array([1.0, 0.0]), 5, RandomSource(1))
    assert chosen.shape == (5,)
    from_small = [c for c in chosen if c < 3]
    from_large = [c for c in chosen if c >= 3]
    assert len(from_small) == 3
    assert len(from_large) == 2


def test_undersample_whole_bin_taken_without_shuffling():
    values = np.array([0.1, 0.1, 0.9])
    part = partition_bins(values, 2)
    chosen = self_paced_undersample(part, np.array([1.0, 1.0]), 3, RandomSource(2))
    assert sorted(chosen.tolist()) == [0, 1, 2]


def test_undersample_shortfall_warns_and_fills():
    part = partition_bins(np.array([0.1, 0.5, 0.9]), 2)
    weights = bin_sampling_weights(part, 1.0)
    with pytest.warns(ResamplingWarning, match="3 members but 10"):
        chosen = self_paced_undersample(part, weights, 10, RandomSource(3))
    assert chosen.shape == (10,)
    assert set(chosen.tolist()) <= {0, 1, 2}


def test_undersample_validation():
    part = partition_bins(np.array([0.1, 0.9]), 2)
    with pytest.raises(ValueError, match="2 weights"):
        self_paced_undersample(part, np.array([1.0]), 1, RandomSource(0))
    with pytest.raises(ValueError, match="nonnegative"):
        self_paced_undersample(part, np.array([-1.0, 1.0]), 1, RandomSource(0))
    with pytest.raises(ValueError, match=r"^target must be >= 1, got 0$"):
        self_paced_undersample(part, np.array([0.5, 0.5]), 0, RandomSource(0))


def test_undersample_harmonizes_bin_loads_fuzz():
    # Quotas must track weights: plenty of capacity everywhere, so each
    # bin's quota is within one unit of weight * target.
    gen = np.random.default_rng(41)
    for trial in range(20):
        k = int(gen.integers(2, 8))
        per_bin = 200
        values = np.concatenate(
            [np.full(per_bin, (b + 0.5) / k) for b in range(k)]
        )
        part = partition_bins(values, k)
        weights = gen.random(k) + 0.05
        weights = weights / weights.sum()
        target = int(gen.integers(k, per_bin * k // 2))
        chosen = self_paced_undersample(part, weights, target, RandomSource(trial))
        assert chosen.shape == (target,)
        assert len(set(chosen.tolist())) == target
        loads = np.array(
            [np.isin(chosen, members).sum() for members in part.member_indices]
        )
        assert np.all(np.abs(loads - weights * target) < 1.0)


def test_draw_undersample_without_replacement():
    pool = np.array([5, 7, 9, 11])
    drawn = draw_undersample(pool, 3, RandomSource(0))
    assert drawn.shape == (3,)
    assert len(set(drawn.tolist())) == 3
    assert set(drawn.tolist()) <= set(pool.tolist())


def test_draw_undersample_small_pool_warns():
    with pytest.warns(ResamplingWarning, match="2 members but 5"):
        drawn = draw_undersample(np.array([5, 7]), 5, RandomSource(0))
    assert drawn.shape == (5,)
    assert set(drawn.tolist()) <= {5, 7}


def test_draw_undersample_validation():
    with pytest.raises(ValueError, match="empty pool"):
        draw_undersample(np.array([], dtype=np.int64), 1, RandomSource(0))
    with pytest.raises(ValueError, match=r"^target must be >= 1, got 0$"):
        draw_undersample(np.array([1]), 0, RandomSource(0))


def balanced_board(n_minority, n_majority):
    features = np.zeros((n_minority + n_majority, 1))
    labels = np.concatenate(
        [np.zeros(n_majority, dtype=int), np.ones(n_minority, dtype=int)]
    )
    return Dataset(features, labels)


def test_random_undersample_matches_minority_count():
    data = balanced_board(632, 1000)
    rows = random_undersample(data, RandomSource(0))
    assert rows.shape == (632,)
    assert len(set(rows.tolist())) == 632
    assert set(rows.tolist()) <= set(data.majority_indices.tolist())


def test_random_undersample_is_deterministic():
    data = balanced_board(10, 100)
    a = random_undersample(data, RandomSource(5).child("undersample", 1))
    b = random_undersample(data, RandomSource(5).child("undersample", 1))
    assert a.tolist() == b.tolist()


def test_random_undersample_requires_both_classes():
    with pytest.raises(ValueError, match="no minority"):
        random_undersample(balanced_board(0, 5), RandomSource(0))
    with pytest.raises(ValueError, match="no majority"):
        random_undersample(balanced_board(5, 0), RandomSource(0))


def test_random_oversample_repeats_to_majority_count():
    data = balanced_board(2, 10)
    rows = random_oversample(data, RandomSource(0))
    assert rows.shape == (10,)
    minority = set(data.minority_indices.tolist())
    assert set(rows.tolist()) <= minority
    # Every original minority row appears at least once.
    assert set(rows.tolist()) == minority


def test_random_oversample_balanced_input_is_permutation():
    data = balanced_board(4, 4)
    rows = random_oversample(data, RandomSource(0))
    assert sorted(rows.tolist()) == data.minority_indices.tolist()


def test_random_oversample_validation():
    with pytest.raises(ValueError, match="no minority"):
        random_oversample(balanced_board(0, 4), RandomSource(0))
    with pytest.raises(ValueError, match="repetition cannot balance"):
        random_oversample(balanced_board(6, 4), RandomSource(0))
