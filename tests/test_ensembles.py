"""Ensemble trainers: subset balance, schedules, baselines, persistence."""
import json
from pathlib import Path

import numpy as np
import pytest
from cascade_reference import reference_cascade, reference_mean
from helpers import NearestMeanLearner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from spe_reference import reference_spe

from selfpaced import ensembles
from selfpaced.core import Dataset, EnsembleModel
from selfpaced.data import CheckerboardSpec, generate_checkerboard
from selfpaced.ensembles import (
    METHODS,
    SpeConfig,
    cascade_fit,
    easy_fit,
    fit_method,
    load_model,
    model_from_doc,
    model_to_doc,
    save_model,
    spe_fit,
)
from selfpaced.hardness import HARDNESS_FUNCTIONS
from selfpaced.learners import _TABLE_CELLS, DecisionTreeClassifier, LearnerSpec
from selfpaced.sampling import self_paced_alpha

FIXTURES = Path(__file__).parent / "fixtures"
BOARD = generate_checkerboard(
    CheckerboardSpec(cov_scale=0.1, n_minority=60, n_majority=600, seed=12)
)


def shallow_tree():
    return LearnerSpec("tree", {"max_depth": 4})


def test_spe_member_count_and_log_shape():
    log = []
    model = spe_fit(BOARD, SpeConfig(n_estimators=5, base_learner=shallow_tree()), log=log)
    # Five ensemble members, but six learners were trained: the bootstrap
    # model only feeds hardness estimates and is excluded from the mean.
    assert len(model.members) == 5
    assert len(log) == 6
    assert log[0].iteration == 0
    assert log[0].alpha is None
    assert log[0].bin_counts is None
    assert [entry.iteration for entry in log[1:]] == [1, 2, 3, 4, 5]


def test_spe_every_subset_is_balanced():
    log = []
    spe_fit(BOARD, SpeConfig(n_estimators=6, base_learner=shallow_tree()), log=log)
    for entry in log:
        assert entry.n_minority == 60
        assert entry.n_majority == 60


def test_spe_alphas_follow_schedule():
    log = []
    spe_fit(
        BOARD,
        SpeConfig(n_estimators=8, base_learner=shallow_tree()),
        log=log,
    )
    alphas = [entry.alpha for entry in log[1:]]
    assert alphas == [self_paced_alpha(i, 8) for i in range(1, 9)]
    assert alphas[0] == 0.0
    assert alphas == sorted(alphas)


def test_spe_bin_counts_cover_all_majority():
    log = []
    spe_fit(
        BOARD,
        SpeConfig(n_estimators=3, base_learner=shallow_tree(), k_bins=7),
        log=log,
    )
    for entry in log[1:]:
        assert len(entry.bin_counts) == 7
        assert sum(entry.bin_counts) == 600


def test_spe_single_iteration_and_single_bin():
    log = []
    model = spe_fit(
        BOARD, SpeConfig(n_estimators=1, base_learner=shallow_tree(), k_bins=1), log=log
    )
    assert len(model.members) == 1
    assert log[1].alpha == 0.0
    assert log[1].bin_counts == (600,)


def counting_trees(calls):
    """A tree factory whose trees note in `calls` (tree, rows) for each
    scoring of more than one row.

    The trainers score the majority rows through a member's `_score_rows`.
    """
    def make():
        tree = DecisionTreeClassifier(max_depth=4)
        score_rows = tree._score_rows

        def counting_score_rows(X, ranks=None):
            if len(X) > 1:
                calls.append((tree, len(X)))
            return score_rows(X, ranks)

        tree._score_rows = counting_score_rows
        return tree

    return make


def feature_scans(monkeypatch):
    """Row counts of the feature matrices of more than one row that
    `np.isfinite` scans from now on."""
    scans = []
    isfinite = np.isfinite

    def counting_isfinite(values, *args, **kwargs):
        shape = np.shape(values)
        if len(shape) == 2 and shape[1] == BOARD.n_features and shape[0] > 1:
            scans.append(shape[0])
        return isfinite(values, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    return scans


@pytest.mark.parametrize("n_estimators", [1, 2, 5])
def test_spe_scores_the_majority_once_per_member(n_estimators, monkeypatch):
    # The bootstrap learner and members 1..n-1 score the majority rows for
    # the next iteration's hardness; the last member has no next iteration.
    # None of them checks the majority matrix again.
    calls = []
    scans = feature_scans(monkeypatch)
    model = spe_fit(BOARD, SpeConfig(n_estimators=n_estimators,
                                     base_learner=counting_trees(calls)))
    majority_calls = [tree for tree, rows in calls if rows == BOARD.n_majority]
    assert len(majority_calls) == n_estimators
    assert len(set(map(id, majority_calls))) == n_estimators
    assert model.members[-1] not in majority_calls
    assert BOARD.n_majority not in scans


@pytest.mark.parametrize("n_estimators", [1, 3])
def test_spe_bins_through_the_module_level_partition_bins(n_estimators, monkeypatch):
    # The benchmark's traced runs time binning by wrapping this very name,
    # `ensembles.partition_bins`, so spe_fit must look it up there each time.
    calls = []
    partition_bins = ensembles.partition_bins

    def counting_partition_bins(values, k):
        calls.append((len(values), k))
        return partition_bins(values, k)

    monkeypatch.setattr(ensembles, "partition_bins", counting_partition_bins)
    spe_fit(BOARD, SpeConfig(n_estimators=n_estimators, base_learner=shallow_tree(), k_bins=6))
    assert calls == [(BOARD.n_majority, 6)] * n_estimators


def test_spe_maps_the_drawn_positions_to_majority_row_ids(monkeypatch):
    # Reversed, the board puts its minority rows first, so positions in the
    # majority rows are not their row ids.
    data = BOARD.subset(np.arange(BOARD.n_samples)[::-1])
    drawn = []
    fit_member = ensembles._fit_member

    def recording_fit_member(factory, data, majority_rows, minority_rows):
        drawn.append(np.asarray(majority_rows))
        return fit_member(factory, data, majority_rows, minority_rows)

    monkeypatch.setattr(ensembles, "_fit_member", recording_fit_member)
    spe_fit(data, SpeConfig(n_estimators=4, base_learner=shallow_tree(), k_bins=6))
    assert len(drawn) == 5
    for rows in drawn:
        assert rows.size == data.minority_indices.size == np.unique(rows).size
        assert (data.labels[rows] == 0).all()


@pytest.mark.parametrize("n_estimators", [2, 3, 5])
def test_cascade_scores_the_majority_once_per_member(n_estimators, monkeypatch):
    # Members 0..n-2 score the rows of the live pool to shrink it; the last
    # member has no next iteration. None of them checks those rows again.
    calls = []
    scans = feature_scans(monkeypatch)
    log = []
    model = cascade_fit(BOARD, SpeConfig(n_estimators=n_estimators,
                                         base_learner=counting_trees(calls)), log=log)
    assert len(model.members) == n_estimators
    assert calls == [(member, entry.pool_size)
                     for member, entry in zip(model.members[:-1], log)]
    assert not set(scans) & {entry.pool_size for entry in log}


def test_spe_is_deterministic():
    config = SpeConfig(n_estimators=4, base_learner=shallow_tree(), seed=3)
    a = model_to_doc(spe_fit(BOARD, config))
    b = model_to_doc(spe_fit(BOARD, config))
    assert a == b
    c = model_to_doc(spe_fit(BOARD, SpeConfig(4, shallow_tree(), seed=4)))
    assert c != a


def test_spe_config_echo():
    model = spe_fit(BOARD, SpeConfig(n_estimators=2, base_learner=shallow_tree()))
    assert model.method == "spe"
    assert model.config["n_estimators"] == 2
    assert model.config["k_bins"] == 20
    assert model.config["hardness"] == "absolute"
    assert model.config["base_learner"] == _TREE4
    # Every constructor parameter, in signature order.
    assert list(model.config["base_learner"]["params"]) == [
        "max_depth", "min_samples_split", "min_impurity_decrease"]
    assert model.seed == 0


# Written at the release before the trainers shared one config: fit_method on
# BOARD with n_estimators=3, k_bins=5, hardness="squared" and seed 4, over
# depth-4 trees. Key order is part of the model file. The learner echo lists
# every tree parameter since a LearnerSpec fills in the defaults.
_TREE4 = {"name": "tree",
          "params": {"max_depth": 4, "min_samples_split": 2, "min_impurity_decrease": 0.0}}
CONFIG_ECHOES = {
    "spe": [("n_estimators", 3), ("k_bins", 5), ("seed", 4), ("hardness", "squared"),
            ("base_learner", _TREE4)],
    "easy": [("n_estimators", 3), ("seed", 4), ("base_learner", _TREE4)],
    "cascade": [("n_estimators", 3), ("keep_fp_rate", 0.31622776601683794), ("seed", 4),
                ("base_learner", _TREE4)],
    "rand-under": [("seed", 4), ("base_learner", _TREE4)],
    "rand-over": [("seed", 4), ("base_learner", _TREE4)],
    "none": [("seed", 4), ("base_learner", _TREE4)],
}


@pytest.mark.parametrize("method", METHODS)
def test_config_echo_per_method(method):
    model = fit_method(
        BOARD, method, base_learner=shallow_tree(), n_estimators=3, k_bins=5,
        hardness="squared", seed=4,
    )
    assert list(model.config.items()) == CONFIG_ECHOES[method]
    assert list(model_to_doc(model)["config"].items()) == CONFIG_ECHOES[method]
    assert model.method == method
    assert model.seed == 4


@pytest.mark.parametrize("settings, message", [
    ({"n_estimators": 0}, r"n_estimators must be >= 1, got 0"),
    ({"k_bins": 0}, r"k_bins must be >= 1, got 0"),
    ({"keep_fp_rate": 0.0}, r"keep_fp_rate must lie in \(0, 1\], got 0.0"),
    ({"keep_fp_rate": 1.5}, r"keep_fp_rate must lie in \(0, 1\], got 1.5"),
    ({"keep_fp_rate": float("nan")}, r"keep_fp_rate must lie in \(0, 1\], got nan"),
    ({"hardness": "hinge"}, r"unknown hardness function 'hinge'"),
    ({"base_learner": 42}, r"base_learner must be .*; got int"),
    ({"n_estimators": 2.5}, r"^n_estimators must be an integer, got 2.5$"),
    ({"k_bins": 3.7}, r"^k_bins must be an integer, got 3.7$"),
    ({"k_bins": "3"}, r"^k_bins must be an integer, got '3'$"),
    ({"seed": 1.5}, r"^seed must be an integer, got 1.5$"),
    ({"seed": -1}, r"^seed must be a 64-bit unsigned integer, got -1$"),
    ({"seed": 2**64}, r"^seed must be a 64-bit unsigned integer, got 18446744073709551616$"),
    ({"keep_fp_rate": "0.5"}, r"^keep_fp_rate must be a number, got '0.5'$"),
])
def test_spe_config_checks_its_fields_when_made(settings, message):
    with pytest.raises(ValueError, match=message):
        SpeConfig(**settings)


def test_fit_method_refuses_non_integer_counts():
    with pytest.raises(ValueError, match="n_estimators must be an integer, got 2.5"):
        fit_method(BOARD, "spe", n_estimators=2.5, k_bins=3.7)


def test_spe_config_stores_numpy_counts_as_ints(tmp_path):
    config = SpeConfig(n_estimators=np.int64(2), k_bins=np.int32(3), seed=np.uint64(7))
    assert [type(v) for v in (config.n_estimators, config.k_bins, config.seed)] == [int] * 3
    model = fit_method(BOARD, "spe", base_learner=shallow_tree(), n_estimators=np.int64(2),
                       k_bins=np.int32(3), seed=np.uint64(7))
    assert model.config["n_estimators"] == 2 and model.config["k_bins"] == 3
    save_model(model, tmp_path / "model.json")
    assert load_model(tmp_path / "model.json").config == model.config


def test_spe_validation():
    with pytest.raises(ValueError, match="n_estimators"):
        spe_fit(BOARD, SpeConfig(n_estimators=0))
    with pytest.raises(ValueError, match="k_bins"):
        spe_fit(BOARD, SpeConfig(n_estimators=2, k_bins=0))
    single_class = Dataset(np.zeros((5, 2)), np.zeros(5, dtype=int))
    with pytest.raises(ValueError, match="requires both classes"):
        spe_fit(single_class, SpeConfig(n_estimators=2))
    with pytest.raises(ValueError, match="base_learner"):
        spe_fit(BOARD, SpeConfig(n_estimators=2, base_learner=42))


def test_easy_members_and_balance():
    log = []
    model = easy_fit(BOARD, SpeConfig(n_estimators=4, base_learner=shallow_tree()), log=log)
    assert len(model.members) == 4
    assert model.method == "easy"
    for entry in log:
        assert entry.n_minority == 60
        assert entry.n_majority == 60


def test_easy_single_member_equals_rand_under():
    # rand-under is easy with one member, whatever n_estimators says: the
    # same subset, tree, scores and log.
    probe = BOARD.features[:50]
    for seed in (0, 5, 7, 17):
        easy_log, rand_log = [], []
        easy = easy_fit(
            BOARD, SpeConfig(n_estimators=1, base_learner=shallow_tree(), seed=seed),
            log=easy_log,
        )
        rand = fit_method(
            BOARD, "rand-under", base_learner=shallow_tree(), n_estimators=4, seed=seed,
            log=rand_log,
        )
        assert model_to_doc(easy)["members"] == model_to_doc(rand)["members"]
        assert easy.predict_proba(probe).tobytes() == rand.predict_proba(probe).tobytes()
        assert easy_log == rand_log
        assert rand.method == "rand-under"
        assert len(rand.members) == 1


def test_rand_under_checks_the_n_estimators_it_is_given():
    with pytest.raises(ValueError, match=r"n_estimators must be >= 1, got 0"):
        fit_method(BOARD, "rand-under", n_estimators=0)


def test_cascade_keep_everything_equals_easy():
    easy = easy_fit(BOARD, SpeConfig(n_estimators=3, base_learner=shallow_tree(), seed=5))
    cascade = cascade_fit(
        BOARD,
        SpeConfig(n_estimators=3, base_learner=shallow_tree(), keep_fp_rate=1.0, seed=5),
    )
    assert model_to_doc(easy)["members"] == model_to_doc(cascade)["members"]


def test_cascade_pool_schedule():
    # With |P|=100 and |N|=10000 the default keep rate is 0.01**(1/4); the
    # live pool then shrinks 10000 -> 3163 -> 1001 -> 317 -> 101.
    features = np.zeros((10100, 2))
    labels = np.concatenate([np.zeros(10000, dtype=int), np.ones(100, dtype=int)])
    data = Dataset(features, labels)
    log = []
    model = cascade_fit(data, SpeConfig(n_estimators=5), log=log)
    assert model.config["keep_fp_rate"] == pytest.approx(0.31622776601683794, abs=1e-15)
    assert [entry.pool_size for entry in log] == [10000, 3163, 1001, 317, 101]
    assert len(model.members) == 5
    for entry in log:
        assert entry.n_minority == 100
        assert entry.n_majority == 100


# (minority, majority, seed, n_estimators, keep_fp_rate, learner). The last
# board's majority reaches the leaf-table batch size.
CASCADE_CASES = [
    (60, 600, 0, 2, None, LearnerSpec("tree")),
    (1000, 10000, 3, 10, None, LearnerSpec("tree")),
    (100, 2000, 5, 4, 0.5, LearnerSpec("tree")),
    (80, 900, 7, 3, 1.0, LearnerSpec("tree")),
    (100, 1500, 2, 5, None, LearnerSpec("adaboost", {"weak_learner_depth": 3})),
    (300, 70000, 1, 4, None, LearnerSpec("tree")),
]


@pytest.mark.parametrize("n_minority, n_majority, seed, n, rate, learner", CASCADE_CASES)
def test_cascade_matches_the_reference(n_minority, n_majority, seed, n, rate, learner):
    assert CASCADE_CASES[-1][1] >= _TABLE_CELLS
    data = generate_checkerboard(
        CheckerboardSpec(n_minority=n_minority, n_majority=n_majority, seed=seed)
    )
    log = []
    model = cascade_fit(data, SpeConfig(n, learner, seed=seed, keep_fp_rate=rate), log=log)
    members, pool_sizes = reference_cascade(data, n, learner.create, seed, rate)
    assert [m.to_json_doc() for m in model.members] == [m.to_json_doc() for m in members]
    assert [entry.pool_size for entry in log] == pool_sizes
    probe = data.features[::5]
    assert model.predict_proba(probe).tobytes() == reference_mean(members, probe).tobytes()


class EchoLearner:
    """Scores a row by its feature 0, which lies in [0, 1], and keeps the rows
    it was fitted on as its document."""

    def fit(self, X, y):
        self.rows_ = X.tolist()
        self.n_features_in_ = X.shape[1]
        return self

    def predict_proba(self, X):
        return np.array(X[:, 0], dtype=np.float64)

    def to_json_doc(self):
        return {"rows": self.rows_}


def echo_board(levels, n_minority):
    """Majority row j scores levels[j] under EchoLearner, a minority row 1;
    feature 1 is the row number."""
    x0 = [*levels, *[1.0] * n_minority]
    X = np.column_stack([x0, np.arange(len(x0), dtype=np.float64)])
    return Dataset(X, np.array([0] * len(levels) + [1] * n_minority))


# Majority scores under EchoLearner: 0 and 1e-13 both weigh 1 / 1e-12 while
# alpha is 0, so an odd quota split between them ties on remainders.
ECHO_LEVELS = (0.0, 1e-13, 0.25, 0.5, 0.75, 1.0)
# Every majority row scores 0.5, so all hardness ties into bin 0.
TIED_BOARD = echo_board([0.5] * 12, 5)
# Over three bins, bin 1 is empty, and the first draw's five rows tie
# between bins 0 and 2.
SPLIT_BOARD = echo_board([0.0, 1e-13] * 6 + [0.0], 5)


@st.composite
def spe_boards(draw):
    """(board, learner): a small checkerboard under depth-3 trees, or an
    echo board under EchoLearner."""
    n_minority = draw(st.integers(min_value=5, max_value=25))
    if draw(st.booleans()):
        n_majority = draw(st.integers(min_value=n_minority, max_value=200))
        spec = CheckerboardSpec(n_minority=n_minority, n_majority=n_majority,
                                seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))
        return generate_checkerboard(spec), LearnerSpec("tree", {"max_depth": 3})
    levels = draw(st.lists(st.sampled_from(ECHO_LEVELS), min_size=n_minority, max_size=60))
    return echo_board(levels, n_minority), EchoLearner


@settings(max_examples=100, deadline=None, database=None)
@given(
    board=spe_boards(),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    k=st.sampled_from((1, 3, 7, 20)),
    n=st.integers(min_value=1, max_value=6),
    hardness=st.sampled_from(sorted(HARDNESS_FUNCTIONS)),
)
@example(board=(TIED_BOARD, EchoLearner), seed=3, k=7, n=4, hardness="cross-entropy")
@example(board=(SPLIT_BOARD, EchoLearner), seed=8, k=3, n=3, hardness="absolute")
def test_spe_matches_the_reference(board, seed, k, n, hardness):
    data, learner = board
    log = []
    model = spe_fit(data, SpeConfig(n, learner, k, hardness, seed), log=log)
    make_learner = learner.create if isinstance(learner, LearnerSpec) else learner
    members, alphas, counts = reference_spe(data, n, make_learner, seed, k, hardness)
    assert [m.to_json_doc() for m in model.members] == [m.to_json_doc() for m in members]
    assert [entry.alpha for entry in log[1:]] == alphas
    assert [entry.bin_counts for entry in log[1:]] == counts
    probe = data.features[::3]
    assert model.predict_proba(probe).tobytes() == reference_mean(members, probe).tobytes()


def test_spe_reference_examples_hold_tied_and_empty_bins():
    tied, split = [], []
    spe_fit(TIED_BOARD, SpeConfig(4, EchoLearner, 7, "cross-entropy", 3), log=tied)
    spe_fit(SPLIT_BOARD, SpeConfig(3, EchoLearner, 3, "absolute", 8), log=split)
    assert [entry.bin_counts for entry in tied[1:]] == [(12, 0, 0, 0, 0, 0, 0)] * 4
    assert split[1].bin_counts == (7, 0, 6)


class ScriptedLearner:
    """Scores a row by its feature-0 value through a fixed table, and keeps
    the rows it was fitted on."""

    def __init__(self, table):
        self.table = table
        self.n_features_in_ = 2

    def fit(self, X, y):
        self.rows_ = X.tobytes()
        return self

    def predict_proba(self, X):
        return np.array([self.table[value] for value in X[:, 0]])


def test_cascade_matches_the_reference_on_means_one_ulp_apart():
    # Feature 0 is 1 on majority rows 0-9 and 0 on rows 10-19; feature 1 is
    # the row number. After two members their sums are 1/15 + 1/3 =
    # 0.39999999999999997 and 0 + 2/5 = 0.4; halved, they still differ, but
    # divided by 3 they would tie, and the tie would keep rows by index.
    X = np.column_stack([[1.0] * 10 + [0.0] * 10 + [2.0] * 3, np.arange(23.0)])
    data = Dataset(X, np.array([0] * 20 + [1] * 3))
    tables = [{1.0: 1 / 15, 0.0: 0.0, 2.0: 1.0}, {1.0: 1 / 3, 0.0: 2 / 5, 2.0: 1.0},
              {1.0: 0.5, 0.0: 0.5, 2.0: 1.0}]

    def scripted():
        turn = iter(tables)
        return lambda: ScriptedLearner(next(turn))

    log = []
    model = cascade_fit(data, SpeConfig(3, scripted(), keep_fp_rate=0.8), log=log)
    members, pool_sizes = reference_cascade(data, 3, scripted(), 0, 0.8)
    assert [entry.pool_size for entry in log] == pool_sizes == [20, 16, 13]
    assert [m.rows_ for m in model.members] == [m.rows_ for m in members]


def test_cascade_stops_when_pool_underruns_minority():
    data = generate_checkerboard(
        CheckerboardSpec(cov_scale=0.1, n_minority=50, n_majority=100, seed=2)
    )
    log = []
    model = cascade_fit(
        data,
        SpeConfig(n_estimators=5, base_learner=shallow_tree(), keep_fp_rate=0.1),
        log=log,
    )
    # After the first pruning the pool holds 10 < 50 samples.
    assert len(model.members) == 1
    assert [entry.pool_size for entry in log] == [100]


def test_cascade_default_rate_needs_two_iterations():
    with pytest.raises(ValueError, match="n_estimators >= 2"):
        cascade_fit(BOARD, SpeConfig(n_estimators=1))
    model = cascade_fit(BOARD, SpeConfig(n_estimators=1, keep_fp_rate=0.5))
    assert len(model.members) == 1
    with pytest.raises(ValueError, match="keep_fp_rate"):
        cascade_fit(BOARD, SpeConfig(n_estimators=3, keep_fp_rate=0.0))
    with pytest.raises(ValueError, match="keep_fp_rate"):
        cascade_fit(BOARD, SpeConfig(n_estimators=3, keep_fp_rate=1.5))


def test_rand_over_uses_full_majority():
    log = []
    model = fit_method(BOARD, "rand-over", base_learner=shallow_tree(), log=log)
    assert model.method == "rand-over"
    assert len(model.members) == 1
    assert log[0].n_minority == 600
    assert log[0].n_majority == 600


def test_none_method_fits_everything_once():
    log = []
    model = fit_method(BOARD, "none", base_learner=shallow_tree(), log=log)
    assert model.method == "none"
    assert len(model.members) == 1
    assert log[0].n_minority == 60
    assert log[0].n_majority == 600


def test_fit_method_dispatch_and_unknown():
    for method in METHODS:
        model = fit_method(
            BOARD, method, base_learner=shallow_tree(), n_estimators=2, keep_fp_rate=0.9
        )
        assert model.method == method
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        fit_method(BOARD, "magic")


def test_external_factory_learner():
    def factory():
        return DecisionTreeClassifier(max_depth=2)

    model = fit_method(BOARD, "easy", base_learner=factory, n_estimators=2)
    assert model.config["base_learner"]["name"] == "external"
    assert len(model.members) == 2
    scores = model.predict_proba(BOARD.features[:10])
    assert scores.shape == (10,)
    assert np.all((scores >= 0) & (scores <= 1))


class KeptScoresLearner(NearestMeanLearner):
    """Returns the one score array it keeps, as a caching learner may."""

    def predict_proba(self, X):
        if not hasattr(self, "kept_"):
            self.kept_ = super().predict_proba(X)
        return self.kept_


def test_spe_adds_member_scores_without_writing_to_a_members_array():
    # spe sums member scores in place; the first sum must be its own copy.
    made = []

    def factory():
        made.append(KeptScoresLearner())
        return made[-1]

    spe_fit(BOARD, SpeConfig(n_estimators=4, base_learner=factory, seed=3))
    majority_X = BOARD.features[BOARD.majority_indices]
    scored = [learner for learner in made if hasattr(learner, "kept_")]
    assert len(scored) == 4  # the bootstrap learner and members 1..3
    for learner in scored:
        fresh = NearestMeanLearner.predict_proba(learner, majority_X)
        assert learner.kept_.tobytes() == fresh.tobytes()


class BadScoreLearner:
    """A factory learner that fits and then scores every row `score`."""

    def __init__(self, score):
        self.score = score

    def fit(self, X, y, sample_weight=None):
        self.n_features_in_ = np.asarray(X).shape[1]
        return self

    def predict_proba(self, X):
        return np.full(np.asarray(X).shape[0], self.score)


@pytest.mark.parametrize("score", [1.5, np.nan])
def test_cascade_refuses_factory_scores_outside_the_unit_interval_while_fitting(score):
    # The cascade prunes its pool by these scores, so it must not fit on them.
    config = SpeConfig(n_estimators=3, base_learner=lambda: BadScoreLearner(score))
    with pytest.raises(ValueError, match=r"^member scores must lie in \[0, 1\]$"):
        cascade_fit(BOARD, config)


def test_model_doc_round_trip():
    model = spe_fit(BOARD, SpeConfig(n_estimators=3, base_learner=shallow_tree(), seed=9))
    doc = model_to_doc(model)
    assert doc["format"] == "selfpaced-ensemble"
    assert doc["version"] == 1
    restored = model_from_doc(doc)
    assert restored.method == "spe"
    assert restored.seed == 9
    assert restored.config == model.config
    probe = BOARD.features[:80]
    assert np.array_equal(model.predict_proba(probe), restored.predict_proba(probe))


def test_model_doc_rejects_foreign_format():
    with pytest.raises(ValueError, match="not an ensemble model document"):
        model_from_doc({"format": "something-else", "members": []})
    with pytest.raises(ValueError, match="model document is a JSON object, got list"):
        model_from_doc([])
    good = model_to_doc(easy_fit(BOARD, SpeConfig(n_estimators=1, base_learner=shallow_tree())))
    for key in ("members", "method"):
        doc = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError, match="malformed model document"):
            model_from_doc(doc)
    for key, bad in (("members", {}), ("method", 3), ("config", [1, 2])):
        with pytest.raises(ValueError, match="malformed model document"):
            model_from_doc({**good, key: bad})
    with pytest.raises(ValueError, match="malformed learner document"):
        model_from_doc({**good, "members": ["tree"]})


def test_model_doc_rejects_other_versions():
    doc = model_to_doc(easy_fit(BOARD, SpeConfig(n_estimators=1, base_learner=shallow_tree())))
    for version in (0, 2, "1", None):
        doc["version"] = version
        with pytest.raises(ValueError, match="unsupported model document version"):
            model_from_doc(doc)


@pytest.mark.parametrize("learner", ["tree", "adaboost"])
def test_version_1_model_files_still_load(learner, tmp_path):
    # Written by the release before trees became flat node lists: spe_fit on
    # a 40-vs-400 board with depth-5 trees or AdaBoost3 over depth-2 trees.
    path = FIXTURES / f"model_v1_{learner}.json"
    reference = json.loads((FIXTURES / "model_v1_scores.json").read_text())
    probe = np.array(reference["probe"])
    model = load_model(str(path))
    assert model.predict_proba(probe).tolist() == reference["scores"][learner]
    assert [float(model.predict_proba(row)) for row in probe] == reference["scores"][learner]
    copy = tmp_path / "copy.json"
    save_model(model, str(copy))
    assert copy.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("learner", ["tree", "adaboost"])
def test_version_1_fixtures_score_a_large_batch_from_leaf_tables(learner):
    # A batch of _TABLE_CELLS rows is scored from shared column ranks
    # through per-tree leaf tables, and must give the fixture's scores.
    reference = json.loads((FIXTURES / "model_v1_scores.json").read_text())
    probe = np.array(reference["probe"])
    model = load_model(str(FIXTURES / f"model_v1_{learner}.json"))
    rows = np.resize(probe, (_TABLE_CELLS, probe.shape[1]))
    expected = np.resize(np.array(reference["scores"][learner]), _TABLE_CELLS)
    assert model.predict_proba(rows).tobytes() == expected.tobytes()
    if learner == "adaboost":
        trees = [weak for member in model.members for _, weak in member.stages_]
    else:
        trees = model.members
    assert all(tree._table[4] is not None for tree in trees)


def test_leaf_tables_never_reach_model_files(tmp_path):
    model = spe_fit(BOARD, SpeConfig(n_estimators=3, base_learner=shallow_tree(), seed=2))
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    doc = json.dumps(model_to_doc(model))
    save_model(model, str(before))
    rows = np.resize(BOARD.features, (_TABLE_CELLS, BOARD.n_features))
    model.predict_proba(rows)
    assert all(member._table[4] is not None for member in model.members)
    assert json.dumps(model_to_doc(model)) == doc
    save_model(model, str(after))
    assert after.read_bytes() == before.read_bytes()


def test_model_file_round_trip(tmp_path):
    model = easy_fit(BOARD, SpeConfig(n_estimators=2, base_learner=shallow_tree(), seed=1))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    restored = load_model(str(path))
    probe = BOARD.features[:40]
    assert np.array_equal(model.predict_proba(probe), restored.predict_proba(probe))
    assert restored.method == "easy"


def test_saving_a_too_deep_tree_leaves_the_file_as_it_was(tmp_path):
    # A chain of 3000 splits, one JSON object per level, is deeper than the
    # encoder can nest.
    node = {"probability": 0.0, "count": 1}
    for level in range(3000):
        node = {"feature": 0, "threshold": float(level),
                "left": {"probability": 1.0, "count": 1}, "right": node}
    tree = DecisionTreeClassifier.from_json_doc(
        {"kind": "tree", "params": {"max_depth": None}, "n_features": 1, "root": node}
    )
    model = EnsembleModel([tree], "none")
    path = tmp_path / "model.json"
    save_model(easy_fit(BOARD, SpeConfig(n_estimators=1, base_learner=shallow_tree())), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="too deep for the version-1 model document"):
        save_model(model, path)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match="too deep"):
        save_model(model, tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()


def test_loading_a_too_deep_document_raises_value_error(tmp_path):
    # A version-1 tree of 2500 levels nests deeper than the decoder can.
    leaf = '{"probability": 0.0, "count": 1}'
    split = '{"feature": 0, "threshold": 0.5, "left": %s, "right": ' % leaf
    root = split * 2500 + leaf + "}" * 2500
    path = tmp_path / "deep.json"
    path.write_text(
        '{"format": "selfpaced-ensemble", "version": 1, "method": "none", "config": {}, '
        '"seed": 0, "members": [{"kind": "tree", "params": {"max_depth": null}, '
        f'"n_features": 1, "root": {root}}}]}}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="model document is nested too deep"):
        load_model(str(path))


def test_adaboost_base_learner_works_end_to_end():
    spec = LearnerSpec("adaboost", {"n_estimators": 3, "weak_learner_depth": 2})
    model = spe_fit(BOARD, SpeConfig(n_estimators=2, base_learner=spec))
    scores = model.predict_proba(BOARD.features[:20])
    assert np.all((scores >= 0) & (scores <= 1))
    doc = model_to_doc(model)
    assert doc["members"][0]["kind"] == "adaboost"
    restored = model_from_doc(doc)
    assert np.array_equal(
        model.predict_proba(BOARD.features[:20]),
        restored.predict_proba(BOARD.features[:20]),
    )
