"""Ensemble trainers: subset balance, schedules, baselines, persistence."""
import json
from pathlib import Path

import numpy as np
import pytest

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
from selfpaced.learners import DecisionTreeClassifier, LearnerSpec
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
        SpeConfig(n_estimators=8, base_learner=shallow_tree(), alpha_cap=5.0),
        log=log,
    )
    alphas = [entry.alpha for entry in log[1:]]
    assert alphas == [self_paced_alpha(i, 8, 5.0) for i in range(1, 9)]
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


@pytest.mark.parametrize("n_estimators", [1, 2, 5])
def test_spe_scores_the_majority_once_per_member(n_estimators):
    # The bootstrap learner and members 1..n-1 score the majority rows for
    # the next iteration's hardness; the last member has no next iteration.
    majority_calls = []

    def counting_tree():
        tree = DecisionTreeClassifier(max_depth=4)
        predict_proba = tree.predict_proba

        def counting_predict_proba(X):
            if len(X) == BOARD.n_majority:
                majority_calls.append(tree)
            return predict_proba(X)

        tree.predict_proba = counting_predict_proba
        return tree

    model = spe_fit(BOARD, SpeConfig(n_estimators=n_estimators, base_learner=counting_tree))
    assert len(majority_calls) == n_estimators
    assert len(set(map(id, majority_calls))) == n_estimators
    assert model.members[-1] not in majority_calls


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
    assert model.config["base_learner"] == {"name": "tree", "params": {"max_depth": 4}}
    assert model.seed == 0


# Written at the release before the trainers shared one config: fit_method on
# BOARD with n_estimators=3, k_bins=5, hardness="squared", alpha_cap=7.5 and
# seed 4, over depth-4 trees. Key order is part of the model file.
_TREE4 = {"name": "tree", "params": {"max_depth": 4}}
CONFIG_ECHOES = {
    "spe": [("n_estimators", 3), ("k_bins", 5), ("alpha_cap", 7.5), ("seed", 4),
            ("hardness", "squared"), ("base_learner", _TREE4)],
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
        hardness="squared", alpha_cap=7.5, seed=4,
    )
    assert list(model.config.items()) == CONFIG_ECHOES[method]
    assert list(model_to_doc(model)["config"].items()) == CONFIG_ECHOES[method]
    assert model.method == method
    assert model.seed == 4


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
