"""Dataset container, deterministic random streams, and mean-score ensembles."""
import numpy as np
import pytest

from selfpaced.core import (
    Dataset,
    EnsembleModel,
    MeanScorer,
    RandomSource,
    derive_seed,
    partial_ensemble,
)


def small_dataset():
    features = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    labels = np.array([0, 0, 0, 1])
    return Dataset(features, labels, feature_names=("a", "b"))


class ConstantLearner:
    """Minimal scorer honoring the base-learner contract."""

    def __init__(self, value, n_features=2):
        self.value = float(value)
        self.n_features_in_ = n_features

    def predict_proba(self, X):
        X = np.asarray(X)
        return np.full(X.shape[0], self.value)


def test_dataset_shape_and_counts():
    data = small_dataset()
    assert data.n_samples == 4
    assert data.n_features == 2
    assert data.n_minority == 1
    assert data.n_majority == 3
    assert len(data) == 4
    assert data.feature_names == ("a", "b")
    assert data.imbalance_ratio == 3.0


def test_dataset_class_index_views():
    data = small_dataset()
    assert data.minority_indices.tolist() == [3]
    assert data.majority_indices.tolist() == [0, 1, 2]


def test_dataset_arrays_are_read_only():
    data = small_dataset()
    with pytest.raises(ValueError):
        data.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        data.labels[0] = 1
    with pytest.raises(ValueError):
        data.minority_indices[0] = 0


def test_dataset_copies_its_inputs():
    features = np.array([[1.0, 2.0], [3.0, 4.0]])
    labels = np.array([0, 1])
    data = Dataset(features, labels)
    features[0, 0] = -1.0
    labels[0] = 1
    assert data.features[0, 0] == 1.0
    assert data.labels[0] == 0


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        Dataset(np.zeros((2, 1)), np.array([0, 2]))
    with pytest.raises(ValueError, match="2-D"):
        Dataset(np.zeros(3), np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="1-D"):
        Dataset(np.zeros((2, 1)), np.array([[0], [1]]))
    with pytest.raises(ValueError, match="rows"):
        Dataset(np.zeros((2, 1)), np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="feature names"):
        Dataset(np.zeros((2, 3)), np.array([0, 1]), feature_names=("a",))


def test_dataset_rejects_non_finite_features():
    for bad in (np.nan, np.inf, -np.inf):
        features = np.zeros((3, 2))
        features[2, 1] = bad
        with pytest.raises(ValueError, match="features must be finite: row 2, column 1"):
            Dataset(features, np.array([0, 1, 0]))


def test_dataset_subset_allows_duplicates():
    data = small_dataset()
    sub = data.subset([3, 3, 0])
    assert sub.n_samples == 3
    assert sub.labels.tolist() == [1, 1, 0]
    assert sub.features[0].tolist() == [6.0, 7.0]
    assert sub.feature_names == ("a", "b")


def test_imbalance_ratio_needs_minority():
    data = Dataset(np.zeros((2, 1)), np.array([0, 0]))
    with pytest.raises(ValueError, match="undefined without minority"):
        data.imbalance_ratio


def test_random_source_is_deterministic():
    a = RandomSource(42).generator.integers(0, 1000, size=5)
    b = RandomSource(42).generator.integers(0, 1000, size=5)
    assert a.tolist() == b.tolist()


def test_random_source_children_differ_from_parent_and_siblings():
    root = RandomSource(7)
    draws = {
        name: RandomSource(7).child(*key).generator.integers(0, 2**63)
        for name, key in {
            "u0": ("undersample", 0),
            "u1": ("undersample", 1),
            "o0": ("oversample", 0),
        }.items()
    }
    draws["root"] = root.generator.integers(0, 2**63)
    assert len(set(draws.values())) == 4


def test_child_streams_do_not_depend_on_creation_order():
    first = RandomSource(3)
    sibling = first.child("a", 0)
    sibling.generator.integers(0, 100, size=10)
    late = first.child("b", 5)

    fresh = RandomSource(3).child("b", 5)
    assert late.generator.integers(0, 2**63) == fresh.generator.integers(0, 2**63)


def test_child_path_tracking_and_validation():
    rng = RandomSource(1).child("fit", 2).child("bag")
    assert rng.path == (("fit", 2), ("bag", 0))
    with pytest.raises(ValueError, match="nonnegative"):
        RandomSource(1).child("fit", -1)
    with pytest.raises(ValueError, match="64-bit"):
        RandomSource(-5)
    with pytest.raises(ValueError, match="64-bit"):
        RandomSource(2**64)


def test_derive_seed_is_stable_and_in_range():
    first = derive_seed(0, "train-data", 3)
    again = derive_seed(0, "train-data", 3)
    assert first == again
    assert 0 <= first < 2**63
    assert derive_seed(0, "train-data", 4) != first
    assert derive_seed(0, "test-data", 3) != first
    assert derive_seed(1, "train-data", 3) != first


def test_generator_is_stateful_once_created():
    rng = RandomSource(9)
    first = rng.generator.integers(0, 2**63)
    second = rng.generator.integers(0, 2**63)
    assert first != second


def test_mean_scorer_averages_members():
    scorer = MeanScorer([ConstantLearner(0.2), ConstantLearner(0.6)])
    X = np.zeros((3, 2))
    out = scorer.predict_proba(X)
    assert out.shape == (3,)
    assert np.allclose(out, 0.4)
    assert len(scorer) == 2


def test_mean_scorer_scalar_for_single_row():
    scorer = MeanScorer([ConstantLearner(0.25)])
    out = scorer.predict_proba(np.array([1.0, 2.0]))
    assert isinstance(out, float)
    assert out == 0.25


def test_mean_scorer_validates_inputs():
    with pytest.raises(ValueError, match="at least one member"):
        MeanScorer([])
    with pytest.raises(ValueError, match="disagree on feature count"):
        MeanScorer([ConstantLearner(0.5, 2), ConstantLearner(0.5, 3)])
    scorer = MeanScorer([ConstantLearner(0.5, 2)])
    with pytest.raises(ValueError, match="expects 2 features"):
        scorer.predict_proba(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="ndim"):
        scorer.predict_proba(np.zeros((2, 2, 2)))


def test_mean_scorer_rejects_misshapen_member_output():
    class Wide:
        n_features_in_ = 2

        def predict_proba(self, X):
            return np.zeros((len(X), 2))

    scorer = MeanScorer([Wide()])
    with pytest.raises(ValueError, match="shape"):
        scorer.predict_proba(np.zeros((3, 2)))


def test_ensemble_model_metadata_and_partials():
    members = [ConstantLearner(v) for v in (0.1, 0.3, 0.8)]
    model = EnsembleModel(members, "easy", {"n_estimators": 3}, seed=5)
    assert model.method == "easy"
    assert model.config == {"n_estimators": 3}
    assert model.seed == 5

    X = np.zeros((2, 2))
    assert np.allclose(partial_ensemble(model, 1).predict_proba(X), 0.1)
    assert np.allclose(partial_ensemble(model, 2).predict_proba(X), 0.2)
    assert np.allclose(partial_ensemble(model, 3).predict_proba(X), 0.4)
    assert np.allclose(partial_ensemble(members, 2).predict_proba(X), 0.2)


def test_partial_ensemble_bounds():
    members = [ConstantLearner(0.5)]
    with pytest.raises(ValueError, match=r"\[1, 1\]"):
        partial_ensemble(members, 0)
    with pytest.raises(ValueError, match=r"\[1, 1\]"):
        partial_ensemble(members, 2)


def test_mean_of_means_matches_direct_average():
    # Fuzz the accumulation path against a plain matrix mean.
    gen = np.random.default_rng(11)
    for _ in range(25):
        n_members = int(gen.integers(1, 8))
        n_rows = int(gen.integers(1, 12))
        values = gen.random(n_members)
        scorer = MeanScorer([ConstantLearner(v) for v in values])
        out = scorer.predict_proba(gen.random((n_rows, 2)))
        assert np.allclose(out, values.mean(), atol=1e-15)
