"""Core domain types: immutable datasets, deterministic random streams, ensembles.

Label convention throughout the package: 1 is the minority/positive class,
0 is the majority/negative class.
"""
from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "Dataset",
    "RandomSource",
    "MeanScorer",
    "EnsembleModel",
    "partial_ensemble",
    "derive_seed",
]

_MAX_SEED = 2**64 - 1


def _non_finite_cell(features):
    """(row, column) of the first NaN or infinite entry of a matrix, or None."""
    finite = np.isfinite(features)
    if finite.all():
        return None
    row, column = np.argwhere(~finite)[0]
    return int(row), int(column)


class Dataset:
    """Immutable feature matrix with aligned binary labels.

    Feature values are finite 64-bit reals; categorical columns must be
    encoded upstream. The constructor copies its inputs and marks them
    read-only so that samplers and trainers can share views safely.
    """

    def __init__(self, features, labels, feature_names=None):
        features = np.array(features, dtype=np.float64, order="C")
        if features.ndim != 2:
            raise ValueError(f"features must be a 2-D matrix, got ndim={features.ndim}")
        bad = _non_finite_cell(features)
        if bad is not None:
            raise ValueError(
                f"features must be finite: row {bad[0]}, column {bad[1]} holds {features[bad]}"
            )
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError(f"labels must be a 1-D sequence, got ndim={labels.ndim}")
        if labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"features have {features.shape[0]} rows "
                f"but labels have {labels.shape[0]} entries"
            )
        valid = np.isin(labels, (0, 1))
        if labels.size and not valid.all():
            bad = np.unique(np.asarray(labels)[~valid])
            raise ValueError(f"labels must be 0 or 1, found {bad.tolist()}")
        labels = labels.astype(np.int64)
        if feature_names is not None:
            feature_names = tuple(str(name) for name in feature_names)
            if len(feature_names) != features.shape[1]:
                raise ValueError(
                    f"{len(feature_names)} feature names for {features.shape[1]} columns"
                )
        features.setflags(write=False)
        labels.setflags(write=False)
        self._features = features
        self._labels = labels
        self._feature_names = feature_names
        self._minority = None
        self._majority = None

    @property
    def features(self) -> np.ndarray:
        return self._features

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def feature_names(self):
        return self._feature_names

    @property
    def n_samples(self) -> int:
        return self._features.shape[0]

    @property
    def n_features(self) -> int:
        return self._features.shape[1]

    @property
    def minority_indices(self) -> np.ndarray:
        if self._minority is None:
            idx = np.flatnonzero(self._labels == 1)
            idx.setflags(write=False)
            self._minority = idx
        return self._minority

    @property
    def majority_indices(self) -> np.ndarray:
        if self._majority is None:
            idx = np.flatnonzero(self._labels == 0)
            idx.setflags(write=False)
            self._majority = idx
        return self._majority

    @property
    def n_minority(self) -> int:
        return int(self.minority_indices.size)

    @property
    def n_majority(self) -> int:
        return int(self.majority_indices.size)

    @property
    def imbalance_ratio(self) -> float:
        if self.n_minority == 0:
            raise ValueError("imbalance ratio is undefined without minority samples")
        return self.n_majority / self.n_minority

    def subset(self, rows) -> "Dataset":
        """New dataset holding the given rows (duplicates allowed)."""
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(self._features[rows], self._labels[rows], self._feature_names)

    def __len__(self) -> int:
        return self.n_samples

    def __repr__(self) -> str:
        return (
            f"Dataset(n_samples={self.n_samples}, n_features={self.n_features}, "
            f"n_minority={self.n_minority}, n_majority={self.n_majority})"
        )


def _label_entropy(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomSource:
    """Deterministic random stream with labeled child derivation.

    Children are keyed by (label, index). The same seed and derivation path
    always reproduce the same stream, independent of how many sibling streams
    exist, in which order they are created, or on how many threads they are
    consumed.
    """

    __slots__ = ("seed", "_path", "_gen")

    def __init__(self, seed: int, _path: tuple = ()):
        seed = int(seed)
        if not 0 <= seed <= _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self._path = _path
        self._gen = None

    def child(self, label: str, index: int = 0) -> "RandomSource":
        """Independent stream derived from this one, keyed by (label, index)."""
        index = int(index)
        if index < 0:
            raise ValueError(f"child index must be nonnegative, got {index}")
        return RandomSource(self.seed, self._path + ((str(label), index),))

    @property
    def path(self) -> tuple:
        return self._path

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (created lazily, then stateful)."""
        if self._gen is None:
            entropy = [self.seed]
            for label, index in self._path:
                entropy.append(_label_entropy(label))
                entropy.append(index)
            self._gen = np.random.default_rng(np.random.SeedSequence(entropy))
        return self._gen

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self._path!r})"


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """Stable 63-bit integer seed derived from (seed, label, index)."""
    gen = RandomSource(seed).child(label, index).generator
    return int(gen.integers(0, 2**63))


def _member_arity(member):
    return getattr(member, "n_features_in_", None)


class MeanScorer:
    """Scores by averaging member positive-class probabilities.

    Members are accumulated in order, so repeated scoring of the same input
    is bitwise reproducible.
    """

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise ValueError("an ensemble needs at least one member")
        arities = {a for a in map(_member_arity, members) if a is not None}
        if len(arities) > 1:
            raise ValueError(f"members disagree on feature count: {sorted(arities)}")
        self.members = members
        self.n_features_in_ = arities.pop() if arities else None

    def predict_proba(self, X):
        """Mean positive-class probability; 1-D input yields a scalar."""
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[np.newaxis, :]
        if X.ndim != 2:
            raise ValueError(f"expected a feature row or matrix, got ndim={X.ndim}")
        if self.n_features_in_ is not None and X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"model expects {self.n_features_in_} features, got {X.shape[1]}"
            )
        total = np.zeros(X.shape[0], dtype=np.float64)
        for member in self.members:
            scores = np.asarray(member.predict_proba(X), dtype=np.float64)
            if scores.shape != (X.shape[0],):
                raise ValueError(
                    f"member returned scores of shape {scores.shape}, "
                    f"expected ({X.shape[0]},)"
                )
            total += scores
        out = total / len(self.members)
        return float(out[0]) if single else out

    def __len__(self) -> int:
        return len(self.members)


class EnsembleModel(MeanScorer):
    """Trained ensemble: ordered members plus training metadata."""

    def __init__(self, members, method: str, config: dict | None = None, seed=None):
        super().__init__(members)
        self.method = str(method)
        self.config = dict(config or {})
        self.seed = seed

    def __repr__(self) -> str:
        return f"EnsembleModel(method={self.method!r}, members={len(self.members)})"


def partial_ensemble(model_or_members, upto: int) -> MeanScorer:
    """Mean scorer over the first `upto` members of a model or member list."""
    members = getattr(model_or_members, "members", None)
    if members is None:
        members = tuple(model_or_members)
    upto = int(upto)
    if not 1 <= upto <= len(members):
        raise ValueError(f"upto must be in [1, {len(members)}], got {upto}")
    return MeanScorer(members[:upto])
