"""Core domain types: immutable datasets, deterministic random streams, ensembles.

Label convention throughout the package: 1 is the minority/positive class,
0 is the majority/negative class.
"""
from __future__ import annotations

import hashlib
import operator

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


def _integer(value, name, least=None):
    """`value` as an int, refusing 2.5, "3" or True; below `least` it raises too."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and number < least:
        raise ValueError(f"{name} must be >= {least}, got {number}")
    return number


def _whole(config, name, least=None):
    """Store field `name` of a frozen config as an int, checked by `_integer`."""
    number = _integer(getattr(config, name), name, least)
    object.__setattr__(config, name, number)
    return number


def _number(value, name):
    """`value` as a float, refusing "0.5" where `float()` would parse it."""
    if isinstance(value, (str, bytes)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _real(config, name):
    """Store field `name` of a frozen config as a float, checked by `_number`."""
    number = _number(getattr(config, name), name)
    object.__setattr__(config, name, number)
    return number


def _row_ids(rows, name):
    """`rows` as int64 row ids: any integer dtype, never bool, float, string or object.

    Casting 1.5 or True to int64 would pick row 1 without a word, and a
    uint64 id past the int64 range would wrap to a negative one. An empty
    sequence passes, whatever its dtype.
    """
    rows = np.asarray(rows)
    if rows.size and rows.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integer row ids, got dtype {rows.dtype}")
    if rows.dtype == np.uint64 and rows.size and rows.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{name} must be integer row ids, got {rows.max()}")
    return rows.astype(np.int64, copy=False)


def _labels(values):
    """`values` as int64 0/1 labels, any shape; other values are named, sorted if they can be."""
    values = np.asarray(values)
    bad = values[(values != 0) & (values != 1)]
    if bad.size:
        try:
            found = np.unique(bad).tolist()
        except TypeError:
            found = list(dict.fromkeys(bad.tolist()))
        raise ValueError(f"labels must be 0 or 1, found {found}")
    return values.astype(np.int64)


def _check_unit_interval(values, noun):
    """Refuse a float64 array holding NaN or a value outside [0, 1]; `noun` names it."""
    # min and max propagate NaN, and NaN fails both comparisons.
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError(f"{noun} must lie in [0, 1]")


def _non_finite_cell(features):
    """(row, column) of the first NaN or infinite entry of a matrix, or None."""
    finite = np.isfinite(features)
    if finite.all():
        return None
    row, column = np.argwhere(~finite)[0]
    return int(row), int(column)


def _check_features(features):
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got ndim={features.ndim}")
    bad = _non_finite_cell(features)
    if bad is not None:
        raise ValueError(
            f"features must be finite: row {bad[0]}, column {bad[1]} holds {features[bad]}"
        )


def _check_predict_input(X, n_features, fitted):
    """X as a checked float64 matrix, and whether it was one 1-D row; any width for None."""
    if not fitted:
        raise ValueError("model has not been fitted")
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[np.newaxis, :]
    if X.ndim != 2:
        raise ValueError(f"expected a feature row or matrix, got ndim={X.ndim}")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(f"model expects {n_features} features, got {X.shape[1]}")
    _check_features(X)
    return X, single


class Dataset:
    """Immutable feature matrix with aligned binary labels.

    Feature values are finite 64-bit reals; categorical columns must be
    encoded upstream. The constructor copies its inputs and marks them
    read-only so that samplers and trainers can share views safely.
    """

    def __init__(self, features, labels, feature_names=None):
        features = np.array(features, dtype=np.float64, order="C")
        _check_features(features)
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError(f"labels must be a 1-D sequence, got ndim={labels.ndim}")
        if labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"features have {features.shape[0]} rows "
                f"but labels have {labels.shape[0]} entries"
            )
        labels = _labels(labels)
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
        rows = _row_ids(rows, "rows")
        outside = (rows < 0) | (rows >= self.n_samples)
        if outside.any():
            raise ValueError(
                f"rows must be row ids in [0, {self.n_samples}), got {rows[outside][0]}"
            )
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
        seed = _integer(seed, "seed")
        if not 0 <= seed <= _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self._path = _path
        self._gen = None

    def child(self, label: str, index: int = 0) -> "RandomSource":
        """Independent stream derived from this one, keyed by (label, index)."""
        index = _integer(index, "index", 0)
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


# Rows per block of a `_ColumnRanks`; the last block also takes the rows
# past the last full one. Blocks keep each sort short, and each gather by
# rank inside 128-256 kB of 16-bit codes, which stay in cache: ten trees
# scored 500,000 x 2 rows in 97-100 ms, against 108-111 ms as one block.
_RANK_BLOCK = 1 << 16


class _ColumnRanks:
    """The columns of a checked matrix, each sorted once per block of rows.

    Trees that score one matrix read a row's place among its block's values
    of a column from here instead of comparing values node by node (see
    `DecisionTreeClassifier._score_rows`). A column is sorted when a tree
    first asks for it. The view is dropped with the call or the fit that
    made it: for 500,000 rows it holds 8 MB per column.
    """

    def __init__(self, X):
        self._X = X
        self._columns = {}

    @property
    def blocks(self):
        """(start, stop) of each block of rows."""
        n_rows = self._X.shape[0]
        starts = list(range(0, max(n_rows - _RANK_BLOCK, 0) + 1, _RANK_BLOCK))
        return list(zip(starts, starts[1:] + [n_rows]))

    def column(self, f):
        """Per block: (column f's values in ascending order, each row's position among them)."""
        if f not in self._columns:
            ranked = []
            for start, stop in self.blocks:
                values = self._X[start:stop, f]
                order = np.argsort(values)
                rank = np.empty_like(order)
                rank[order] = np.arange(order.size)
                ranked.append((values[order], rank))
            self._columns[f] = ranked
        return self._columns[f]


def _member_scores(member, X, ranks=None):
    """A member's scores on a checked matrix, one per row.

    Built-in learners score it through `_score_rows` without a second check,
    and their trees may read `ranks`, a `_ColumnRanks` of X; other learners
    go through their public `predict_proba`, and their scores are checked
    here: one per row, each in [0, 1].
    """
    score_rows = getattr(member, "_score_rows", None)
    if score_rows is not None:
        return score_rows(X, ranks)
    scores = np.asarray(member.predict_proba(X), dtype=np.float64)
    if scores.shape != (X.shape[0],):
        raise ValueError(
            f"member returned scores of shape {scores.shape}, expected ({X.shape[0]},)"
        )
    _check_unit_interval(scores, "member scores")
    return scores


class MeanScorer:
    """Scores by averaging member positive-class probabilities.

    Members are accumulated in order, so repeated scoring of the same input
    is bitwise reproducible.
    """

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise ValueError("an ensemble needs at least one member")
        arities = {getattr(member, "n_features_in_", None) for member in members} - {None}
        if len(arities) > 1:
            raise ValueError(f"members disagree on feature count: {sorted(arities)}")
        self.members = members
        self.n_features_in_ = arities.pop() if arities else None

    def predict_proba(self, X):
        """Mean positive-class probability; 1-D input yields a scalar."""
        X, single = _check_predict_input(X, self.n_features_in_, True)
        # A lone tree cannot repay the sorts behind ranks (see
        # `learners._TABLE_CELLS`), so a lone member gets none.
        ranks = _ColumnRanks(X) if len(self.members) > 1 else None
        total = np.zeros(X.shape[0], dtype=np.float64)
        for member in self.members:
            total += _member_scores(member, X, ranks)
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
    upto = _integer(upto, "upto")
    if not 1 <= upto <= len(members):
        raise ValueError(f"upto must be in [1, {len(members)}], got {upto}")
    return MeanScorer(members[:upto])
