"""Ensemble trainers: self-paced hardness-harmonized under-sampling and baselines.

All trainers return an EnsembleModel whose prediction is the plain mean of
member probabilities. Sampling randomness flows through RandomSource child
streams keyed by ("undersample", iteration), so trainers that draw the same
way on the same seed produce the same subsets.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import Dataset, EnsembleModel, RandomSource
from .hardness import resolve_hardness
from .learners import LearnerSpec, learner_from_doc, learner_to_doc
from .sampling import (
    DEFAULT_ALPHA_CAP,
    bin_sampling_weights,
    draw_undersample,
    partition_bins,
    random_oversample,
    random_undersample,
    self_paced_alpha,
    self_paced_undersample,
)

__all__ = [
    "SpeConfig",
    "EasyConfig",
    "CascadeConfig",
    "BaselineConfig",
    "SpeIterationLog",
    "EasyIterationLog",
    "CascadeIterationLog",
    "spe_fit",
    "easy_fit",
    "cascade_fit",
    "fit_method",
    "METHODS",
    "model_to_doc",
    "model_from_doc",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "selfpaced-ensemble"
MODEL_VERSION = 1


def _resolve_learner(base_learner):
    """Normalize a learner request into (factory, json-safe echo)."""
    if isinstance(base_learner, LearnerSpec):
        return base_learner.create, {"name": base_learner.name, "params": dict(base_learner.params)}
    if isinstance(base_learner, str):
        spec = LearnerSpec(base_learner)
        return spec.create, {"name": spec.name, "params": {}}
    if callable(base_learner):
        return base_learner, {"name": "external", "factory": repr(base_learner)}
    raise ValueError(
        f"base_learner must be a name, a LearnerSpec, or a factory callable; "
        f"got {type(base_learner).__name__}"
    )


def _check_trainable(data: Dataset):
    if data.n_minority == 0 or data.n_majority == 0:
        raise ValueError(
            f"training requires both classes; got {data.n_minority} minority "
            f"and {data.n_majority} majority samples"
        )


def _fit_member(factory, data: Dataset, majority_rows, minority_rows):
    rows = np.concatenate([np.asarray(majority_rows), np.asarray(minority_rows)])
    subset = data.subset(rows)
    member = factory()
    member.fit(subset.features, subset.labels)
    return member


def _member_scores(member, X):
    return np.asarray(member.predict_proba(X), dtype=np.float64)


@dataclass(frozen=True)
class SpeConfig:
    n_estimators: int
    base_learner: object = "tree"
    k_bins: int = 20
    hardness: object = "absolute"
    alpha_cap: float = DEFAULT_ALPHA_CAP
    seed: int = 0


@dataclass(frozen=True)
class EasyConfig:
    n_estimators: int
    base_learner: object = "tree"
    seed: int = 0


@dataclass(frozen=True)
class CascadeConfig:
    n_estimators: int
    base_learner: object = "tree"
    keep_fp_rate: float | None = None
    seed: int = 0


@dataclass(frozen=True)
class BaselineConfig:
    base_learner: object = "tree"
    seed: int = 0


@dataclass(frozen=True)
class SpeIterationLog:
    """One training iteration: its schedule state and subset composition."""

    iteration: int
    alpha: float | None
    bin_counts: tuple | None
    n_minority: int
    n_majority: int


@dataclass(frozen=True)
class EasyIterationLog:
    iteration: int
    n_minority: int
    n_majority: int


@dataclass(frozen=True)
class CascadeIterationLog:
    iteration: int
    pool_size: int
    n_minority: int
    n_majority: int


def _hardness_echo(hardness):
    return hardness if isinstance(hardness, str) else getattr(hardness, "__name__", "custom")


def _config_echo(config, learner_echo, **extra):
    echo = {
        key: value
        for key, value in asdict(config).items()
        if key not in ("base_learner", "hardness")
    }
    if hasattr(config, "hardness"):
        echo["hardness"] = _hardness_echo(config.hardness)
    echo["base_learner"] = learner_echo
    echo.update(extra)
    return echo


def spe_fit(data: Dataset, config: SpeConfig, log=None) -> EnsembleModel:
    """Train a self-paced under-sampling ensemble.

    A bootstrap learner f0 is fitted on a random balanced subset, then each
    of the n iterations measures majority hardness under the mean of all
    learners so far, cuts it into k equal-width bins, converts per-bin mean
    hardness into quotas through weights 1 / (h + alpha(i)), and fits the
    next learner on the drawn majority rows plus every minority row. f0 only
    bootstraps hardness: the returned model averages the n later learners.

    Pass a list as `log` to receive one SpeIterationLog per trained learner
    (iteration 0 is the bootstrap).
    """
    _check_trainable(data)
    n = int(config.n_estimators)
    if n < 1:
        raise ValueError(f"n_estimators must be >= 1, got {n}")
    k = int(config.k_bins)
    if k < 1:
        raise ValueError(f"k_bins must be >= 1, got {k}")
    hardness_fn = resolve_hardness(config.hardness)
    factory, learner_echo = _resolve_learner(config.base_learner)
    rng = RandomSource(config.seed)

    minority = data.minority_indices
    majority = data.majority_indices
    target = minority.size
    majority_X = data.features[majority]

    bootstrap_rows = random_undersample(data, rng.child("undersample", 0))
    member = _fit_member(factory, data, bootstrap_rows, minority)
    if log is not None:
        log.append(SpeIterationLog(0, None, None, minority.size, len(bootstrap_rows)))

    # Running sum of member scores over the fixed majority rows keeps the
    # per-iteration ensemble mean O(1) member evaluations.
    score_sum = _member_scores(member, majority_X)
    members = []
    for i in range(1, n + 1):
        mean_scores = score_sum / i
        hardness = hardness_fn(mean_scores, 0)
        partition = partition_bins(hardness, k, indices=majority)
        alpha = self_paced_alpha(i, n, config.alpha_cap)
        weights = bin_sampling_weights(partition, alpha)
        chosen = self_paced_undersample(
            partition, weights, target, rng.child("undersample", i)
        )
        member = _fit_member(factory, data, chosen, minority)
        members.append(member)
        score_sum = score_sum + _member_scores(member, majority_X)
        if log is not None:
            log.append(
                SpeIterationLog(
                    i,
                    alpha,
                    tuple(int(c) for c in partition.counts),
                    minority.size,
                    len(chosen),
                )
            )
    echo = _config_echo(config, learner_echo)
    return EnsembleModel(members, "spe", echo, config.seed)


def easy_fit(data: Dataset, config: EasyConfig, log=None) -> EnsembleModel:
    """Train independent learners on independent random balanced subsets."""
    _check_trainable(data)
    n = int(config.n_estimators)
    if n < 1:
        raise ValueError(f"n_estimators must be >= 1, got {n}")
    factory, learner_echo = _resolve_learner(config.base_learner)
    rng = RandomSource(config.seed)
    minority = data.minority_indices
    members = []
    for i in range(n):
        rows = random_undersample(data, rng.child("undersample", i))
        members.append(_fit_member(factory, data, rows, minority))
        if log is not None:
            log.append(EasyIterationLog(i, minority.size, len(rows)))
    echo = _config_echo(config, learner_echo)
    return EnsembleModel(members, "easy", echo, config.seed)


def cascade_fit(data: Dataset, config: CascadeConfig, log=None) -> EnsembleModel:
    """Train a cascade that discards confidently rejected majority samples.

    Each iteration trains on a random balanced subset of the live majority
    pool, then keeps only the top ceil(keep_fp_rate * |pool|) pool members by
    current-ensemble positive score, dropping the rest (the samples the
    ensemble already rejects most confidently). Training stops early once the
    pool shrinks below the minority count. The default keep_fp_rate,
    (|P| / |N|) ** (1 / (n - 1)), lands the pool near |P| at the last
    iteration.
    """
    _check_trainable(data)
    n = int(config.n_estimators)
    if n < 1:
        raise ValueError(f"n_estimators must be >= 1, got {n}")
    if config.keep_fp_rate is None:
        if n < 2:
            raise ValueError(
                "the default keep_fp_rate schedule needs n_estimators >= 2; "
                "pass keep_fp_rate explicitly for a single iteration"
            )
        keep_fp_rate = (data.n_minority / data.n_majority) ** (1.0 / (n - 1))
    else:
        keep_fp_rate = float(config.keep_fp_rate)
    if not 0.0 < keep_fp_rate <= 1.0:
        raise ValueError(f"keep_fp_rate must lie in (0, 1], got {keep_fp_rate}")

    factory, learner_echo = _resolve_learner(config.base_learner)
    rng = RandomSource(config.seed)
    minority = data.minority_indices
    majority = data.majority_indices
    majority_X = data.features[majority]
    # The pool holds positions into the majority view, kept in ascending order.
    pool = np.arange(majority.size)
    score_sum = np.zeros(majority.size, dtype=np.float64)
    members = []
    for i in range(n):
        rows = draw_undersample(majority[pool], minority.size, rng.child("undersample", i))
        member = _fit_member(factory, data, rows, minority)
        members.append(member)
        if log is not None:
            log.append(CascadeIterationLog(i, pool.size, minority.size, len(rows)))
        if i == n - 1:
            break
        score_sum = score_sum + _member_scores(member, majority_X)
        pool_scores = score_sum[pool] / len(members)
        keep = int(np.ceil(keep_fp_rate * pool.size))
        ranked = np.argsort(-pool_scores, kind="stable")
        pool = np.sort(pool[ranked[:keep]])
        if pool.size < minority.size:
            break
    echo = _config_echo(config, learner_echo, keep_fp_rate=keep_fp_rate)
    return EnsembleModel(members, "cascade", echo, config.seed)


def _rand_under_fit(data, config, log=None):
    _check_trainable(data)
    factory, learner_echo = _resolve_learner(config.base_learner)
    rng = RandomSource(config.seed)
    rows = random_undersample(data, rng.child("undersample", 0))
    member = _fit_member(factory, data, rows, data.minority_indices)
    if log is not None:
        log.append(EasyIterationLog(0, data.n_minority, len(rows)))
    return EnsembleModel([member], "rand-under", _config_echo(config, learner_echo), config.seed)


def _rand_over_fit(data, config, log=None):
    _check_trainable(data)
    factory, learner_echo = _resolve_learner(config.base_learner)
    rng = RandomSource(config.seed)
    minority_rows = random_oversample(data, rng.child("oversample", 0))
    member = _fit_member(factory, data, data.majority_indices, minority_rows)
    if log is not None:
        log.append(EasyIterationLog(0, len(minority_rows), data.n_majority))
    return EnsembleModel([member], "rand-over", _config_echo(config, learner_echo), config.seed)


def _plain_fit(data, config, log=None):
    _check_trainable(data)
    factory, learner_echo = _resolve_learner(config.base_learner)
    member = factory()
    member.fit(data.features, data.labels)
    if log is not None:
        log.append(EasyIterationLog(0, data.n_minority, data.n_majority))
    return EnsembleModel([member], "none", _config_echo(config, learner_echo), config.seed)


METHODS = ("spe", "easy", "cascade", "rand-under", "rand-over", "none")


def fit_method(
    data: Dataset,
    method: str,
    base_learner="tree",
    n_estimators: int = 10,
    k_bins: int = 20,
    hardness="absolute",
    alpha_cap: float = DEFAULT_ALPHA_CAP,
    keep_fp_rate: float | None = None,
    seed: int = 0,
    log=None,
) -> EnsembleModel:
    """Train by method name; the single dispatch point used by the CLI."""
    if method == "spe":
        config = SpeConfig(n_estimators, base_learner, k_bins, hardness, alpha_cap, seed)
        return spe_fit(data, config, log=log)
    if method == "easy":
        return easy_fit(data, EasyConfig(n_estimators, base_learner, seed), log=log)
    if method == "cascade":
        config = CascadeConfig(n_estimators, base_learner, keep_fp_rate, seed)
        return cascade_fit(data, config, log=log)
    if method == "rand-under":
        return _rand_under_fit(data, BaselineConfig(base_learner, seed), log=log)
    if method == "rand-over":
        return _rand_over_fit(data, BaselineConfig(base_learner, seed), log=log)
    if method == "none":
        return _plain_fit(data, BaselineConfig(base_learner, seed), log=log)
    raise ValueError(f"unknown method {method!r}; valid: {' | '.join(METHODS)}")


def model_to_doc(model: EnsembleModel) -> dict:
    """Self-describing JSON document for a trained ensemble."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "method": model.method,
        "config": model.config,
        "seed": model.seed,
        "members": [learner_to_doc(member) for member in model.members],
    }


def model_from_doc(doc: dict) -> EnsembleModel:
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not an ensemble model document: format={doc.get('format')!r}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(
            f"unsupported model document version {doc.get('version')!r}; "
            f"this release reads version {MODEL_VERSION}"
        )
    members = [learner_from_doc(member) for member in doc["members"]]
    return EnsembleModel(members, doc["method"], doc.get("config"), doc.get("seed"))


def save_model(model: EnsembleModel, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_doc(model), handle, indent=2)
        handle.write("\n")


def load_model(path) -> EnsembleModel:
    with open(path, encoding="utf-8") as handle:
        return model_from_doc(json.load(handle))
