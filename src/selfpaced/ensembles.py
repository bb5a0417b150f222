"""Ensemble trainers: self-paced hardness-harmonized under-sampling and baselines.

Every trainer takes one SpeConfig and returns an EnsembleModel whose
prediction is the plain mean of member probabilities; pass a list as `log`
to receive one IterationLog per trained learner. Sampling randomness flows
through RandomSource child streams keyed by ("undersample", iteration), so
trainers that draw the same way on the same seed produce the same subsets.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, EnsembleModel, RandomSource, _ColumnRanks, _member_scores, _real, _whole
from .hardness import resolve_hardness
from .learners import LearnerSpec, learner_from_doc, learner_to_doc
from .sampling import (
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
    "IterationLog",
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
    if callable(base_learner):
        return base_learner, {"name": "external", "factory": repr(base_learner)}
    raise ValueError(
        f"base_learner must be a name, a LearnerSpec, or a factory callable; "
        f"got {type(base_learner).__name__}"
    )


def _start(data: Dataset, config):
    """Checks every trainer makes; returns the learner factory, its echo and the RNG."""
    if data.n_minority == 0 or data.n_majority == 0:
        raise ValueError(
            f"training requires both classes; got {data.n_minority} minority "
            f"and {data.n_majority} majority samples"
        )
    factory, learner_echo = _resolve_learner(config.base_learner)
    return factory, learner_echo, RandomSource(config.seed)


def _fit_member(factory, data: Dataset, majority_rows, minority_rows):
    rows = np.concatenate([np.asarray(majority_rows), np.asarray(minority_rows)])
    member = factory()
    member.fit(data.features[rows], data.labels[rows])
    return member


@dataclass(frozen=True)
class SpeConfig:
    """Settings for every trainer; each reads only the fields it uses.

    `k_bins` and `hardness` steer spe. `keep_fp_rate` steers cascade, and
    None derives it from the imbalance. The one-learner baselines ignore
    `n_estimators`. Every field is checked here, once, when the config is
    made, and a learner name becomes its filled `LearnerSpec`; a trainer
    adds only its method's own rules on its data.
    """

    n_estimators: int = 10
    base_learner: object = "tree"
    k_bins: int = 20
    hardness: object = "absolute"
    seed: int = 0
    keep_fp_rate: float | None = None

    def __post_init__(self):
        _whole(self, "n_estimators", 1)
        _whole(self, "k_bins", 1)
        RandomSource(_whole(self, "seed"))
        if self.keep_fp_rate is not None and not 0.0 < _real(self, "keep_fp_rate") <= 1.0:
            raise ValueError(f"keep_fp_rate must lie in (0, 1], got {self.keep_fp_rate}")
        if isinstance(self.base_learner, str):
            object.__setattr__(self, "base_learner", LearnerSpec(self.base_learner))
        _resolve_learner(self.base_learner)
        resolve_hardness(self.hardness)


@dataclass(frozen=True)
class IterationLog:
    """One trained learner: the composition of its subset and the sampler state.

    spe sets `alpha` and `bin_counts` (None for its bootstrap learner) and
    cascade sets `pool_size`; a method without such a value leaves it None.
    """

    iteration: int
    n_minority: int
    n_majority: int
    alpha: float | None = None
    bin_counts: tuple | None = None
    pool_size: int | None = None


def _hardness_echo(hardness):
    return hardness if isinstance(hardness, str) else getattr(hardness, "__name__", "custom")


def _model(method, members, config, **resolved):
    """EnsembleModel whose config echoes the method's keys, in table order.

    `resolved` holds the values a trainer worked out, such as the learner
    echo; every other echoed key is read from `config`.
    """
    echo = {
        key: resolved[key] if key in resolved else getattr(config, key)
        for key in _METHOD_TABLE[method][2]
    }
    return EnsembleModel(members, method, echo, config.seed)


def spe_fit(data: Dataset, config: SpeConfig, log=None) -> EnsembleModel:
    """Train a self-paced under-sampling ensemble.

    A bootstrap learner f0 is fitted on a random balanced subset, then each
    of the n iterations measures majority hardness under the mean of all
    learners so far, cuts it into k equal-width bins, converts per-bin mean
    hardness into quotas through weights 1 / (h + alpha(i)), and fits the
    next learner on the drawn majority rows plus every minority row. f0 only
    bootstraps hardness: the returned model averages the n later learners.

    Pass a list as `log` to receive one IterationLog per trained learner
    (iteration 0 is the bootstrap).
    """
    factory, learner_echo, rng = _start(data, config)
    n = config.n_estimators
    k = config.k_bins
    hardness_fn = resolve_hardness(config.hardness)

    minority = data.minority_indices
    majority = data.majority_indices
    target = minority.size
    majority_X = data.features[majority]
    # The bootstrap learner and members 1..n-1 score the same majority rows,
    # so their trees share its column ranks; one tree cannot repay them.
    ranks = _ColumnRanks(majority_X) if n > 1 else None

    bootstrap_rows = random_undersample(data, rng.child("undersample", 0))
    member = _fit_member(factory, data, bootstrap_rows, minority)
    if log is not None:
        log.append(IterationLog(0, minority.size, len(bootstrap_rows)))

    # Running sum of member scores over the fixed majority rows keeps the
    # per-iteration ensemble mean O(1) member evaluations.
    score_sum = _member_scores(member, majority_X, ranks)
    members = []
    for i in range(1, n + 1):
        mean_scores = score_sum / i
        hardness = hardness_fn(mean_scores, 0)
        partition = partition_bins(hardness, k)
        alpha = self_paced_alpha(i, n)
        weights = bin_sampling_weights(partition, alpha)
        # The bins hold positions in `majority`; only the drawn ones become row ids.
        chosen = majority[self_paced_undersample(
            partition, weights, target, rng.child("undersample", i)
        )]
        member = _fit_member(factory, data, chosen, minority)
        members.append(member)
        if i < n:
            score_sum = score_sum + _member_scores(member, majority_X, ranks)
        if log is not None:
            counts = tuple(int(c) for c in partition.counts)
            log.append(IterationLog(i, minority.size, len(chosen), alpha, counts))
    return _model("spe", members, config, base_learner=learner_echo,
                  hardness=_hardness_echo(config.hardness))


def easy_fit(data: Dataset, config: SpeConfig, log=None) -> EnsembleModel:
    """Train independent learners on independent random balanced subsets."""
    factory, learner_echo, rng = _start(data, config)
    n = config.n_estimators
    minority = data.minority_indices
    members = []
    for i in range(n):
        rows = random_undersample(data, rng.child("undersample", i))
        members.append(_fit_member(factory, data, rows, minority))
        if log is not None:
            log.append(IterationLog(i, minority.size, len(rows)))
    return _model("easy", members, config, base_learner=learner_echo)


def cascade_fit(data: Dataset, config: SpeConfig, log=None) -> EnsembleModel:
    """Train a cascade that discards confidently rejected majority samples.

    Each iteration trains on a random balanced subset of the live majority
    pool, then keeps only the top ceil(keep_fp_rate * |pool|) pool members by
    current-ensemble positive score, dropping the rest (the samples the
    ensemble already rejects most confidently). Training stops early once the
    pool shrinks below the minority count. The default keep_fp_rate,
    (|P| / |N|) ** (1 / (n - 1)), lands the pool near |P| at the last
    iteration.
    """
    factory, learner_echo, rng = _start(data, config)
    n = config.n_estimators
    if config.keep_fp_rate is None:
        if n < 2:
            raise ValueError(
                "the default keep_fp_rate schedule needs n_estimators >= 2; "
                "pass keep_fp_rate explicitly for a single iteration"
            )
        keep_fp_rate = (data.n_minority / data.n_majority) ** (1.0 / (n - 1))
        if keep_fp_rate > 1.0:
            raise ValueError(f"the derived keep_fp_rate must be <= 1, got {keep_fp_rate}")
    else:
        keep_fp_rate = config.keep_fp_rate

    minority = data.minority_indices
    # The live pool: majority row ids in ascending order, with the sum of
    # the members' scores of each; only these rows are scored.
    pool = data.majority_indices
    score_sum = np.zeros(pool.size, dtype=np.float64)
    members = []
    for i in range(n):
        rows = draw_undersample(pool, minority.size, rng.child("undersample", i))
        member = _fit_member(factory, data, rows, minority)
        members.append(member)
        if log is not None:
            log.append(IterationLog(i, minority.size, len(rows), pool_size=pool.size))
        if i == n - 1:
            break
        score_sum = score_sum + _member_scores(member, data.features[pool])
        keep = int(np.ceil(keep_fp_rate * pool.size))
        kept = np.sort(np.argsort(-score_sum / len(members), kind="stable")[:keep])
        pool, score_sum = pool[kept], score_sum[kept]
        if pool.size < minority.size:
            break
    return _model("cascade", members, config, base_learner=learner_echo,
                  keep_fp_rate=keep_fp_rate)


def _rand_over_fit(data, config, log=None):
    factory, learner_echo, rng = _start(data, config)
    minority_rows = random_oversample(data, rng.child("oversample", 0))
    member = _fit_member(factory, data, data.majority_indices, minority_rows)
    if log is not None:
        log.append(IterationLog(0, len(minority_rows), data.n_majority))
    return _model("rand-over", [member], config, base_learner=learner_echo)


def _plain_fit(data, config, log=None):
    factory, learner_echo, _ = _start(data, config)
    member = factory()
    member.fit(data.features, data.labels)
    if log is not None:
        log.append(IterationLog(0, data.n_minority, data.n_majority))
    return _model("none", [member], config, base_learner=learner_echo)


# method -> (trainer, config fields the method fixes, keys echoed into the
# model document's config, in order).
_METHOD_TABLE = {
    "spe": (spe_fit, {}, ("n_estimators", "k_bins", "seed", "hardness", "base_learner")),
    "easy": (easy_fit, {}, ("n_estimators", "seed", "base_learner")),
    "cascade": (cascade_fit, {}, ("n_estimators", "keep_fp_rate", "seed", "base_learner")),
    "rand-under": (easy_fit, {"n_estimators": 1}, ("seed", "base_learner")),
    "rand-over": (_rand_over_fit, {}, ("seed", "base_learner")),
    "none": (_plain_fit, {}, ("seed", "base_learner")),
}
METHODS = tuple(_METHOD_TABLE)


def fit_method(data: Dataset, method: str, log=None, **fields) -> EnsembleModel:
    """Train by method name; the single dispatch point of the CLI and the bench.

    `fields` are SpeConfig fields, and a method ignores those it does not
    use. `rand-under` is `easy` with one member.
    """
    if method not in _METHOD_TABLE:
        raise ValueError(f"unknown method {method!r}; valid: {' | '.join(METHODS)}")
    trainer, fixed, _ = _METHOD_TABLE[method]
    config = replace(SpeConfig(**fields), **fixed)
    model = trainer(data, config, log=log)
    if model.method != method:
        model = _model(method, model.members, config, **model.config)
    return model


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
    """Rebuild a model; a malformed document raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a model document is a JSON object, got {type(doc).__name__}")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not an ensemble model document: format={doc.get('format')!r}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(
            f"unsupported model document version {doc.get('version')!r}; "
            f"this release reads version {MODEL_VERSION}"
        )
    method, members, config = doc.get("method"), doc.get("members"), doc.get("config")
    if not isinstance(method, str) or not isinstance(members, list):
        raise ValueError("malformed model document: needs a 'method' name and a 'members' list")
    if not isinstance(config, (dict, type(None))):
        raise ValueError("malformed model document: 'config' is not an object")
    members = [learner_from_doc(member) for member in members]
    return EnsembleModel(members, method, config, doc.get("seed"))


def save_model(model: EnsembleModel, path) -> None:
    """Write the model document; a model it cannot encode leaves `path` as it was."""
    doc = model_to_doc(model)
    try:
        text = json.dumps(doc, indent=2)
    except RecursionError as err:
        raise ValueError("a tree is too deep for the version-1 model document") from err
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def load_model(path) -> EnsembleModel:
    with open(path, encoding="utf-8") as handle:
        try:
            return model_from_doc(json.load(handle))
        except RecursionError as err:
            raise ValueError("model document is nested too deep to decode") from err
