"""Benchmark suites over the synthetic checkerboard: method comparison,
class-overlap sweep, and missing-value sweep.

Every repeat draws an independent training and test set from the same spec,
trains each method on the training set, and scores the test set. Rows carry
mean and standard deviation over repeats; per-repeat values live in the JSON
mirror. All randomness derives from the suite seed, so a rerun with the same
configuration is byte-identical.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import RandomSource, derive_seed
from .data import CheckerboardSpec, corrupt_missing, generate_checkerboard
from .ensembles import METHODS, fit_method
from .learners import LearnerSpec
# `aucprc` stays a name of this module: perfbench/spans.py wraps it here.
from .metrics import aucprc, metric_report  # noqa: F401
from .sampling import DEFAULT_ALPHA_CAP

__all__ = [
    "BenchConfig",
    "ResultRow",
    "SUITES",
    "OVERLAP_COVS",
    "MISSING_RATIOS",
    "CHECKERBOARD_METRICS",
    "run_suite",
    "write_results",
]

SUITES = ("checkerboard", "overlap-sweep", "missing-sweep")
OVERLAP_COVS = (0.05, 0.10, 0.15)
MISSING_RATIOS = (0.0, 0.25, 0.5, 0.75)
CHECKERBOARD_METRICS = ("aucprc", "f1", "gmean", "mcc")

_DEFAULT_LEARNER_PARAMS = {
    "tree": {"max_depth": 10},
    "adaboost": {"n_estimators": 10, "weak_learner_depth": 1},
}


@dataclass(frozen=True)
class BenchConfig:
    suite: str = "checkerboard"
    methods: tuple = ("rand-under", "easy", "cascade", "spe")
    learner: str = "tree"
    learner_params: dict | None = None
    n_estimators: int = 10
    k_bins: int = 20
    hardness: str = "absolute"
    keep_fp_rate: float | None = None
    alpha_cap: float = DEFAULT_ALPHA_CAP
    repeats: int = 10
    seed: int = 0
    cov: float = 0.1
    n_minority: int = 1000
    n_majority: int = 10000

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; valid: {' | '.join(SUITES)}")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(
                    f"unknown method {method!r}; valid: {' | '.join(METHODS)}"
                )
        if int(self.repeats) < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def learner_spec(self) -> LearnerSpec:
        params = self.learner_params
        if params is None:
            params = _DEFAULT_LEARNER_PARAMS.get(self.learner, {})
        return LearnerSpec(self.learner, dict(params))


@dataclass(frozen=True)
class ResultRow:
    """One aggregated benchmark cell.

    `param_name`/`param_value` carry the sweep key (None for the plain
    checkerboard suite). `values` holds the per-repeat results; `errors`
    records repeats that failed, without stopping the suite.
    """

    method: str
    learner: str
    metric: str
    mean: float
    std: float
    param_name: str | None = None
    param_value: float | None = None
    values: tuple = ()
    errors: tuple = ()


def _dataset_pair(config: BenchConfig, cov: float, repeat: int):
    train_spec = CheckerboardSpec(
        cov_scale=cov,
        n_minority=config.n_minority,
        n_majority=config.n_majority,
        seed=derive_seed(config.seed, "train-data", repeat),
    )
    test_spec = CheckerboardSpec(
        cov_scale=cov,
        n_minority=config.n_minority,
        n_majority=config.n_majority,
        seed=derive_seed(config.seed, "test-data", repeat),
    )
    return generate_checkerboard(train_spec), generate_checkerboard(test_spec)


def _fit_and_score(config: BenchConfig, method: str, train, test, repeat: int) -> dict:
    model = fit_method(
        train,
        method,
        base_learner=config.learner_spec(),
        n_estimators=config.n_estimators,
        k_bins=config.k_bins,
        hardness=config.hardness,
        alpha_cap=config.alpha_cap,
        keep_fp_rate=config.keep_fp_rate,
        seed=derive_seed(config.seed, "fit", repeat),
    )
    return metric_report(test.labels, model.predict_proba(test.features))


def _aggregate(config, method, metric, values, errors, param_name=None, param_value=None):
    return ResultRow(
        method=method,
        learner=config.learner,
        metric=metric,
        mean=float(np.mean(values)) if values else float("nan"),
        std=float(np.std(values)) if values else float("nan"),
        param_name=param_name,
        param_value=param_value,
        values=tuple(values),
        errors=tuple(errors),
    )


def _run_cells(config: BenchConfig, datasets, param_name=None, param_value=None):
    """Aggregate every configured method over the given (train, test) pairs."""
    rows = []
    metrics = CHECKERBOARD_METRICS if param_name is None else ("aucprc",)
    for method in config.methods:
        collected = {metric: [] for metric in metrics}
        errors = []
        for repeat, (train, test) in enumerate(datasets):
            try:
                result = _fit_and_score(config, method, train, test, repeat)
            except Exception as exc:
                errors.append(f"repeat {repeat}: {exc}")
                continue
            for metric in metrics:
                collected[metric].append(result[metric])
        for metric in metrics:
            rows.append(
                _aggregate(
                    config, method, metric, collected[metric], errors,
                    param_name, param_value,
                )
            )
    return rows


def run_suite(config: BenchConfig):
    """Run a benchmark suite and return its aggregated rows."""
    if config.suite == "checkerboard":
        datasets = [
            _dataset_pair(config, config.cov, r) for r in range(config.repeats)
        ]
        return _run_cells(config, datasets)

    if config.suite == "overlap-sweep":
        rows = []
        for cov in OVERLAP_COVS:
            datasets = [_dataset_pair(config, cov, r) for r in range(config.repeats)]
            rows.extend(_run_cells(config, datasets, "cov", cov))
        return rows

    # missing-sweep: one clean pair per repeat, corrupted at each ratio so the
    # sweep is paired across ratios.
    base = [_dataset_pair(config, config.cov, r) for r in range(config.repeats)]
    rng = RandomSource(config.seed)
    rows = []
    for ratio in MISSING_RATIOS:
        datasets = []
        for repeat, (train, test) in enumerate(base):
            datasets.append(
                (
                    corrupt_missing(train, ratio, rng.child(f"corrupt-train:{ratio}", repeat)),
                    corrupt_missing(test, ratio, rng.child(f"corrupt-test:{ratio}", repeat)),
                )
            )
        rows.extend(_run_cells(config, datasets, "missing_ratio", ratio))
    return rows


def _format_real(value: float) -> str:
    return repr(float(value))


def write_results(rows, output_dir, config: BenchConfig):
    """Write results.csv and its JSON mirror; returns their paths.

    The CSV header is method,learner,metric,mean,std; sweep suites prepend
    their sweep key as the first column.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = output_dir / "results.csv"
    json_path = output_dir / "results.json"

    param_name = rows[0].param_name if rows else None
    header = ["method", "learner", "metric", "mean", "std"]
    if param_name is not None:
        header = [param_name] + header
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            record = [
                row.method,
                row.learner,
                row.metric,
                _format_real(row.mean),
                _format_real(row.std),
            ]
            if param_name is not None:
                record = [_format_real(row.param_value)] + record
            writer.writerow(record)

    doc = {
        "suite": config.suite,
        "config": asdict(config),
        "rows": [asdict(row) for row in rows],
    }
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    return csv_path, json_path
