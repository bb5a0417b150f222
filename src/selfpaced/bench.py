"""Benchmark suites over the synthetic checkerboard: method comparison,
class-overlap sweep, and missing-value sweep.

Every repeat draws an independent training and test set from the same spec,
trains each method on the training set, and scores the test set. Rows carry
mean and standard deviation over repeats; per-repeat values live in the JSON
mirror. All randomness derives from the suite seed, so a rerun with the same
configuration is byte-identical. The cells of a sweep point (method x
repeat) are independent, so they run on a forked process pool with one
worker per CPU this process may use; the rows do not depend on the count.
"""
from __future__ import annotations

import csv
import json
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import RandomSource, _real, _whole, derive_seed
from .data import CheckerboardSpec, corrupt_missing, generate_checkerboard
from .ensembles import METHODS, SpeConfig, fit_method
from .learners import LearnerSpec
# `aucprc` stays a name of this module: perfbench/spans.py wraps it here.
from .metrics import aucprc, metric_report

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

@dataclass(frozen=True)
class BenchConfig(SpeConfig):
    """The trainer settings of `SpeConfig` plus the suite's own.

    `seed` is the suite seed: each repeat draws its boards and fits its
    models with seeds derived from it. The board shape takes its defaults
    and its checks from `CheckerboardSpec`.
    """

    suite: str = "checkerboard"
    methods: tuple = ("rand-under", "easy", "cascade", "spe")
    repeats: int = 10
    cov: float = CheckerboardSpec.cov_scale
    n_minority: int = CheckerboardSpec.n_minority
    n_majority: int = CheckerboardSpec.n_majority

    def __post_init__(self):
        super().__post_init__()
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; valid: {' | '.join(SUITES)}")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        for i, method in enumerate(self.methods):
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}; valid: {' | '.join(METHODS)}")
            if method in self.methods[:i]:
                raise ValueError(f"method {method!r} is listed twice")
        _whole(self, "repeats", 1)
        CheckerboardSpec(cov_scale=_real(self, "cov"), n_minority=_whole(self, "n_minority"),
                         n_majority=_whole(self, "n_majority"))
        # results.json records the learner by name and parameters.
        if not isinstance(self.base_learner, LearnerSpec):
            raise ValueError(
                f"bench needs a named base learner (a LearnerSpec), "
                f"got {type(self.base_learner).__name__}"
            )


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
    spec = CheckerboardSpec(cov_scale=cov, n_minority=config.n_minority,
                            n_majority=config.n_majority)
    return tuple(
        generate_checkerboard(replace(spec, seed=derive_seed(config.seed, part, repeat)))
        for part in ("train-data", "test-data")
    )


def _fit_and_score(config: BenchConfig, method: str, train, test, repeat: int) -> dict:
    trainer = {f.name: getattr(config, f.name) for f in fields(SpeConfig)}
    trainer["seed"] = derive_seed(config.seed, "fit", repeat)
    model = fit_method(train, method, **trainer)
    return metric_report(test.labels, model.predict_proba(test.features))


def _sweep_points(config: BenchConfig):
    """Yield (sweep key, value, one (train, test) pair per repeat) per point.

    The checkerboard suite is one point with no sweep key. A point's boards
    are built when the point is reached.
    """
    repeats = range(config.repeats)
    if config.suite == "checkerboard":
        yield None, None, [_dataset_pair(config, config.cov, r) for r in repeats]
    elif config.suite == "overlap-sweep":
        for cov in OVERLAP_COVS:
            yield "cov", cov, [_dataset_pair(config, cov, r) for r in repeats]
    else:
        # One clean pair per repeat, corrupted at each ratio, so the sweep is
        # paired across ratios.
        clean = [_dataset_pair(config, config.cov, r) for r in repeats]
        rng = RandomSource(config.seed)
        for ratio in MISSING_RATIOS:
            yield "missing_ratio", ratio, [
                (corrupt_missing(train, ratio, rng.child(f"corrupt-train:{ratio}", r)),
                 corrupt_missing(test, ratio, rng.child(f"corrupt-test:{ratio}", r)))
                for r, (train, test) in enumerate(clean)
            ]


def _cell(config: BenchConfig, method: str, repeat: int, train, test):
    """One method fitted and scored on one repeat: (report, None) or (None, error)."""
    try:
        return _fit_and_score(config, method, train, test, repeat), None
    except Exception as exc:
        return None, f"repeat {repeat}: {exc}"


# The suite config and the point's (train, test) pairs in a pool worker. They
# are set only in the worker, at its start, and reach it through the fork, so
# they are never pickled: a task is just (method, repeat).
_worker_point = None


def _start_worker(config: BenchConfig, pairs):
    global _worker_point
    _worker_point = config, pairs


def _worker_cell(task):
    config, pairs = _worker_point
    method, repeat = task
    return _cell(config, method, repeat, *pairs[repeat])


def _workers(cells: int) -> int:
    """Pool size: one worker per CPU this process may run on, at most one per cell.

    1 where there is no fork or affinity mask, in a daemonic process, which
    may not start children, in a process with other threads, which a fork
    would copy in whatever state they hold, and where this module's
    `fit_method` or `aucprc` is wrapped, as by a span tracer, which would not
    see the calls made in workers.
    """
    if (not hasattr(os, "sched_getaffinity") or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1
            or hasattr(fit_method, "__wrapped__") or hasattr(aucprc, "__wrapped__")):
        return 1
    return min(len(os.sched_getaffinity(0)), cells)


def _outcomes(config: BenchConfig, pairs):
    """Every cell's (report, error) at one point: method-major, then repeat."""
    tasks = [(method, repeat) for method in config.methods for repeat in range(len(pairs))]
    workers = _workers(len(tasks))
    if workers == 1:
        return [_cell(config, method, repeat, *pairs[repeat]) for method, repeat in tasks]
    # Fork, not spawn: workers inherit the imported package and the point's
    # boards, where spawn would import numpy and the package again in each.
    # A worker that dies raises BrokenProcessPool here, and leaving the
    # block joins every worker.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(config, pairs)) as pool:
        # One task per cell: a rand-under cell is far cheaper than a spe cell.
        return list(pool.map(_worker_cell, tasks))


def run_suite(config: BenchConfig):
    """Run a benchmark suite and return its aggregated rows.

    At every sweep point, each method is fitted and scored on each repeat's
    pair; a failed repeat is recorded in the rows' `errors` and skipped.
    Each point's cells run on a forked pool of `_workers` processes, started
    once the point's boards are built and gone before the next point; with
    one worker they run in this process.
    """
    rows = []
    for param_name, param_value, pairs in _sweep_points(config):
        metrics = CHECKERBOARD_METRICS if param_name is None else ("aucprc",)
        outcomes = iter(_outcomes(config, pairs))
        for method in config.methods:
            values = {metric: [] for metric in metrics}
            errors = []
            for _ in pairs:
                result, error = next(outcomes)
                if error is not None:
                    errors.append(error)
                    continue
                for metric in metrics:
                    values[metric].append(result[metric])
            for metric, got in values.items():
                stats = (float(np.mean(got)), float(np.std(got))) if got else (np.nan,) * 2
                rows.append(ResultRow(method, config.base_learner.name, metric, *stats,
                                      param_name, param_value, tuple(got), tuple(errors)))
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
