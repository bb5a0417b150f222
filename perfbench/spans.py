"""Spans around calls into the package, recorded from the benchmark's side.

`Tracer.install` replaces each traced public function where its caller looks
it up (a module global, a class attribute or a dispatch table) with a
wrapper that records a span: name, start, end, parent span and phase. The
package itself carries no tracing code. Spans stay in memory until
`write_jsonl` at the end of the run.
"""
from __future__ import annotations

import functools
import json
import os
from time import perf_counter

import numpy as np


def _rows_of_second_arg(args, kwargs, result):
    return 1 if np.ndim(args[1]) == 1 else len(args[1])


def _rows_of_first_arg(args, kwargs, result):
    return len(args[0])


def _rows_loaded(args, kwargs, result):
    return result.data.n_samples


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[1])


def _targets():
    """(span name, owner, attribute, count hook) for every traced entry point.

    An owner is a module, a class or a dict, and the attribute is looked up
    on it at call time by the code that calls it.
    """
    import selfpaced.bench as bench
    import selfpaced.cli as cli
    import selfpaced.core as core
    import selfpaced.data as data
    import selfpaced.ensembles as ensembles
    import selfpaced.hardness as hardness
    import selfpaced.learners as learners
    import selfpaced.metrics as metrics

    targets = [
        ("learners.tree_fit", learners.DecisionTreeClassifier, "fit", _rows_of_second_arg),
        ("learners.tree_predict", learners.DecisionTreeClassifier, "predict_proba",
         _rows_of_second_arg),
        ("core.ensemble_predict", core.MeanScorer, "predict_proba", None),
        ("core.subset", core.Dataset, "subset", None),
        ("sampling.partition_bins", ensembles, "partition_bins", _rows_of_first_arg),
        ("bench.run_suite", cli, "run_suite", None),
        ("bench.write_results", cli, "write_results", None),
        ("cli.predict", cli._DISPATCH, "predict", None),
    ]
    targets += [("hardness", hardness.HARDNESS_FUNCTIONS, key, None)
                for key in hardness.HARDNESS_FUNCTIONS]
    targets += [("sampling.draw", ensembles, name, None) for name in (
        "self_paced_alpha", "bin_sampling_weights", "self_paced_undersample",
        "draw_undersample", "random_undersample", "random_oversample")]
    targets += [("ensembles.fit", ensembles, name, None)
                for name in ("spe_fit", "easy_fit", "cascade_fit", "fit_method")]
    targets += [("ensembles.fit", owner, "fit_method", None) for owner in (bench, cli)]
    for owner in (ensembles, cli):
        targets.append(("ensembles.load_model", owner, "load_model", None))
        targets.append(("ensembles.save_model", owner, "save_model", _bytes_written))
    for owner in (metrics, bench, cli):
        targets.append(("metrics.aucprc", owner, "aucprc", _rows_of_first_arg))
    for owner in (data, bench, cli):
        targets.append(("data.generate_checkerboard", owner, "generate_checkerboard", None))
    for owner in (data, cli):
        targets.append(("data.load_csv", owner, "load_csv", _rows_loaded))
        targets.append(("data.save_csv", owner, "save_csv", None))
    return targets


# (metric, span name, statistic). "time" sums span durations, "self" sums
# durations minus the time covered by child spans, "calls" counts spans and
# "count" sums the count hook's values.
LAYER_METRICS = (
    ("learners.tree_fit_s", "learners.tree_fit", "time"),
    ("learners.tree_fit_rows", "learners.tree_fit", "count"),
    ("learners.tree_predict_s", "learners.tree_predict", "time"),
    ("learners.tree_predict_calls", "learners.tree_predict", "calls"),
    ("learners.tree_predict_rows", "learners.tree_predict", "count"),
    ("core.ensemble_predict_self_s", "core.ensemble_predict", "self"),
    ("core.subset_s", "core.subset", "time"),
    ("hardness.s", "hardness", "time"),
    ("sampling.partition_bins_s", "sampling.partition_bins", "time"),
    ("sampling.partition_bins_rows", "sampling.partition_bins", "count"),
    ("sampling.draw_s", "sampling.draw", "time"),
    ("ensembles.fit_self_s", "ensembles.fit", "self"),
    ("ensembles.load_model_s", "ensembles.load_model", "time"),
    ("ensembles.save_model_s", "ensembles.save_model", "time"),
    ("ensembles.model_bytes", "ensembles.save_model", "count"),
    ("metrics.aucprc_s", "metrics.aucprc", "time"),
    ("metrics.aucprc_rows", "metrics.aucprc", "count"),
    ("data.generate_checkerboard_s", "data.generate_checkerboard", "time"),
    ("data.load_csv_s", "data.load_csv", "time"),
    ("data.load_csv_rows", "data.load_csv", "count"),
    ("data.save_csv_s", "data.save_csv", "time"),
    ("bench.run_suite_self_s", "bench.run_suite", "self"),
    ("bench.write_results_s", "bench.write_results", "time"),
    ("cli.predict_self_s", "cli.predict", "self"),
)
# Counted from the public JSON documents of the models fitted, not from spans.
TREE_NODES = "learners.tree_nodes"


def _unit(metric):
    if metric.endswith(("_s", ".s")):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def count_tree_nodes(doc) -> int:
    """Nodes in every tree of a model or learner JSON document."""
    if isinstance(doc, dict):
        own = 1 if ("threshold" in doc or "probability" in doc) else 0
        return own + sum(count_tree_nodes(value) for value in doc.values())
    if isinstance(doc, list):
        return sum(count_tree_nodes(value) for value in doc)
    return 0


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        # Each span: [id, name, start, end, parent id, phase, count].
        self.spans = []
        self._open = []
        self._origin = perf_counter()
        self.phase = "setup"
        # Models returned by outermost fit spans: (phase, model).
        self.fitted = []

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            span = [len(tracer.spans), name, 0.0, 0.0,
                    None if parent is None else parent[0], tracer.phase, None]
            tracer.spans.append(span)
            tracer._open.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._open.pop()
            if count is not None:
                span[6] = count(args, kwargs, result)
            if name == "ensembles.fit" and not any(s[1] == name for s in tracer._open):
                tracer.fitted.append((tracer.phase, result))
            return result

        return traced

    def install(self):
        for name, owner, attr, count in _targets():
            if isinstance(owner, dict):
                owner[attr] = self._wrap(name, owner[attr], count)
            else:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), count))
        return self

    def _self_times(self):
        self_time = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[4] is not None:
                self_time[span[4]] -= span[3] - span[2]
        return self_time

    def self_time_per_op(self, n_ops):
        """Self time of each span name during the operations, per operation."""
        totals = {}
        for span, own in zip(self.spans, self._self_times()):
            if span[5] == "op":
                totals[span[1]] = totals.get(span[1], 0.0) + own / n_ops
        return totals

    def layer_metrics(self, n_setups, n_ops, model_to_doc):
        """Per-layer metrics, per operation.

        A layer that does no work during the operations (it runs only while
        setting up) is reported per set-up instead; one that runs in neither
        reads 0.
        """
        stats = {}
        for span, own in zip(self.spans, self._self_times()):
            key = (span[1], span[5])
            acc = stats.setdefault(key, {"time": 0.0, "self": 0.0, "calls": 0, "count": 0})
            acc["time"] += span[3] - span[2]
            acc["self"] += own
            acc["calls"] += 1
            acc["count"] += span[6] or 0
        metrics = {}
        for metric, name, statistic in LAYER_METRICS:
            if (name, "op") in stats:
                value = stats[(name, "op")][statistic] / n_ops
            elif (name, "setup") in stats:
                value = stats[(name, "setup")][statistic] / n_setups
            else:
                value = 0
            metrics[metric] = {"value": value, "unit": _unit(metric)}
        nodes = sum(count_tree_nodes(model_to_doc(model))
                    for phase, model in self.fitted if phase == "op")
        metrics[TREE_NODES] = {"value": nodes / n_ops, "unit": "count"}
        return metrics

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, phase, count in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent, "phase": phase,
                    "start": start - self._origin, "end": end - self._origin,
                    "count": count,
                }) + "\n")
