"""The three benchmark workloads.

Each workload sets up its inputs from the seed, then repeats one operation:
a training step, a batch scoring step, a CLI `predict` and single-row
scoring. The workloads differ in how big each step is, so that each layer of
the package does most of its work in one workload and little in another:

- spe-massive: `spe_fit` on about 500 minority against 500,000 majority rows,
  where hardness scoring, binning and batch predict dominate.
- bench-suite: the default `selfpaced bench` suite through `cli.main`, where
  tree fit on 2000-row bags dominates.
- cli-serve: CLI `train` and `predict` on a board CSV, and single rows, where
  CSV and model-JSON I/O and one-row predict latency dominate.

Every round of a run does the same work on the same inputs, so outputs
must repeat bit for bit between rounds. `finish` checks them against
properties and the independent oracles in `oracles.py`.

The package is reached through module attributes at call time
(`ensembles.spe_fit`, not a name imported once), so the traced run sees
every call the untraced run makes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
from time import perf_counter, perf_counter_ns

import numpy as np

import selfpaced.cli as cli
import selfpaced.data as data
import selfpaced.ensembles as ensembles
import selfpaced.metrics as metrics
from selfpaced.core import RandomSource, derive_seed
from selfpaced.learners import LearnerSpec

from oracles import average_precision, bayes_posterior

TREE = LearnerSpec("tree", {"max_depth": 10})
SPE = {"n_estimators": 10, "k_bins": 20, "hardness": "absolute"}
GRID = 4
COV = 0.1


def run_cli(argv) -> str:
    """Call the CLI in-process; return its stdout or raise on a non-zero exit."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        raise RuntimeError(f"selfpaced {argv[0]} exited with status {exc.code}") from None
    if status != 0:
        raise RuntimeError(f"selfpaced {argv[0]} returned status {status}")
    return out.getvalue()


def read_scores(path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if lines[0] != "score":
        raise ValueError(f"{path}: expected a score header, got {lines[0]!r}")
    return np.array([float(line) for line in lines[1:]], dtype=np.float64)


def board(n_minority, n_majority, seed):
    spec = data.CheckerboardSpec(cov_scale=COV, n_minority=n_minority,
                                 n_majority=n_majority, seed=seed, grid_size=GRID)
    return data.generate_checkerboard(spec)


def bayes_ap(dataset, n_minority, n_majority):
    posterior = bayes_posterior(dataset.features, COV, n_minority, n_majority, GRID)
    return average_precision(dataset.labels, posterior)


def sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def time_single_rows(model, features, rows):
    """One-row predict_proba on each listed row: (scores, times in ns)."""
    scores = np.empty(len(rows), dtype=np.float64)
    times = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        x = features[row]
        start = perf_counter_ns()
        scores[i] = model.predict_proba(x)
        times[i] = perf_counter_ns() - start
    return scores, times


def serve(model, features, rows, model_path, csv_path, out_path, cli_reps, save=True):
    """Save the model, CLI-predict the CSV `cli_reps` times, then score `rows` singly."""
    if save:
        ensembles.save_model(model, model_path)
    cli_s = []
    for _ in range(cli_reps):
        start = perf_counter()
        run_cli(["predict", "--model", model_path, "--data", csv_path, "--output", out_path])
        cli_s.append(perf_counter() - start)
    single_scores, single_ns = time_single_rows(model, features, rows)
    return {"cli_s": cli_s, "cli_scores": read_scores(out_path),
            "single_scores": single_scores, "single_ns": single_ns}


def single_row_rows(n_rows, per_op, index):
    """The rows one operation scores singly: a window that walks the rows."""
    return (np.arange(per_op) + index * per_op) % n_rows


def median_of(ops, key):
    """Median over every sample of `key` in every operation."""
    return statistics.median(x for op in ops for x in np.atleast_1d(op[key]))


def latency_metrics(ops):
    """Short calls: CLI predict and one-row predict_proba.

    Their times come in bursts at two speeds on a shared host, and the
    median of such a mix jumps between the two when the mix is near even.
    The mean moves only in proportion, so it is the gated centre.
    """
    ms = np.concatenate([op["single_ns"] for op in ops]) / 1e6
    cli_s = [x for op in ops for x in op["cli_s"]]
    return {
        "cli_predict_s": statistics.fmean(cli_s),
        "predict_1row_ms_mean": float(ms.mean()),
        "predict_1row_ms_p90": float(np.percentile(ms, 90)),
        "cli_predict_s_median": statistics.median(cli_s),
        "predict_1row_ms_p50": float(np.percentile(ms, 50)),
        "predict_1row_ms_p99": float(np.percentile(ms, 99)),
        "predict_1row_samples": int(ms.size),
    }


class Checks:
    """Collects failed checks as readable lines."""

    def __init__(self):
        self.problems = []

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)

    def scores(self, scores, n_rows, what):
        self.expect(scores.shape == (n_rows,), f"{what}: {scores.shape} scores for {n_rows} rows")
        self.expect(bool(np.isfinite(scores).all()), f"{what}: non-finite scores")
        self.expect(bool(((scores >= 0) & (scores <= 1)).all()), f"{what}: scores outside [0, 1]")

    def equal(self, a, b, what):
        self.expect(a.shape == b.shape and a.tobytes() == b.tobytes(),
                    f"{what}: scores differ bit for bit")

    def repeat(self, ops, key, what):
        first = ops[0][key]
        self.expect(all(op[key] == first for op in ops), f"{what} differs between operations")

    def aucprc(self, value, labels, scores, bayes, what):
        oracle = average_precision(labels, scores)
        self.expect(abs(value - oracle) <= 1e-9, f"{what}: aucprc {value!r} != oracle {oracle!r}")
        prevalence = float(np.mean(np.asarray(labels) == 1))
        self.expect(prevalence < value < bayes,
                    f"{what}: aucprc {value:.4f} not between prevalence "
                    f"{prevalence:.4f} and Bayes {bayes:.4f}")


class SpeMassive:
    """spe_fit on massive, highly skewed boards, then scoring boards like them.

    One round is CELLS independent cells, each with its own training board,
    test board and fit seed. One cell's test AUCPRC swings by about a quarter
    between seeds at this imbalance, so the reported AUCPRC is the mean over
    the cells.
    """

    name = "spe-massive"
    CELLS = 8
    CLI_REPS = 4

    def __init__(self, smoke):
        self.n_minority, self.n_majority = (50, 5000) if smoke else (500, 500_000)
        self.n_serve = 200 if smoke else 2000
        self.singles_per_op = 20 if smoke else 80
        self.round_ops, self.min_rounds = self.CELLS, 1

    def setup(self, seed, workdir):
        cells = []
        for cell in range(self.CELLS):
            train = board(self.n_minority, self.n_majority,
                          derive_seed(seed, "spe-massive-train", cell))
            test = board(self.n_minority, self.n_majority,
                         derive_seed(seed, "spe-massive-test", cell))
            # Rows spread evenly over the test board, so both classes are served.
            serve_rows = np.linspace(0, test.n_samples - 1, self.n_serve).astype(np.int64)
            serve_csv = workdir / f"serve-{cell}.csv"
            data.save_csv(test.subset(serve_rows), serve_csv)
            cells.append({"train": train, "test": test, "serve_rows": serve_rows,
                          "serve_csv": serve_csv,
                          "fit_seed": derive_seed(seed, "spe-massive-fit", cell)})
        return {"cells": cells, "workdir": workdir}

    def fit(self, cell, log=None):
        config = ensembles.SpeConfig(base_learner=TREE, seed=cell["fit_seed"], **SPE)
        return ensembles.spe_fit(cell["train"], config, log=log)

    def op(self, state, index):
        cell = state["cells"][index % self.CELLS]
        test = cell["test"]
        log = []
        t0 = perf_counter()
        model = self.fit(cell, log)
        t1 = perf_counter()
        scores = model.predict_proba(test.features)
        t2 = perf_counter()
        ap = metrics.aucprc(test.labels, scores)
        t3 = perf_counter()
        serve_features = test.features[cell["serve_rows"]]
        rows = single_row_rows(self.n_serve, self.singles_per_op, index // self.CELLS)
        workdir = state["workdir"]
        result = serve(model, serve_features, rows, workdir / "model.json",
                       cell["serve_csv"], workdir / "scores.csv", self.CLI_REPS)
        result.update(cell=index % self.CELLS, fit_s=t1 - t0, score_s=t2 - t1,
                      cell_s=t3 - t0, aucprc=ap, scores_sha=sha256(scores), rows=rows,
                      log=log, served=scores[cell["serve_rows"]])
        if index < self.CELLS:
            result.update(scores=scores, model=model)
        return result

    def finish(self, state, ops):
        check = Checks()
        firsts = ops[:self.CELLS]
        for op in ops:
            check.expect(len(op["log"]) == SPE["n_estimators"] + 1
                         and all(e.n_minority == e.n_majority for e in op["log"]),
                         "a bag is not exactly balanced")
            check.expect(op["scores_sha"] == firsts[op["cell"]]["scores_sha"],
                         f"cell {op['cell']}: a refit gave other test scores")
            check.equal(op["cli_scores"], op["served"], "CLI predict vs batch predict")
            check.equal(op["single_scores"], op["served"][op["rows"]], "single rows vs batch")
        bayes_aps = []
        for cell, op in zip(state["cells"], firsts):
            test = cell["test"]
            doc = ensembles.model_to_doc(op["model"])
            leaf_rows = [_leaf_rows(member["root"]) for member in doc["members"]]
            check.expect(all(n == 2 * self.n_minority for n in leaf_rows),
                         f"trees were fit on {leaf_rows} rows, expected {2 * self.n_minority}")
            check.scores(op["scores"], test.n_samples, f"test board {op['cell']}")
            bayes_aps.append(bayes_ap(test, self.n_minority, self.n_majority))
            check.aucprc(op["aucprc"], test.labels, op["scores"], bayes_aps[-1],
                         f"test board {op['cell']}")
        # Each cell is fit once per round; refit the first so that a one-round
        # run also shows a refit with the same seed.
        cell = state["cells"][0]
        check.equal(self.fit(cell).predict_proba(cell["test"].features), firsts[0]["scores"],
                    "a refit with the same seed")
        n_test = state["cells"][0]["test"].n_samples
        out = {
            "fit_s": median_of(ops, "fit_s"),
            "score_rows_per_s": n_test / median_of(ops, "score_s"),
            "cells_per_s": 1.0 / median_of(ops, "cell_s"),
            "aucprc": statistics.fmean(op["aucprc"] for op in firsts),
            "bayes_aucprc": statistics.fmean(bayes_aps),
            "prevalence": self.n_minority / (self.n_minority + self.n_majority),
        }
        out.update(latency_metrics(ops))
        return out, check.problems, sha256(np.concatenate([op["scores"] for op in firsts]))


def _leaf_rows(node):
    if "probability" in node:
        return node["count"]
    return _leaf_rows(node["left"]) + _leaf_rows(node["right"])


class BenchSuite:
    """The default `selfpaced bench` suite, plus one of its cells redone by hand."""

    name = "bench-suite"
    REPEAT = 0  # the repeat whose spe cell is recomputed through public functions
    FIT_REPS = 3
    SCORE_REPS = 5
    CLI_REPS = 5

    def __init__(self, smoke):
        self.n_minority, self.n_majority = (100, 1000) if smoke else (1000, 10000)
        self.size_args = ["--repeats", "2", "--n-minority", "100", "--n-majority", "1000"] \
            if smoke else []
        self.singles_per_op = 20 if smoke else 250
        self.round_ops, self.min_rounds = 1, 2

    def setup(self, seed, workdir):
        train = board(self.n_minority, self.n_majority,
                      derive_seed(seed, "train-data", self.REPEAT))
        test = board(self.n_minority, self.n_majority,
                     derive_seed(seed, "test-data", self.REPEAT))
        test_csv = workdir / "test.csv"
        data.save_csv(test, test_csv)
        # A one-repeat suite on a small board warms every code path a suite
        # call takes, so that set-up time is work rather than import time.
        run_cli(["bench", "--repeats", 1, "--n-minority", 50, "--n-majority", 500,
                 "--seed", seed, "--output", workdir / "warm-up"])
        return {"seed": seed, "train": train, "test": test, "test_csv": test_csv,
                "workdir": workdir}

    def op(self, state, index):
        seed, train, test, workdir = state["seed"], state["train"], state["test"], state["workdir"]
        out_dir = workdir / f"suite-{index}"
        t0 = perf_counter()
        run_cli(["bench", "--seed", seed, "--output", out_dir, *self.size_args])
        t1 = perf_counter()
        fit_s = []
        for _ in range(self.FIT_REPS):
            start = perf_counter()
            model = ensembles.fit_method(train, "spe", base_learner=TREE, seed=derive_seed(
                seed, "fit", self.REPEAT), **SPE)
            fit_s.append(perf_counter() - start)
        score_s = []
        for _ in range(self.SCORE_REPS):
            start = perf_counter()
            scores = model.predict_proba(test.features)
            score_s.append(perf_counter() - start)
        rows = single_row_rows(test.n_samples, self.singles_per_op, index)
        result = serve(model, test.features, rows, workdir / "model.json",
                       state["test_csv"], workdir / "scores.csv", self.CLI_REPS)
        csv_bytes = (out_dir / "results.csv").read_bytes()
        doc = json.loads((out_dir / "results.json").read_text(encoding="utf-8"))
        result.update(suite_s=t1 - t0, fit_s=fit_s, score_s=score_s, rows=rows,
                      scores=scores, results_sha=hashlib.sha256(csv_bytes).hexdigest(),
                      doc=doc)
        return result

    def finish(self, state, ops):
        test = state["test"]
        first = ops[0]
        doc = first["doc"]
        check = Checks()
        check.repeat(ops, "results_sha", "results.csv")
        rows = doc["rows"]
        check.expect(not any(row["errors"] for row in rows), "the suite recorded errors")
        check.expect(all(0.0 <= row["mean"] <= 1.0 for row in rows), "a mean outside [0, 1]")
        aucprc_mean = {row["method"]: row["mean"] for row in rows if row["metric"] == "aucprc"}
        check.expect(aucprc_mean["spe"] > aucprc_mean["rand-under"],
                     f"spe {aucprc_mean['spe']:.4f} <= rand-under {aucprc_mean['rand-under']:.4f}")
        spe_values = next(row["values"] for row in rows
                          if row["method"] == "spe" and row["metric"] == "aucprc")
        for op in ops:
            check.scores(op["scores"], test.n_samples, "recomputed cell")
            check.equal(op["scores"], first["scores"], "recomputed cell between operations")
            check.equal(op["cli_scores"], op["scores"], "CLI predict vs batch predict")
            check.equal(op["single_scores"], op["scores"][op["rows"]], "single rows vs batch")
        redone = average_precision(test.labels, first["scores"])
        check.expect(abs(redone - spe_values[self.REPEAT]) <= 1e-9,
                     f"spe repeat {self.REPEAT}: suite {spe_values[self.REPEAT]!r} "
                     f"!= recomputed {redone!r}")
        cells = len(doc["config"]["methods"]) * doc["config"]["repeats"]
        out = {
            "fit_s": median_of(ops, "fit_s"),
            "score_rows_per_s": test.n_samples / median_of(ops, "score_s"),
            "cells_per_s": cells / median_of(ops, "suite_s"),
            "aucprc": aucprc_mean["spe"],
            "bayes_aucprc": bayes_ap(test, self.n_minority, self.n_majority),
            "prevalence": self.n_minority / (self.n_minority + self.n_majority),
        }
        out.update(latency_metrics(ops))
        return out, check.problems, sha256(first["scores"])


class CliServe:
    """CLI train and predict on board CSVs, then single-row scoring.

    One round is CELLS cells, each a board CSV of its own. One board's test
    AUCPRC swings by about a tenth between seeds, so the reported AUCPRC is
    the mean of `eval` over the cells.
    """

    name = "cli-serve"
    CELLS = 10
    FRACTIONS = (0.6, 0.2, 0.2)

    def __init__(self, smoke):
        self.n_minority, self.n_majority = (100, 1000) if smoke else (1000, 10000)
        self.cells = 2 if smoke else self.CELLS
        self.singles_per_op = 20 if smoke else 100
        self.round_ops, self.min_rounds = self.cells, 1

    def setup(self, seed, workdir):
        cells = []
        for cell in range(self.cells):
            csv_path = workdir / f"board-{cell}.csv"
            run_cli(["generate", "--seed", derive_seed(seed, "cli-serve-board", cell),
                     "--n-minority", self.n_minority, "--n-majority", self.n_majority,
                     "--cov", COV, "--output", csv_path])
            loaded = data.load_csv(csv_path).data
            # The CLI carves its split from --seed; the benchmark redoes it
            # through the public split function to know which rows were held out.
            _, _, test = metrics.stratified_split(loaded, self.FRACTIONS,
                                                  RandomSource(seed).child("split"))
            position = {row.tobytes(): i for i, row in enumerate(loaded.features)}
            cells.append({"csv": csv_path, "model": workdir / f"model-{cell}.json",
                          "features": loaded.features, "labels": loaded.labels, "test": test,
                          "held_out": np.array([position[row.tobytes()]
                                                for row in test.features])})
        state = {"seed": seed, "cells": cells, "workdir": workdir}
        run_cli(self.train_args(state, cells[0]))
        state["setup_model_sha"] = hashlib.sha256(cells[0]["model"].read_bytes()).hexdigest()
        return state

    def train_args(self, state, cell):
        return ["train", "--data", cell["csv"], "--seed", state["seed"],
                "--output", cell["model"]]

    def op(self, state, index):
        cell = state["cells"][index % self.cells]
        features = cell["features"]
        t0 = perf_counter()
        run_cli(self.train_args(state, cell))
        t1 = perf_counter()
        model = ensembles.load_model(cell["model"])
        t2 = perf_counter()
        scores = model.predict_proba(features)
        t3 = perf_counter()
        held_out = cell["held_out"]
        rows = held_out[single_row_rows(held_out.size, self.singles_per_op,
                                        index // self.cells)]
        result = serve(model, features, rows, cell["model"], cell["csv"],
                       state["workdir"] / "scores.csv", 1, save=False)
        result.update(cell=index % self.cells, fit_s=t1 - t0, score_s=t3 - t2, rows=rows,
                      scores=scores, cell_s=t1 - t0 + result["cli_s"][0],
                      model_sha=hashlib.sha256(cell["model"].read_bytes()).hexdigest())
        return result

    def finish(self, state, ops):
        check = Checks()
        firsts = ops[:self.cells]
        check.expect(firsts[0]["model_sha"] == state["setup_model_sha"],
                     "train wrote another model than at set-up")
        for op in ops:
            first = firsts[op["cell"]]
            check.expect(op["model_sha"] == first["model_sha"],
                         f"cell {op['cell']}: train wrote another model")
            check.scores(op["scores"], len(first["scores"]), "board CSV")
            check.equal(op["cli_scores"], op["scores"], "CLI predict vs in-process predict")
            check.equal(op["single_scores"], op["scores"][op["rows"]], "single rows vs batch")
            check.equal(op["scores"], first["scores"], "board scores between operations")
        aps, bayes_aps = [], []
        for cell in state["cells"]:
            report = json.loads(run_cli(["eval", "--model", cell["model"], "--data",
                                         cell["csv"], "--seed", state["seed"]]))
            test = cell["test"]
            test_scores = ensembles.load_model(cell["model"]).predict_proba(test.features)
            bayes_aps.append(bayes_ap(test, self.n_minority, self.n_majority))
            check.aucprc(report["aucprc"], test.labels, test_scores, bayes_aps[-1],
                         f"eval on the test split of {cell['csv'].name}")
            aps.append(report["aucprc"])
        n_rows = len(state["cells"][0]["labels"])
        out = {
            "fit_s": median_of(ops, "fit_s"),
            "score_rows_per_s": n_rows / median_of(ops, "score_s"),
            "cells_per_s": 1.0 / median_of(ops, "cell_s"),
            "aucprc": statistics.fmean(aps),
            "bayes_aucprc": statistics.fmean(bayes_aps),
            "prevalence": self.n_minority / (self.n_minority + self.n_majority),
        }
        out.update(latency_metrics(ops))
        return out, check.problems, sha256(np.concatenate([op["cli_scores"] for op in firsts]))


WORKLOADS = {cls.name: cls for cls in (SpeMassive, BenchSuite, CliServe)}
