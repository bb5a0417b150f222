"""Acceptance suite: one test per shipped guarantee, printing one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured numbers
next to each criterion. The statistical criteria are deterministic: every
random draw descends from the fixed seeds below, so a pass or fail here is
reproducible bit for bit.
"""
import json
import multiprocessing
import time

import numpy as np
import pytest

from helpers import brute_force_aucprc, formula_confusion_scores, random_scored_instance
from selfpaced import bench
from selfpaced.bench import BenchConfig, run_suite, write_results
from selfpaced.cli import main
from selfpaced.core import RandomSource
from selfpaced.data import CheckerboardSpec, corrupt_missing, generate_checkerboard
from selfpaced.ensembles import SpeConfig, spe_fit
from selfpaced.learners import LearnerSpec
from selfpaced.metrics import ConfusionMatrix, aucprc, confusion_scores
from selfpaced.sampling import (
    bin_sampling_weights,
    partition_bins,
    self_paced_alpha,
    self_paced_undersample,
)


def bench_aucprc_rows(**overrides):
    """The test-AUCPRC result row per method for a checkerboard benchmark run."""
    config = BenchConfig(**overrides)
    rows = {}
    for row in run_suite(config):
        if row.metric == "aucprc":
            assert not row.errors, f"{row.method} had failing repeats: {row.errors}"
            rows[row.method] = row
    return rows


def bench_aucprc_means(**overrides):
    """Mean test AUCPRC per method for a checkerboard benchmark run."""
    return {method: row.mean for method, row in bench_aucprc_rows(**overrides).items()}


def report(line):
    print(f"\n{line}")


@pytest.fixture(scope="module")
def default_suite(tmp_path_factory):
    """One timed run of the default suite at seed 0, written as `bench` writes it.

    Criterion 1 reads its rows and time, criterion 8 its files.
    """
    start = time.perf_counter()
    config = BenchConfig(seed=0)
    rows = run_suite(config)
    elapsed = time.perf_counter() - start
    out_dir = tmp_path_factory.mktemp("default-suite")
    write_results(rows, out_dir, config)
    return config, rows, elapsed, out_dir


def test_criterion_1_checkerboard_ordering(default_suite):
    # Tree depth 10, n=10, k=20, absolute hardness, 10 paired seeds: the
    # default suite.
    config, rows, elapsed, _ = default_suite
    assert config == BenchConfig(
        suite="checkerboard",
        methods=("rand-under", "easy", "cascade", "spe"),
        base_learner=LearnerSpec("tree", {"max_depth": 10}),
        n_estimators=10, k_bins=20, hardness="absolute", repeats=10, seed=0,
    )
    means = {}
    for row in rows:
        if row.metric == "aucprc":
            assert not row.errors, f"{row.method} had failing repeats: {row.errors}"
            means[row.method] = row.mean
    ok = (
        0.47 <= means["spe"] <= 0.66
        and means["spe"] > means["easy"]
        and means["spe"] > means["cascade"]
        and means["spe"] > means["rand-under"]
        and means["rand-under"] < 0.35
        and elapsed < 120.0
    )
    detail = (
        f"spe={means['spe']:.4f} easy={means['easy']:.4f} "
        f"cascade={means['cascade']:.4f} rand-under={means['rand-under']:.4f} "
        f"({elapsed:.1f}s)"
    )
    report(f"criterion 1: {'PASS' if ok else 'FAIL'} - {detail}")
    assert 0.47 <= means["spe"] <= 0.66, detail
    assert means["spe"] > means["easy"], detail
    assert means["spe"] > means["cascade"], detail
    assert means["spe"] > means["rand-under"], detail
    assert means["rand-under"] < 0.35, detail
    assert elapsed < 120.0, detail


def test_criterion_2_boosted_stump_margin():
    # Self-paced under-sampling should lift a boosted base learner above both
    # training it on the full imbalanced set (`none`) and on one random
    # balanced bag (`rand-under`). Base learner: AdaBoost, 10 rounds over
    # depth-4 weak trees; 10 paired repeats (same data and fit seed per
    # repeat across methods).
    #
    # The name says "stump" for historical reasons: the criterion once used
    # depth-1 stumps, which cannot see this board. A vote over stumps is
    # additive across features, and every single-feature marginal of the 4x4
    # checkerboard is class-flat, so any stump ensemble scores at the
    # prevalence baseline (about 0.09 AUCPRC) whatever the resampling.
    # Depth 4 is the shallowest weak tree that can isolate an interior cell
    # of the board (a lower and an upper cut on each axis).
    depth = 4
    rows = bench_aucprc_rows(
        suite="checkerboard",
        methods=("none", "rand-under", "spe"),
        base_learner=LearnerSpec("adaboost", {"n_estimators": 10, "weak_learner_depth": depth}),
        repeats=10,
        seed=0,
    )
    spe, none, under = rows["spe"], rows["none"], rows["rand-under"]
    margin_none = spe.mean - none.mean
    margin_under = spe.mean - under.mean
    wins_none = sum(a > b for a, b in zip(spe.values, none.values))
    wins_under = sum(a > b for a, b in zip(spe.values, under.values))
    ok = margin_none >= 0.02 and margin_under >= 0.02
    detail = (
        f"spe={spe.mean:.4f} none={none.mean:.4f} rand-under={under.mean:.4f} "
        f"(AdaBoost10, depth-{depth} weak trees)"
    )
    report(f"criterion 2: {'PASS' if ok else 'FAIL'} - {detail}")
    message = (
        f"{detail}: spe-none={margin_none:+.4f} "
        f"({wins_none}/{len(spe.values)} paired wins), "
        f"spe-rand-under={margin_under:+.4f} "
        f"({wins_under}/{len(spe.values)} paired wins); required >= +0.02 each"
    )
    assert margin_none >= 0.02, message
    assert margin_under >= 0.02, message


def test_criterion_3_overlap_robustness():
    # cov=0.15 board, n=50 members, final-ensemble test score, 10 seeds.
    means = bench_aucprc_means(
        suite="checkerboard",
        methods=("cascade", "spe"),
        base_learner=LearnerSpec("tree", {"max_depth": 10}),
        n_estimators=50,
        repeats=10,
        seed=0,
        cov=0.15,
    )
    ok = means["spe"] >= means["cascade"]
    detail = f"spe={means['spe']:.4f} cascade={means['cascade']:.4f} (cov=0.15, n=50)"
    report(f"criterion 3: {'PASS' if ok else 'FAIL'} - {detail}")
    assert means["spe"] >= means["cascade"], detail


def test_criterion_4_alpha_schedule():
    exact_zero = all(self_paced_alpha(1, n) == 0.0 for n in (1, 2, 10, 100))
    midpoint = abs(self_paced_alpha(6, 10) - 1.0) <= 1e-12
    values = [self_paced_alpha(i, 10) for i in range(1, 11)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    final = abs(self_paced_alpha(10, 10) - 6.313751514675041) <= 1e-6
    ok = exact_zero and midpoint and increasing and final
    detail = (
        f"alpha(1,n)=0 exact={exact_zero}, alpha(6,10)={self_paced_alpha(6, 10):.15f}, "
        f"increasing={increasing}, alpha(10,10)={self_paced_alpha(10, 10):.6f}"
    )
    report(f"criterion 4: {'PASS' if ok else 'FAIL'} - {detail}")
    assert exact_zero, detail
    assert midpoint, detail
    assert increasing, detail
    assert final, detail


def clustered_partition(centers, per_bin, seed):
    """Hardness values tightly clustered so each bin holds one cluster."""
    gen = np.random.default_rng(seed)
    values = np.concatenate(
        [center + gen.uniform(-0.01, 0.01, size=per_bin) for center in centers]
    )
    part = partition_bins(values, len(centers))
    assert part.counts.tolist() == [per_bin] * len(centers)
    return part


def bin_loads(partition, chosen):
    return np.array(
        [int(np.isin(chosen, members).sum()) for members in partition.member_indices]
    )


def test_criterion_5_harmonize_property():
    cases = [
        ((0.3, 0.45, 0.6, 0.75, 0.9), 1000, 2000),
        ((0.2, 0.5, 0.8), 300, 400),
    ]
    worst_ratio = 0.0
    worst_spread = 0
    for trial, (centers, per_bin, target) in enumerate(cases):
        part = clustered_partition(centers, per_bin, seed=trial)

        # alpha = 0: each bin's quota times its mean hardness is level.
        weights = bin_sampling_weights(part, 0.0)
        chosen = self_paced_undersample(part, weights, target, RandomSource(trial))
        loads = bin_loads(part, chosen)
        products = loads * part.mean_hardness
        ratio = float(products.max() / products.min())
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= 1.1, f"centers={centers}: quota*h ratio {ratio:.4f} > 1.1"

        # alpha far past any bin's hardness: quotas flatten to uniform
        # within one unit.
        flat = bin_sampling_weights(part, 1e9)
        chosen = self_paced_undersample(part, flat, target, RandomSource(trial + 10))
        loads = bin_loads(part, chosen)
        spread = int(loads.max() - loads.min())
        worst_spread = max(worst_spread, spread)
        assert spread <= 1, f"centers={centers}: uniform quota spread {spread} > 1"
    report(
        f"criterion 5: PASS - worst quota*h max/min {worst_ratio:.4f} <= 1.1; "
        f"worst uniform spread {worst_spread} <= 1"
    )


def test_criterion_6_balance_invariant():
    data = generate_checkerboard(CheckerboardSpec())
    log = []
    spe_fit(
        data,
        SpeConfig(n_estimators=10, base_learner=LearnerSpec("tree", {"max_depth": 10})),
        log=log,
    )
    balanced = all(
        entry.n_minority == 1000 and entry.n_majority == 1000 for entry in log
    )
    report(
        f"criterion 6: {'PASS' if balanced else 'FAIL'} - "
        f"{len(log)} training subsets, all exactly 1000+1000: {balanced}"
    )
    assert len(log) == 11
    for entry in log:
        assert entry.n_minority == 1000, f"iteration {entry.iteration}"
        assert entry.n_majority == 1000, f"iteration {entry.iteration}"


def test_criterion_7_metric_oracles():
    gen = np.random.default_rng(101)
    for _ in range(1000):
        labels, scores = random_scored_instance(gen, max_size=20)
        ours = aucprc(labels, scores)
        oracle = brute_force_aucprc(labels, scores)
        assert ours == oracle, f"labels={labels.tolist()} scores={scores.tolist()}"

    for _ in range(1000):
        tp, fp, fn, tn = (int(v) for v in gen.integers(0, 200, size=4))
        if tp + fp + fn + tn == 0:
            tn = 1
        ours = confusion_scores(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        oracle = formula_confusion_scores(tp, fp, fn, tn)
        for name in ("precision", "recall", "f1", "gmean", "mcc"):
            assert abs(getattr(ours, name) - oracle[name]) <= 1e-12, (
                f"{name} mismatch on tp={tp} fp={fp} fn={fn} tn={tn}"
            )

    worked = confusion_scores(ConfusionMatrix(tp=50, fp=10, fn=20, tn=920))
    assert abs(worked.mcc - 0.7558) <= 1e-4
    report(
        "criterion 7: PASS - 1000 ranking instances exact, 1000 confusion "
        f"matrices within 1e-12, worked MCC {worked.mcc:.6f}"
    )


def test_criterion_8_benchmark_determinism(default_suite, tmp_path, capsys, monkeypatch):
    # The library's default suite and a default CLI bench are two runs of
    # one configuration, so they write the same bytes.
    status = main(["bench", "--seed", "0", "--output", str(tmp_path)])
    assert status == 0
    capsys.readouterr()
    names = ("results.csv", "results.json")
    identical = {name: (default_suite[3] / name).read_bytes() == (tmp_path / name).read_bytes()
                 for name in names}
    report(
        f"criterion 8: {'PASS' if all(identical.values()) else 'FAIL'} - two default bench "
        f"runs (library and CLI), results.csv byte-identical: {identical['results.csv']}, "
        f"results.json byte-identical: {identical['results.json']}"
    )
    assert all(identical.values()), identical

    # The cells run on a pool sized from the CPUs; the bytes do not depend
    # on its size, from the in-process path to more workers than CPUs.
    config = default_suite[0]
    for workers in (1, 3):
        monkeypatch.setattr(bench, "_workers", lambda cells, workers=workers: workers)
        out_dir = tmp_path / f"workers-{workers}"
        write_results(run_suite(config), out_dir, config)
        same = {name: (default_suite[3] / name).read_bytes() == (out_dir / name).read_bytes()
                for name in names}
        report(f"criterion 8: {workers} worker(s), byte-identical: {same}")
        assert all(same.values()), (workers, same)
        assert multiprocessing.active_children() == []


def test_criterion_9_missing_value_mechanism():
    data = generate_checkerboard(CheckerboardSpec())
    n_cells = data.n_samples * data.n_features
    before = int((data.features == 0.0).sum())
    corrupted = corrupt_missing(data, 0.5, RandomSource(0))
    zeroed = int((corrupted.features == 0.0).sum()) - before
    assert zeroed == n_cells // 2, f"zeroed {zeroed} of {n_cells} cells"

    config = BenchConfig(suite="missing-sweep", methods=("spe",), repeats=10, seed=0)
    rows = [row for row in run_suite(config) if row.metric == "aucprc"]
    by_ratio = {row.param_value: row.mean for row in rows}
    ratios = sorted(by_ratio)
    assert ratios == [0.0, 0.25, 0.5, 0.75]
    means = [by_ratio[r] for r in ratios]
    monotone = all(b <= a + 0.01 for a, b in zip(means, means[1:]))
    trace = " -> ".join(f"{m:.4f}" for m in means)
    report(
        f"criterion 9: {'PASS' if monotone else 'FAIL'} - exactly "
        f"{zeroed} cells zeroed at ratio 0.5; sweep means {trace}"
    )
    assert monotone, trace
