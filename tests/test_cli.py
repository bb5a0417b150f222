"""Command line interface: all six subcommands, config files, error paths."""
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from selfpaced.bench import BenchConfig, run_suite
from selfpaced.cli import main
from selfpaced.data import load_csv
from selfpaced.ensembles import load_model
from selfpaced.learners import LearnerSpec

ROOT = Path(__file__).resolve().parents[1]

SMALL_BOARD = [
    "--checkerboard", "--data-seed", "3",
    "--n-minority", "30", "--n-majority", "300",
]


def run_cli(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 0
    return json.loads(captured.out.strip().splitlines()[-1])


def run_cli_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, json.loads(captured.err.strip().splitlines()[-1])


def test_generate_writes_csv_and_meta(tmp_path, capsys):
    out = str(tmp_path / "board.csv")
    payload = run_cli(
        capsys,
        ["generate", "--seed", "5", "--n-minority", "40", "--n-majority", "200",
         "--output", out],
    )
    assert payload["path"] == out
    assert payload["n_minority"] == 40
    assert payload["n_majority"] == 200
    assert payload["imbalance_ratio"] == 5.0

    loaded = load_csv(out)
    assert loaded.data.n_minority == 40
    assert loaded.data.n_majority == 200
    assert loaded.data.feature_names == ("x0", "x1")

    meta = json.loads((tmp_path / "board.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["spec"]["seed"] == 5
    assert meta["spec"]["cov_scale"] == 0.1
    assert meta["n_samples"] == 240


def test_generate_is_reproducible(tmp_path, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    for out in (a, b):
        run_cli(capsys, ["generate", "--seed", "11", "--n-minority", "10",
                         "--n-majority", "50", "--output", out])
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_train_writes_model_and_report(tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    payload = run_cli(
        capsys,
        ["train", *SMALL_BOARD, "--method", "spe", "--n-estimators", "3",
         "--max-depth", "3", "--seed", "1", "--output", model_path],
    )
    assert payload["model_path"] == model_path
    assert payload["method"] == "spe"
    assert payload["members"] == 3

    model = load_model(model_path)
    assert len(model.members) == 3

    report = json.loads(
        (tmp_path / "model.json.report.json").read_text(encoding="utf-8")
    )
    assert report["method"] == "spe"
    assert report["split"] == "train"
    # The 60% training split of a 30/300 board.
    assert report["n_minority"] == 18
    assert report["n_majority"] == 180
    assert not {"alphas", "bin_occupancy", "subset_sizes"} & set(report)
    # A bootstrap learner without alpha or bins, then the three members.
    bootstrap, *members = report["iterations"]
    assert len(members) == 3
    assert bootstrap["alpha"] is None and bootstrap["bin_counts"] is None
    alphas = [entry["alpha"] for entry in members]
    assert None not in alphas
    assert alphas[0] == 0.0
    assert alphas == sorted(alphas)
    for entry in members:
        assert sum(entry["bin_counts"]) == 180
        assert entry["n_minority"] == entry["n_majority"] == 18


def test_train_split_all_uses_every_row(tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    run_cli(
        capsys,
        ["train", *SMALL_BOARD, "--split", "all", "--method", "easy",
         "--n-estimators", "2", "--max-depth", "3", "--output", model_path],
    )
    report = json.loads(
        (tmp_path / "model.json.report.json").read_text(encoding="utf-8")
    )
    assert report["n_samples"] == 330
    assert [entry["alpha"] for entry in report["iterations"]] == [None, None]


def test_predict_scores_match_model(tmp_path, capsys):
    data_path = str(tmp_path / "data.csv")
    model_path = str(tmp_path / "model.json")
    scores_path = str(tmp_path / "scores.csv")
    run_cli(capsys, ["generate", "--seed", "2", "--n-minority", "20",
                     "--n-majority", "80", "--output", data_path])
    run_cli(
        capsys,
        ["train", "--data", data_path, "--split", "all", "--method", "easy",
         "--n-estimators", "2", "--max-depth", "3", "--output", model_path],
    )
    payload = run_cli(
        capsys, ["predict", "--model", model_path, "--data", data_path,
                 "--output", scores_path]
    )
    assert payload == {"path": scores_path, "rows": 100}

    lines = (tmp_path / "scores.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "score"
    written = np.array([float(v) for v in lines[1:]])
    model = load_model(model_path)
    expected = model.predict_proba(load_csv(data_path).data.features)
    assert np.array_equal(written, expected)


def test_predict_to_stdout_without_output(tmp_path, capsys):
    data_path = str(tmp_path / "data.csv")
    model_path = str(tmp_path / "model.json")
    run_cli(capsys, ["generate", "--seed", "2", "--n-minority", "10",
                     "--n-majority", "30", "--output", data_path])
    run_cli(
        capsys,
        ["train", "--data", data_path, "--split", "all", "--method", "rand-under",
         "--max-depth", "2", "--output", model_path],
    )
    status = main(["predict", "--model", model_path, "--data", data_path])
    out = capsys.readouterr().out
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "score"
    assert len(lines) == 41


def test_predict_without_a_label_column_matches_labelled_scores(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    bare_path = tmp_path / "bare.csv"
    model_path = str(tmp_path / "model.json")
    run_cli(capsys, ["generate", "--seed", "4", "--n-minority", "20",
                     "--n-majority", "80", "--output", str(data_path)])
    lines = data_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x0,x1,label"
    bare_path.write_text(
        "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n", encoding="utf-8"
    )
    run_cli(capsys, ["train", "--data", str(data_path), "--split", "all",
                     "--n-estimators", "3", "--max-depth", "4", "--output", model_path])
    outputs = []
    for path in (data_path, bare_path):
        out = tmp_path / f"{path.stem}.scores.csv"
        payload = run_cli(capsys, ["predict", "--model", model_path, "--data", str(path),
                                   "--output", str(out)])
        assert payload["rows"] == 100
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_predict_rejects_a_ragged_row_without_a_label_column(tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    run_cli(capsys, ["train", *SMALL_BOARD, "--method", "easy", "--n-estimators", "1",
                     "--max-depth", "2", "--output", model_path])
    for row in ("0.3", "0.3,0.4,0.5"):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(f"x0,x1\n0.1,0.2\n{row}\n", encoding="utf-8")
        code, err = run_cli_error(capsys, ["predict", "--model", model_path,
                                           "--data", str(ragged)])
        assert code == 1
        cells = row.count(",") + 1
        assert err["error"] == f"{ragged}: row 3 has {cells} cells, expected 2"


def test_only_train_and_eval_take_a_positive_label(tmp_path, capsys):
    data_path = str(tmp_path / "data.csv")
    model_path = str(tmp_path / "model.json")
    run_cli(capsys, ["generate", "--seed", "2", "--n-minority", "20",
                     "--n-majority", "80", "--output", data_path])
    run_cli(capsys, ["train", "--data", data_path, "--positive-label", "1",
                     "--n-estimators", "1", "--max-depth", "2", "--output", model_path])
    run_cli(capsys, ["eval", "--model", model_path, "--data", data_path,
                     "--positive-label", "1"])
    # predict reads no labels, so the flag would have no effect.
    code, err = run_cli_error(capsys, ["predict", "--model", model_path,
                                       "--data", data_path, "--positive-label", "1"])
    assert code == 2
    assert "unrecognized arguments: --positive-label 1" in err["error"]


def test_eval_emits_exact_metric_keys(tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    run_cli(
        capsys,
        ["train", *SMALL_BOARD, "--method", "easy", "--n-estimators", "2",
         "--max-depth", "3", "--output", model_path],
    )
    payload = run_cli(
        capsys,
        ["eval", "--model", model_path, *SMALL_BOARD, "--split", "test"],
    )
    assert set(payload) == {
        "aucprc", "f1", "gmean", "mcc", "precision", "recall", "threshold",
    }
    assert payload["threshold"] == 0.5
    assert 0.0 <= payload["aucprc"] <= 1.0
    assert -1.0 <= payload["mcc"] <= 1.0


def test_eval_is_deterministic(tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    run_cli(
        capsys,
        ["train", *SMALL_BOARD, "--method", "rand-under", "--max-depth", "3",
         "--output", model_path],
    )
    argv = ["eval", "--model", model_path, *SMALL_BOARD, "--split", "validation",
            "--seed", "4"]
    assert run_cli(capsys, argv) == run_cli(capsys, argv)


def test_metrics_from_csv(tmp_path, capsys):
    path = tmp_path / "scored.csv"
    path.write_text("label,score\n1,0.9\n0,0.8\n1,0.3\n", encoding="utf-8")
    payload = run_cli(capsys, ["metrics", "--data", str(path)])
    # aucprc enumerates ranks: 1/2 + (1/2)(2/3); the 0.5 threshold yields
    # tp=1 fp=1 fn=1 tn=0.
    assert payload["aucprc"] == pytest.approx(0.8333333333333334, abs=1e-12)
    assert payload["precision"] == 0.5
    assert payload["recall"] == 0.5
    assert payload["f1"] == 0.5
    assert payload["gmean"] == 0.5
    assert payload["mcc"] == pytest.approx(-0.5, abs=1e-12)
    assert payload["threshold"] == 0.5


def test_metrics_respects_threshold_and_column_order(tmp_path, capsys):
    path = tmp_path / "scored.csv"
    path.write_text("score,label\n0.9,1\n0.8,0\n0.3,1\n", encoding="utf-8")
    payload = run_cli(capsys, ["metrics", "--data", str(path), "--threshold", "0.85"])
    assert payload["precision"] == 1.0
    assert payload["recall"] == 0.5
    assert payload["threshold"] == 0.85


def test_metrics_bad_row_is_an_error(tmp_path, capsys):
    path = tmp_path / "scored.csv"
    path.write_text("label,score\n1,0.9\nbad,row\n", encoding="utf-8")
    code, err = run_cli_error(capsys, ["metrics", "--data", str(path)])
    assert code == 1
    assert "row 3" in err["error"]


def test_metrics_picks_columns_by_name_then_position(tmp_path, capsys):
    named = tmp_path / "named.csv"
    named.write_text("id, Score ,LABEL\n7,0.9,1\n8,0.8,0\n9,0.3,1\n", encoding="utf-8")
    unnamed = tmp_path / "unnamed.csv"
    unnamed.write_text("truth,prob\n1,0.9\n0,0.8\n1,0.3\n", encoding="utf-8")
    assert (run_cli(capsys, ["metrics", "--data", str(named)])
            == run_cli(capsys, ["metrics", "--data", str(unnamed)]))


@pytest.mark.parametrize("text, message", [
    ("label,score\n1,0.9\n0,nan\n",
     "column 'score' has non-finite value nan at row 3"),
    ("label,score\n1,0.9\n0,0.8,0.1\n1,0.3\n", "row 3 has 3 cells, expected 2"),
    ("label,score\n1,0.9\n0,\n", "column 'score' has non-numeric value '' at row 3; "
     "encode categorical columns before loading"),
    ("label,score\n1,0.9\n2,0.8\n",
     "column 'label' has label 2.0 at row 3; labels must be 0 or 1"),
    # Every column is read as a number, not only the label and the score.
    ("id,label,score\n1,1,0.9\nB7,0,0.8\n", "column 'id' has non-numeric value 'B7' at row 3; "
     "encode categorical columns before loading"),
    ("label\n1\n", "expected label and score columns; header: ['label']"),
    # A header naming one column only must not make it both label and score.
    ("p,label\n0.1,1\n0.9,0\n0.2,1\n",
     "label and score would both be column 'label'; header: ['p', 'label']"),
    ("score,x\n0.1,1\n0.9,0\n",
     "label and score would both be column 'score'; header: ['score', 'x']"),
])
def test_metrics_checks_cells_like_the_csv_reader(tmp_path, capsys, text, message):
    path = tmp_path / "scored.csv"
    path.write_text(text, encoding="utf-8")
    code, err = run_cli_error(capsys, ["metrics", "--data", str(path)])
    assert code == 1
    assert err["error"] == f"{path}: {message}"


def test_bench_mini_run_and_determinism(tmp_path, capsys):
    args = ["bench", "--suite", "checkerboard", "--methods", "rand-under,easy",
            "--repeats", "2", "--n-minority", "15", "--n-majority", "90",
            "--n-estimators", "2", "--max-depth", "3", "--seed", "6"]
    first = run_cli(capsys, args + ["--output", str(tmp_path / "one")])
    assert first["suite"] == "checkerboard"
    assert first["rows"] == 8
    assert first["rows_with_errors"] == 0

    run_cli(capsys, args + ["--output", str(tmp_path / "two")])
    csv_one = (tmp_path / "one" / "results.csv").read_bytes()
    csv_two = (tmp_path / "two" / "results.csv").read_bytes()
    assert csv_one == csv_two

    header = csv_one.decode("utf-8").splitlines()[0]
    assert header == "method,learner,metric,mean,std"
    doc = json.loads((tmp_path / "one" / "results.json").read_text(encoding="utf-8"))
    assert doc["suite"] == "checkerboard"
    assert len(doc["rows"]) == 8
    assert all(len(row["values"]) == 2 for row in doc["rows"])


TINY_BENCH = ["bench", "--methods", "rand-under,spe", "--repeats", "2",
              "--n-minority", "15", "--n-majority", "90", "--n-estimators", "2",
              "--seed", "6"]


def test_bench_learner_flags_match_a_bench_config(tmp_path, capsys):
    run_cli(capsys, [*TINY_BENCH, "--base-learner", "adaboost", "--weak-depth", "2",
                     "--boost-rounds", "3", "--output", str(tmp_path)])
    doc = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))
    config = BenchConfig(
        methods=("rand-under", "spe"), repeats=2, n_minority=15, n_majority=90,
        n_estimators=2, seed=6,
        base_learner=LearnerSpec("adaboost", {"n_estimators": 3, "weak_learner_depth": 2,
                                              "learning_rate": 1.0}),
    )
    expected = [asdict(row) for row in run_suite(config)]
    assert doc["rows"] == json.loads(json.dumps(expected))
    assert doc["config"]["base_learner"] == asdict(config.base_learner)


def test_bench_refuses_an_external_learner_before_running(tmp_path, capsys):
    out = tmp_path / "bench"
    code, err = run_cli_error(capsys, [
        *TINY_BENCH, "--base-learner", "external",
        "--learner-factory", "selfpaced.learners:DecisionTreeClassifier",
        "--output", str(out),
    ])
    assert code == 1
    assert "LearnerSpec" in err["error"]
    assert not out.exists()


def test_bench_config_key_is_base_learner(tmp_path, capsys):
    old = tmp_path / "old.conf"
    old.write_text("learner=adaboost\n", encoding="utf-8")
    code, err = run_cli_error(capsys, [*TINY_BENCH, "--config", str(old),
                                       "--output", str(tmp_path / "old")])
    assert code == 1
    assert "unknown config key 'learner' for command 'bench'" in err["error"]

    new = tmp_path / "new.conf"
    new.write_text("base_learner=adaboost\n", encoding="utf-8")
    run_cli(capsys, [*TINY_BENCH, "--config", str(new), "--output", str(tmp_path / "new")])
    rows = (tmp_path / "new" / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows and all(row.split(",")[1] == "adaboost" for row in rows)


def test_cli_workflow_demo_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "07_cli_workflow.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_config_file_fills_unset_flags(tmp_path, capsys):
    config = tmp_path / "train.conf"
    config.write_text(
        "# defaults for the tiny board\nn-estimators=4\nmax_depth=2\n",
        encoding="utf-8",
    )
    model_path = str(tmp_path / "model.json")
    payload = run_cli(
        capsys,
        ["train", *SMALL_BOARD, "--method", "easy", "--config", str(config),
         "--output", model_path],
    )
    assert payload["members"] == 4

    # An explicit flag beats the config file entry.
    payload = run_cli(
        capsys,
        ["train", *SMALL_BOARD, "--method", "easy", "--config", str(config),
         "--n-estimators", "2", "--output", model_path],
    )
    assert payload["members"] == 2


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("turbo=yes\n", encoding="utf-8")
    code, err = run_cli_error(
        capsys, ["train", *SMALL_BOARD, "--config", str(config)]
    )
    assert code == 1
    assert "unknown config key 'turbo'" in err["error"]


def test_config_file_malformed_line(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("just-some-words\n", encoding="utf-8")
    code, err = run_cli_error(
        capsys, ["train", *SMALL_BOARD, "--config", str(config)]
    )
    assert code == 1
    assert "expected key=value" in err["error"]


def test_config_file_switch_takes_true_or_false(tmp_path, capsys):
    config = tmp_path / "train.conf"
    board = "n_minority=10\nn_majority=50\nn_estimators=2\n"
    config.write_text(f"checkerboard=false\n{board}", encoding="utf-8")
    code, err = run_cli_error(capsys, ["train", "--config", str(config)])
    assert code == 1
    assert "no input data" in err["error"]

    config.write_text(f"checkerboard=True\n{board}", encoding="utf-8")
    payload = run_cli(capsys, ["train", "--config", str(config),
                               "--output", str(tmp_path / "model.json")])
    assert payload["members"] == 2

    config.write_text("checkerboard=yes\n", encoding="utf-8")
    code, err = run_cli_error(capsys, ["train", "--config", str(config)])
    assert code == 1
    assert "config key 'checkerboard' takes true or false, got 'yes'" in err["error"]


def test_config_file_values_pass_the_flag_checks(tmp_path, capsys):
    config = tmp_path / "train.conf"
    config.write_text("base_learner=svm\n", encoding="utf-8")
    code, err = run_cli_error(capsys, ["train", "--checkerboard", "--config", str(config)])
    assert code == 2
    assert "--base-learner: invalid choice: 'svm'" in err["error"]

    config.write_text("n_minority=ten\n", encoding="utf-8")
    code, err = run_cli_error(capsys, ["train", "--checkerboard", "--config", str(config)])
    assert code == 2
    assert "--n-minority: invalid int value: 'ten'" in err["error"]


def test_argparse_errors_exit_2_with_json(capsys):
    code, err = run_cli_error(capsys, ["train", "--method", "bogus"])
    assert code == 2
    assert "bogus" in err["error"]

    code, err = run_cli_error(capsys, ["bench", "--suite", "nope"])
    assert code == 2
    assert "nope" in err["error"]


def test_runtime_errors_exit_1_with_json(tmp_path, capsys):
    code, err = run_cli_error(capsys, ["train", "--method", "spe"])
    assert code == 1
    assert "no input data" in err["error"]

    code, err = run_cli_error(
        capsys, ["predict", "--model", str(tmp_path / "missing.json"),
                 "--data", str(tmp_path / "missing.csv")]
    )
    assert code == 1
    assert err["error"]


def test_unknown_bench_method_is_runtime_error(capsys):
    code, err = run_cli_error(
        capsys, ["bench", "--methods", "spe,teleport", "--repeats", "1"]
    )
    assert code == 1
    assert "teleport" in err["error"]
