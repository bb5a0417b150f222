"""Command line interface: all six subcommands, config files, error paths."""
import json

import numpy as np
import pytest

from selfpaced.cli import main
from selfpaced.data import load_csv
from selfpaced.ensembles import load_model

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
    assert len(report["iterations"]) == 4
    assert report["alphas"][0] == 0.0
    assert len(report["alphas"]) == 3
    assert report["alphas"] == sorted(report["alphas"])
    assert len(report["bin_occupancy"]) == 3
    for occupancy in report["bin_occupancy"]:
        assert sum(occupancy["counts"]) == 180
    for size in report["subset_sizes"][1:]:
        assert size["n_minority"] == size["n_majority"] == 18


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
    assert "alphas" not in report


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
