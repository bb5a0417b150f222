"""The command-line workflow, end to end.

Everything the library does is reachable from the `selfpaced` console
command (or `python3 -m selfpaced.cli ...`): generate a board, train a
model to JSON, score new rows, evaluate, and benchmark. Each subcommand
prints a single JSON document to stdout, so the CLI composes with jq and
shell pipelines.

This demo drives main() in-process with the exact argv a shell would pass,
inside a temporary directory.
"""

import json
import tempfile
from pathlib import Path

from selfpaced.cli import main


def run(argv):
    print(f"$ selfpaced {' '.join(argv)}")
    code = main(argv)
    assert code == 0, f"exit code {code}"
    print()


with tempfile.TemporaryDirectory() as tmp_str:
    tmp = Path(tmp_str)
    board = str(tmp / "board.csv")
    model = str(tmp / "model.json")
    scored = str(tmp / "scored.csv")
    bench_dir = str(tmp / "bench")

    # 1. Materialize a small checkerboard as CSV (writes board.csv and a
    #    .meta.json echo of the generating parameters).
    run(["generate", "--n-minority", "60", "--n-majority", "600", "--seed", "5",
         "--output", board])

    # 2. Train a self-paced ensemble on it. Training always writes a JSON
    #    report next to the model (override the path with --report) carrying
    #    one record per trained learner: subset sizes, alpha, bin occupancy.
    run(["train", "--data", board, "--method", "spe", "--n-estimators", "5",
         "--max-depth", "6", "--seed", "0", "--output", model])
    report = json.loads(Path(model + ".report.json").read_text())
    members = report["iterations"][1:]  # the first record is the bootstrap learner
    print(f"report alphas: {[round(entry['alpha'], 3) for entry in members]}")
    print("report subset sizes: "
          f"{[(entry['n_minority'], entry['n_majority']) for entry in members]}")
    print()

    # 3. Score rows with the saved model. The output CSV has one `score`
    #    column aligned with the input rows.
    run(["predict", "--model", model, "--data", board, "--output", scored])
    first_lines = Path(scored).read_text().splitlines()[:3]
    print(f"scored.csv starts with: {first_lines}")
    print()

    # 4. Evaluate the model against labeled data: threshold metrics + AUCPRC.
    run(["eval", "--model", model, "--data", board, "--threshold", "0.5"])

    # 5. Metrics can also be computed directly from a score,label CSV,
    #    no model involved.
    pairs = tmp / "pairs.csv"
    pairs.write_text("score,label\n0.9,1\n0.8,0\n0.3,1\n")
    run(["metrics", "--data", str(pairs), "--threshold", "0.5"])

    # 6. A miniature benchmark: 2 methods, 2 repeats, small boards. Writes
    #    results.csv and results.json under --output.
    run(["bench", "--suite", "checkerboard", "--methods", "spe,rand-under",
         "--repeats", "2", "--n-minority", "50", "--n-majority", "500",
         "--seed", "0", "--output", bench_dir])
    results = Path(bench_dir) / "results.csv"
    print("results.csv:")
    print(results.read_text())

print("Config files work too: put `method = spe` style lines in a file and")
print("pass --config; explicit command-line flags always win over the file.")
