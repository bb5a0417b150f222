"""The benchmark's entry points still run against the package.

perfbench/spans.py wraps package functions by name, and perfbench/workloads.py
calls the trainers and the CLI, so a refactor that drops or renames one of
them breaks the benchmark. Each workload runs once on tiny inputs with
tracing on, and must print the scores digest it printed before: a change
that moves a score by one bit fails here. A change that moves scores by
design updates these pins and says so.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The `scores_sha256` of each `--smoke --seconds 0` run, at trace 0 and 1 alike.
SMOKE_SCORES_SHA256 = {
    "spe-massive": "dc1f5e06633de02478aa370a1099438791d8bb190c190af4717b2457b8a6cea3",
    "bench-suite": "ff84dba19af30f5253a5f6d0be59b92b654190ba32a702b10e03b5128f83eafc",
    "cli-serve": "82dd4403a247f7e4c26bc3b26dbb0ba040b84f376aa8ea1da47b2a0880c9e67a",
}


def test_benchmark_workloads_run_traced_on_tiny_inputs():
    for workload, scores_sha256 in SMOKE_SCORES_SHA256.items():
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
             "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, f"{workload}: exit {done.returncode}\n{done.stderr}"
        digest, last = map(json.loads, done.stdout.strip().splitlines()[-2:])
        assert last["correct"] is True, f"{workload}: {last}"
        assert digest["scores_sha256"] == scores_sha256, workload
