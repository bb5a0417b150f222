"""The benchmark's entry points still run against the package.

perfbench/spans.py wraps package functions by name, and perfbench/workloads.py
calls the trainers and the CLI, so a refactor that drops or renames one of
them breaks the benchmark. Each workload runs once on tiny inputs with
tracing on.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_workloads_run_traced_on_tiny_inputs():
    for workload in ("spe-massive", "bench-suite", "cli-serve"):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
             "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, f"{workload}: exit {done.returncode}\n{done.stderr}"
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert last["correct"] is True, f"{workload}: {last}"
