"""Benchmark command for the selfpaced package.

    python3 perfbench/run.py --workload spe-massive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from its
`src/` directory. One run sets up the workload's inputs several times
(`setup_s` is the median), then repeats the workload's operation until
`--seconds` have passed and at least the workload's minimum number of
operations are done, checks every output, and prints one JSON object as the
last line of stdout. `--trace 0` reports the end-to-end metrics; `--trace 1`
installs the span recorder of `spans.py` and reports per-layer metrics
instead. Each run also writes a record (environment, score checksum, all
metrics) and, when traced, its spans as JSONL, under `perfbench/out/`.

`--smoke` runs every workload on tiny inputs, each in its own process.
"""
from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: each workload is measured
# as one single-threaded process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
N_SETUPS = 3

E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "score_rows_per_s": "rows/s",
    "cells_per_s": "1/s",
    "cli_predict_s": "s",
    "predict_1row_ms_mean": "ms",
    "predict_1row_ms_p90": "ms",
    "aucprc": "frac",
    "peak_rss_mib": "MiB",
}


def import_package():
    """Import selfpaced from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "selfpaced" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'selfpaced'} not found; run from a source checkout")
    sys.path.insert(0, str(src))
    import selfpaced
    if Path(selfpaced.__file__).resolve().parent != src / "selfpaced":
        raise SystemExit(f"error: imported selfpaced from {selfpaced.__file__}, not {src}")
    return selfpaced


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def run_workload(workload, seed, seconds, workdir, tracer):
    setup_times = []
    for i in range(N_SETUPS):
        setup_dir = workdir / f"setup-{i}"
        setup_dir.mkdir()
        start = perf_counter()
        state = workload.setup(seed, setup_dir)
        setup_times.append(perf_counter() - start)
    if tracer is not None:
        tracer.phase = "op"
    # Whole rounds only, as many as fit in `seconds`, and at least min_rounds.
    ops, failed, rounds, round_s = [], 0, 0, 0.0
    start = perf_counter()
    while rounds < workload.min_rounds or perf_counter() - start + round_s <= seconds:
        round_start = perf_counter()
        for _ in range(workload.round_ops):
            try:
                ops.append(workload.op(state, len(ops) + failed))
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
        rounds += 1
        round_s = perf_counter() - round_start
    op_s = (perf_counter() - start) / (len(ops) + failed)
    if tracer is not None:
        tracer.phase = "check"
    if not ops:
        raise SystemExit(f"error: all {failed} operations failed")
    metrics, problems, scores_sha = workload.finish(state, ops)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": len(ops) + failed,
        "failed": failed,
        "problems": problems,
        "scores_sha256": scores_sha,
        "setup_times": setup_times,
        "op_s": op_s,
        "metrics": {name: {"value": metrics.pop(name), "unit": unit}
                    for name, unit in E2E_UNITS.items()},
        "also_measured": metrics,
    }


def measure(args):
    import_package()
    sys.path.insert(0, str(HERE))
    import spans
    import workloads
    from selfpaced.ensembles import model_to_doc

    workload = workloads.WORKLOADS[args.workload](args.smoke)
    tracer = spans.Tracer().install() if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as work:
        run = run_workload(workload, args.seed, args.seconds, Path(work), tracer)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "environment": environment(), **run}
    metrics = run["metrics"]
    if tracer is not None:
        metrics = tracer.layer_metrics(N_SETUPS, run["attempted"] - run["failed"], model_to_doc)
        record["layers"] = metrics
        record["self_s_per_op"] = tracer.self_time_per_op(run["attempted"] - run["failed"])
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"],
                      "scores_sha256": run["scores_sha256"]}))
    print(json.dumps({"correct": not run["problems"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if not run["problems"] else 1


def smoke(args):
    """Every workload on tiny inputs, each in its own process."""
    status = 0
    for name in ("spe-massive", "bench-suite", "cli-serve"):
        for trace_flag in ("0", "1"):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", "0", "--trace", trace_flag,
                    "--smoke"]
            start = perf_counter()
            done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{name} trace={trace_flag}: exit {done.returncode} "
                  f"in {perf_counter() - start:.1f} s: {last[0][:160]}")
            if done.returncode != 0:
                status = 1
                sys.stderr.write(done.stderr)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("spe-massive", "bench-suite", "cli-serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; without --workload, run every workload")
    args = parser.parse_args(argv)
    if args.smoke and args.workload is None:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
