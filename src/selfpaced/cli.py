"""Command line interface.

Subcommands: generate, train, predict, eval, metrics, bench. Every command
accepts --config pointing at a key=value file whose entries fill in unset
flags (explicit flags win). Successful runs exit 0; failures write a single
JSON object to stderr and exit nonzero.
"""
from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from .bench import SUITES, BenchConfig, run_suite, write_results
from .core import RandomSource
from .data import (
    CheckerboardSpec,
    generate_checkerboard,
    load_csv,
    load_features,
    load_table,
    save_csv,
)
from .ensembles import METHODS, SpeConfig, fit_method, load_model, save_model
from .hardness import HARDNESS_FUNCTIONS
from .learners import LearnerSpec
# `aucprc` stays a name of this module: perfbench/spans.py wraps it here.
from .metrics import aucprc, metric_report, stratified_split  # noqa: F401

__all__ = ["main"]

_HARDNESS_CHOICES = tuple(sorted(HARDNESS_FUNCTIONS))
_SPLIT_CHOICES = ("train", "validation", "test", "all")
# flag -> constructor parameter, per built-in learner; each flag's default
# and type are those of the parameter in a default LearnerSpec.
_LEARNER_FLAGS = {
    "tree": {"--max-depth": "max_depth", "--min-samples-split": "min_samples_split",
             "--min-impurity-decrease": "min_impurity_decrease"},
    "adaboost": {"--boost-rounds": "n_estimators", "--weak-depth": "weak_learner_depth",
                 "--learning-rate": "learning_rate"},
}


def _emit_error(message: str, status: int):
    sys.stderr.write(json.dumps({"error": str(message)}) + "\n")
    raise SystemExit(status)


class _JsonErrorParser(argparse.ArgumentParser):
    """Argument errors leave as machine-readable JSON on stderr."""

    def error(self, message):
        _emit_error(message, 2)


def _add_data_options(sub, labelled=True):
    """Train and eval read labelled rows, from a CSV or a generated board;
    predict reads feature rows only, dropping a label column if present."""
    sub.add_argument("--data", help="input CSV path (headered)")
    sub.add_argument("--label-column", default="label",
                     help="label column name or integer index (default: label)")
    sub.add_argument("--missing-token", default="",
                     help="feature cell treated as missing, imputed 0.0")
    if labelled:
        sub.add_argument("--positive-label", default="1",
                         help="label value mapped to class 1 (default: 1)")
        sub.add_argument("--checkerboard", action="store_true",
                         help="generate checkerboard data instead of reading --data")
        sub.add_argument("--data-seed", type=int, default=CheckerboardSpec.seed,
                         help="seed for --checkerboard generation")
        _add_board_shape_options(sub)


def _add_board_shape_options(sub):
    sub.add_argument("--cov", type=float, default=CheckerboardSpec.cov_scale,
                     help="checkerboard component covariance scale")
    sub.add_argument("--n-minority", type=int, default=CheckerboardSpec.n_minority)
    sub.add_argument("--n-majority", type=int, default=CheckerboardSpec.n_majority)


def _add_split_options(sub, default_split):
    sub.add_argument("--split", choices=_SPLIT_CHOICES, default=default_split,
                     help=f"dataset part to use (default: {default_split})")
    sub.add_argument("--split-fractions", default="0.6,0.2,0.2",
                     help="train,validation,test fractions (default: 0.6,0.2,0.2)")


def _add_learner_options(sub):
    sub.add_argument("--base-learner", choices=(*_LEARNER_FLAGS, "external"),
                     default=SpeConfig.base_learner)
    sub.add_argument("--learner-factory",
                     help="module:callable for --base-learner external")
    for name, flags in _LEARNER_FLAGS.items():
        defaults = LearnerSpec(name).params
        for flag, param in flags.items():
            sub.add_argument(flag, type=type(defaults[param]), default=defaults[param],
                             help=f"{name} {param} (default: {defaults[param]})")


def _add_method_options(sub):
    sub.add_argument("--n-estimators", type=int, default=SpeConfig.n_estimators)
    sub.add_argument("--k-bins", type=int, default=SpeConfig.k_bins,
                     help=f"hardness bins for spe (default: {SpeConfig.k_bins})")
    sub.add_argument("--hardness", choices=_HARDNESS_CHOICES, default=SpeConfig.hardness)
    sub.add_argument("--keep-fp-rate", type=float, default=SpeConfig.keep_fp_rate,
                     help="cascade keep rate; default derives from the imbalance")


def build_parser():
    parser = _JsonErrorParser(
        prog="selfpaced",
        description="Hardness-harmonized under-sampling ensembles for "
                    "imbalanced binary classification.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}

    def register(name, help_text, seeded=True):
        sub = commands.add_parser(name, help=help_text)
        if seeded:
            sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--config", help="key=value file supplying unset flags")
        sub.add_argument("--output", help="output path (command-specific default)")
        subs[name] = sub
        return sub

    sub = register("generate", "sample a checkerboard dataset to CSV")
    _add_board_shape_options(sub)
    sub.add_argument("--grid-size", type=int, default=CheckerboardSpec.grid_size)

    sub = register("train", "train an ensemble and write model + report")
    _add_data_options(sub)
    _add_split_options(sub, "train")
    sub.add_argument("--method", choices=METHODS, default="spe")
    _add_method_options(sub)
    _add_learner_options(sub)
    sub.add_argument("--report", help="report path (default: <output>.report.json)")

    sub = register("predict", "score rows with a trained model", seeded=False)
    sub.add_argument("--model", help="model JSON path")
    _add_data_options(sub, labelled=False)

    sub = register("eval", "evaluate a trained model on a dataset split")
    sub.add_argument("--model", help="model JSON path")
    _add_data_options(sub)
    _add_split_options(sub, "test")
    sub.add_argument("--threshold", type=float, default=0.5)

    sub = register("metrics", "compute metrics from a label,score CSV", seeded=False)
    sub.add_argument("--data", help="two-column CSV of label,score")
    sub.add_argument("--threshold", type=float, default=0.5)

    sub = register("bench", "run a benchmark suite")
    sub.add_argument("--suite", choices=SUITES, default=BenchConfig.suite)
    sub.add_argument("--methods", default=",".join(BenchConfig.methods),
                     help="comma-separated method list")
    sub.add_argument("--repeats", type=int, default=BenchConfig.repeats)
    _add_board_shape_options(sub)
    _add_method_options(sub)
    _add_learner_options(sub)

    return parser, subs


def _read_config_file(path):
    entries = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _config_tokens(sub, command, path):
    """The config file's entries as flags of `sub`, to parse before the user's own."""
    actions = {action.dest: action for action in sub._actions}
    tokens = []
    for key, raw in _read_config_file(path).items():
        action = actions.get(key)
        if action is None or key in ("help", "config"):
            raise ValueError(f"unknown config key {key!r} for command {command!r}")
        flag = action.option_strings[-1]
        if action.nargs != 0:
            tokens.append(f"{flag}={raw}")
        elif raw.lower() not in ("true", "false"):
            raise ValueError(f"config key {key!r} takes true or false, got {raw!r}")
        elif raw.lower() == "true":
            tokens.append(flag)
    return tokens


def _label_column_arg(value):
    try:
        return int(value)
    except (TypeError, ValueError):
        return value


def _parse_fractions(text):
    parts = [float(p) for p in str(text).split(",")]
    if len(parts) != 3:
        raise ValueError(f"--split-fractions needs three numbers, got {text!r}")
    return tuple(parts)


def _board_spec(args, **own):
    """The CheckerboardSpec of the board shape flags plus a command's own fields."""
    return CheckerboardSpec(cov_scale=args.cov, n_minority=args.n_minority,
                            n_majority=args.n_majority, **own)


def _load_dataset(args):
    """Dataset from --data CSV or --checkerboard flags, plus a source echo."""
    if args.data:
        loaded = load_csv(
            args.data,
            label_column=_label_column_arg(args.label_column),
            positive_label=args.positive_label,
            missing_token=args.missing_token,
        )
        return loaded.data, {"path": args.data, "n_missing_imputed": loaded.n_missing}
    if getattr(args, "checkerboard", False):
        spec = _board_spec(args, seed=args.data_seed)
        return generate_checkerboard(spec), {"checkerboard": asdict(spec)}
    raise ValueError("no input data: pass --data <csv> or --checkerboard")


def _select_split(data, args):
    if args.split == "all":
        return data
    fractions = _parse_fractions(args.split_fractions)
    rng = RandomSource(args.seed).child("split")
    parts = stratified_split(data, fractions, rng)
    return parts[("train", "validation", "test").index(args.split)]


def _import_factory(spec_text):
    module_name, _, attr = str(spec_text).partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"--learner-factory must look like module:callable, got {spec_text!r}"
        )
    factory = getattr(importlib.import_module(module_name), attr)
    if not callable(factory):
        raise ValueError(f"{spec_text!r} is not callable")
    return factory


def _learner_from_args(args):
    flags = _LEARNER_FLAGS.get(args.base_learner)
    if flags is not None:
        return LearnerSpec(args.base_learner, {
            param: getattr(args, flag[2:].replace("-", "_")) for flag, param in flags.items()
        })
    if not args.learner_factory:
        raise ValueError("--base-learner external requires --learner-factory")
    return _import_factory(args.learner_factory)


def _fit_fields(args, config_type=SpeConfig):
    """The fields of `config_type` from the flags whose dest they name; the
    base learner from its learner flags."""
    return {**{f.name: getattr(args, f.name) for f in fields(config_type)},
            "base_learner": _learner_from_args(args)}


def _print_json(payload):
    sys.stdout.write(json.dumps(payload) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def cmd_generate(args) -> int:
    spec = _board_spec(args, seed=args.seed, grid_size=args.grid_size)
    data = generate_checkerboard(spec)
    output = args.output or "checkerboard.csv"
    save_csv(data, output)
    meta_path = output + ".meta.json"
    _write_json(meta_path, {"spec": asdict(spec), "n_samples": data.n_samples})
    _print_json({
        "path": output,
        "meta_path": meta_path,
        "n_minority": data.n_minority,
        "n_majority": data.n_majority,
        "imbalance_ratio": data.imbalance_ratio,
    })
    return 0


def cmd_train(args) -> int:
    data, source = _load_dataset(args)
    part = _select_split(data, args)
    log = []
    model = fit_method(part, args.method, log=log, **_fit_fields(args))
    model_path = args.output or "model.json"
    save_model(model, model_path)
    report = {
        "method": model.method,
        "config": model.config,
        "seed": args.seed,
        "source": source,
        "split": args.split,
        "split_fractions": list(_parse_fractions(args.split_fractions)),
        "n_samples": part.n_samples,
        "n_minority": part.n_minority,
        "n_majority": part.n_majority,
        "iterations": [asdict(entry) for entry in log],
        "model_path": str(model_path),
    }
    report_path = args.report or f"{model_path}.report.json"
    _write_json(report_path, report)
    _print_json({
        "model_path": str(model_path),
        "report_path": str(report_path),
        "method": model.method,
        "members": len(model.members),
    })
    return 0


def cmd_predict(args) -> int:
    if not args.model:
        raise ValueError("--model is required")
    model = load_model(args.model)
    if not args.data:
        raise ValueError("--data is required")
    features = load_features(
        args.data, _label_column_arg(args.label_column), args.missing_token
    )
    scores = model.predict_proba(features)
    text = "\n".join(["score", *map("{:.17g}".format, scores.tolist())]) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        _print_json({"path": args.output, "rows": len(scores)})
    else:
        sys.stdout.write(text)
    return 0


def cmd_eval(args) -> int:
    if not args.model:
        raise ValueError("--model is required")
    model = load_model(args.model)
    data, _ = _load_dataset(args)
    part = _select_split(data, args)
    scores = model.predict_proba(part.features)
    payload = metric_report(part.labels, scores, args.threshold)
    _print_json(payload)
    if args.output:
        _write_json(args.output, payload)
    return 0


def cmd_metrics(args) -> int:
    if not args.data:
        raise ValueError("--data is required")
    names, table = load_table(args.data)
    lowered = [name.strip().lower() for name in names]
    label_pos = lowered.index("label") if "label" in lowered else 0
    score_pos = lowered.index("score") if "score" in lowered else 1
    if max(label_pos, score_pos) >= len(names):
        raise ValueError(f"{args.data}: expected label and score columns; header: {names}")
    if label_pos == score_pos:
        raise ValueError(f"{args.data}: label and score would both be column "
                         f"{names[label_pos]!r}; header: {names}")
    labels = table[:, label_pos]
    not_binary = np.flatnonzero((labels != 0) & (labels != 1))
    if not_binary.size:
        row = int(not_binary[0])
        raise ValueError(
            f"{args.data}: column {names[label_pos]!r} has label {labels[row]} "
            f"at row {row + 2}; labels must be 0 or 1"
        )
    scores = table[:, score_pos]
    payload = metric_report(labels, scores, args.threshold)
    _print_json(payload)
    if args.output:
        _write_json(args.output, payload)
    return 0


def cmd_bench(args) -> int:
    methods = tuple(m.strip() for m in str(args.methods).split(",") if m.strip())
    config = BenchConfig(**{**_fit_fields(args, BenchConfig), "methods": methods})
    rows = run_suite(config)
    csv_path, json_path = write_results(rows, args.output or "bench-results", config)
    failed = [row for row in rows if row.errors]
    _print_json({
        "suite": config.suite,
        "rows": len(rows),
        "rows_with_errors": len(failed),
        "csv": str(csv_path),
        "json": str(json_path),
    })
    if failed:
        _emit_error(f"method {failed[0].method} failed in {failed[0].errors[0]}", 1)
    return 0


_DISPATCH = {
    "generate": cmd_generate,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "metrics": cmd_metrics,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser, subs = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            at = argv.index(args.command) + 1
            tokens = _config_tokens(subs[args.command], args.command, args.config)
            args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
        return _DISPATCH[args.command](args)
    except SystemExit:
        raise
    except Exception as exc:
        _emit_error(str(exc) or type(exc).__name__, 1)


if __name__ == "__main__":
    sys.exit(main())
