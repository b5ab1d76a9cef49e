"""Command-line entry points.

Subcommands cover the pipeline stages individually (gen-data, augment,
train, evaluate, diagnostics) and the full matrix (experiment). Every
command is seed-driven and writes plain files; exit code 0 means success,
1 means the experiment had failed cells (summarized on stderr), 2 means
the invocation itself was bad.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .dataset import (
    DEFAULT_PROFILE,
    Dataset,
    apply_scheme,
    generate_flows,
    load_csv,
    partition,
    save_csv,
    standard_schemes,
)
from .errors import FlowBalanceError, SchemaError
from .evaluate import f1_score
from .gan import GanConfig
from .harness import (
    ExperimentConfig,
    GENERATIVE_METHODS,
    METHOD_ORDER,
    balance_train_set,
    derive_seed,
    run_experiment,
    train_generator,
    write_distribution_diagnostics,
)
from .oversample import ORIGIN_SYNTHETIC, OversampleConfig
from .schema import build
from .trees import MODEL_CONFIGS, MODEL_KINDS, fit_model


def _load_labeled_csv(args) -> Dataset:
    return load_csv(args.data, args.label_column, args.slow_threshold)


def _add_label_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--label-column", default="label",
                   help="name of the 0/1 label column")
    p.add_argument("--slow-threshold", type=float, default=None,
                   help="derive labels as tput < threshold instead of a label column")


def _model_params(args) -> dict:
    """``--params``, checked against ``--model`` before any data is read."""
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise SchemaError(f"--params is not valid JSON: {exc}") from exc
    build(MODEL_CONFIGS[args.model], params, args.model)
    return params


def _balanced(args, data: Dataset):
    """``data`` balanced by ``args.method`` with seeds derived from ``args.seed``."""
    if args.method not in GENERATIVE_METHODS:
        return balance_train_set(args.method, data, OversampleConfig(k=args.k), args.seed)
    cfg = GanConfig(epochs=args.epochs, seed=derive_seed(args.seed, 0))
    model = train_generator(args.method, data, cfg)
    return balance_train_set(args.method, data, None, derive_seed(args.seed, 1), model)


def _cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    profile = DEFAULT_PROFILE
    if args.separation is not None:
        profile = dataclasses.replace(profile, separation=args.separation)
    data = generate_flows(args.n_total, args.ir, args.seed, profile)
    save_csv(data, out / "population.csv")
    print(f"wrote {out / 'population.csv'} ({data.n} rows)")
    schemes = standard_schemes(partition(data))
    ordinal = {name: i for i, name in enumerate(sorted(schemes))}
    wanted = args.schemes if args.schemes else sorted(schemes)
    for name in wanted:
        if name not in schemes:
            print(f"scheme {name!r} unavailable for this population", file=sys.stderr)
            return 2
        subset = apply_scheme(data, schemes[name], derive_seed(args.seed, ordinal[name]))
        save_csv(subset, out / f"{name}.csv")
        print(f"wrote {out / (name + '.csv')} ({subset.n} rows)")
    return 0


def _cmd_augment(args) -> int:
    data = _load_labeled_csv(args)
    feats, labels, origin = _balanced(args, data)
    save_csv(Dataset(feats, labels, data.feature_names), args.out, origin=origin)
    n_synth = int(np.sum(origin == ORIGIN_SYNTHETIC))
    print(f"wrote {args.out} ({feats.shape[0]} rows, {n_synth} synthetic)")
    return 0


def _cmd_train(args) -> int:
    params = _model_params(args)
    data = _load_labeled_csv(args)
    model = fit_model(args.model, data.features, data.labels, params, args.seed)
    train_f1 = f1_score(data.labels, model.predict(data.features))
    summary = model.summary()
    summary["feature_names"] = list(data.feature_names)
    summary["train_f1"] = train_f1
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    print(f"training F1 = {train_f1:.3f}")
    return 0


def _cmd_evaluate(args) -> int:
    params = _model_params(args)
    train = load_csv(args.train, args.label_column, args.slow_threshold)
    test = load_csv(args.test, args.label_column, args.slow_threshold)
    model = fit_model(args.model, train.features, train.labels, params, args.seed)
    f1 = f1_score(test.labels, model.predict(test.features))
    print(f"test F1 = {f1:.3f}")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"model": args.model, "test_f1": f1}, indent=2) + "\n"
        )
        print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    overrides = {}
    if args.out:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    report = run_experiment(config)
    print(f"report written to {Path(config.out_dir) / 'report.json'}")
    print(f"{len(report.cells)} cells, {len(report.failed)} failed")
    if report.failed:
        for r in report.failed:
            c = r.cell
            print(
                f"FAILED {c.method}/{c.classifier}/ir={c.ir:g}/seed={c.seed}: {r.error}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_diagnostics(args) -> int:
    data = _load_labeled_csv(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = write_distribution_diagnostics(
        _balanced(args, data), data.feature_names, out, args.seed, args.cap, args.method
    )
    if not written:
        print("no synthetic rows produced; nothing to diagnose", file=sys.stderr)
        return 2
    for name in written:
        print(f"wrote {out / name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowbalance",
        description="class-imbalance experiments for slow-flow prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic flow population")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-total", type=int, default=30000)
    p.add_argument("--ir", type=float, default=0.08,
                   help="population minority/majority ratio")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--separation", type=float, default=None,
                   help="class separation knob of the generator profile")
    p.add_argument("--schemes", nargs="*", default=None,
                   help="sampling schemes to export (default: all available)")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("augment", help="balance a labeled CSV with one method")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=[m for m in METHOD_ORDER if m != "none"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--epochs", type=int, default=500, help="generative epochs")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_label_flags(p)
    p.set_defaults(fn=_cmd_augment)

    p = sub.add_parser("train", help="fit one classifier on a labeled CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, choices=list(MODEL_KINDS))
    p.add_argument("--params", default=None, help="JSON dict of model parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="model summary JSON path")
    _add_label_flags(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="train on one CSV, report F1 on another")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--model", required=True, choices=list(MODEL_KINDS))
    p.add_argument("--params", default=None, help="JSON dict of model parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="metrics JSON path")
    _add_label_flags(p)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run the full experiment matrix")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--seed", type=int, default=None, help="override the seed list")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("diagnostics", help="distribution diagnostics for one method")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=[m for m in METHOD_ORDER if m != "none"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--cap", type=int, default=450, help="max rows in the embedding")
    p.add_argument("--out", required=True, help="output directory")
    _add_label_flags(p)
    p.set_defaults(fn=_cmd_diagnostics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FlowBalanceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
