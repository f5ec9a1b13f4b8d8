"""Command-line interface.

Subcommands:
  train       --config <cfg> --out <model>        fit a model, save it
  eval        --model <bin> --data <csv> --report <json>
  cec-report  --model <bin> --data <csv> --csv <out>
  gen-synth   --spec <cfg> --out <csv>            synthetic data + sidecar
  gradcheck   --config <cfg>                      micro finite-difference suite
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import RunConfig, gradcheck_arguments, synth_arguments
from .data import gen_synthetic, load_synthetic_csv, load_table, save_synthetic_params, save_table
from .gradsuite import run_suite
from .model import EVAL_BATCH_ROWS, load_model, param_count, save_model
from .parallel import describe
from .trainer import check_both_classes, evaluate, run_warnings, train_loop


def _check_outputs(inputs: tuple[str | None, ...], *outputs: tuple[str, str]) -> None:
    """Fail before any work when an (option, path) output could not be
    written (an empty path, a directory, a missing directory) or would
    overwrite one of the command's ``inputs`` (``os.path.samefile``)."""
    for option, path in outputs:
        folder = os.path.dirname(path) or "."
        if not path:
            raise ValueError(f"{option}: empty path")
        if os.path.isdir(path):
            raise ValueError(f"{option} {path}: is a directory")
        if not os.path.isdir(folder):
            raise ValueError(f"{option} {path}: directory {folder} does not exist")
        if os.path.exists(path):
            for source in filter(None, inputs):  # None: an optional input left unset
                if os.path.exists(source) and os.path.samefile(path, source):
                    raise ValueError(f"{option} {path}: is the input {source}")


def _cmd_train(args) -> int:
    cfg = RunConfig.from_file(args.config)
    _check_outputs((args.config, cfg.train_path, cfg.valid_path, cfg.test_path), ("--out", args.out))
    model = cfg.build()
    train_ds, valid_ds, test_ds = cfg.load_datasets()
    print(
        f"model: mode={cfg.mode} experts={list(cfg.expert_specs)} "
        f"params={param_count(model)}"
    )
    print(f"data: train={len(train_ds)} valid={len(valid_ds)} test={len(test_ds)}")
    print(describe(model, min(cfg.train.batch_size, len(train_ds))))
    print(f"evaluation {describe(model, min(len(valid_ds), EVAL_BATCH_ROWS))}")
    check_both_classes(test_ds, "test")
    report = train_loop(model, train_ds, valid_ds, cfg.train)
    for rec in report.epochs:
        print(
            f"epoch {rec.epoch}: train_logloss={rec.train_logloss:.6f} "
            f"valid_auc={rec.valid.auc:.6f} valid_cec_sum={rec.valid_cec.total:.6f} "
            f"({rec.seconds:.1f}s)"
        )
    print(f"best epoch {report.best_epoch}: valid_auc={report.best_valid_auc:.6f}")
    for line in run_warnings(report):
        print(line)
    metrics, corr = evaluate(model, test_ds)
    print(f"test: auc={metrics.auc:.6f} logloss={metrics.logloss:.6f}")
    if corr.pairs:
        print(f"test: cec_sum={corr.total:.6f}")
    save_model(model, args.out)
    print(f"saved model to {args.out}")
    return 0


def _evaluate(args):
    """evaluate() of the --model file on the --data CSV, which must hold both classes."""
    model = load_model(args.model)
    ds = (load_synthetic_csv if args.encoded else load_table)(args.data, model.schema)
    check_both_classes(ds, f"{args.data}: evaluation")
    return evaluate(model, ds)


def _metrics_record(metrics, corr) -> dict:
    return {
        "auc": metrics.auc,
        "logloss": metrics.logloss,
        "num_samples": metrics.num_samples,
        "cec_pairs": [{"m1": m1, "m2": m2, "cec": value} for (m1, m2), value in sorted(corr.pairs.items())],
        "cec_sum": corr.total,
    }


def _cmd_eval(args) -> int:
    _check_outputs((args.model, args.data), ("--report", args.report))
    metrics, corr = _evaluate(args)
    record = _metrics_record(metrics, corr)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0


def _cmd_cec_report(args) -> int:
    _check_outputs((args.model, args.data), ("--csv", args.csv))
    _, corr = _evaluate(args)
    if not corr.pairs:
        print("model has a single expert; no pairs to report", file=sys.stderr)
        return 1
    with open(args.csv, "w", encoding="utf-8") as fh:
        fh.write(corr.to_csv())
    print(corr.to_csv(), end="")
    return 0


def _cmd_gen_synth(args) -> int:
    sidecar = args.out + ".params"
    _check_outputs((args.spec,), ("--out", args.out), ("--out sidecar", sidecar))
    ds, params = gen_synthetic(**synth_arguments(args.spec))
    save_table(ds, args.out)
    save_synthetic_params(params, sidecar)
    rate = float(ds.labels.mean())
    print(f"wrote {len(ds)} rows to {args.out} (positive rate {rate:.4f})")
    print(f"wrote generator parameters to {sidecar}")
    return 0


def _cmd_gradcheck(args) -> int:
    failed = 0
    for name, report in run_suite(**(gradcheck_arguments(args.config) if args.config else {})):
        worst = "" if report.passed else " worst={}[{}]".format(*report.worst)
        print(f"{'PASS' if report.passed else 'FAIL'} {name}: max_rel_err={report.max_relative_error:.3e}{worst}")
        failed += not report.passed
    if failed:
        print(f"{failed} gradient check(s) failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moectr",
        description="Train and analyze de-correlated mixture-of-experts CTR models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--encoded", action="store_true", help="cells are bucket ids")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cec-report", help="pairwise cross-expert correlation CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--encoded", action="store_true", help="cells are bucket ids")
    p.set_defaults(func=_cmd_cec_report)

    p = sub.add_parser("gen-synth", help="generate a synthetic click log")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("gradcheck", help="run the micro finite-difference suite")
    p.add_argument("--config", required=False, default=None)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
