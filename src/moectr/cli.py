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
import sys

from .config import GradcheckSpec, RunConfig, SynthSpec
from .data import gen_synthetic, load_synthetic_csv, load_table, save_synthetic_params, save_table
from .gradsuite import run_suite
from .model import load_model, param_count, save_model
from .parallel import describe
from .trainer import evaluate, train_loop


def _cmd_train(args) -> int:
    cfg = RunConfig.from_file(args.config)
    train_config = cfg.train_config()  # a run that cannot train or build fails before any CSV is read
    model = cfg.build()
    train_ds, valid_ds, test_ds = cfg.load_datasets()
    print(
        f"model: mode={cfg.mode} experts={list(cfg.expert_specs)} "
        f"params={param_count(model)}"
    )
    print(f"data: train={len(train_ds)} valid={len(valid_ds)} test={len(test_ds)}")
    print(describe(model, min(train_config.batch_size, len(train_ds))))
    report = train_loop(model, train_ds, valid_ds, train_config)
    for rec in report.epochs:
        print(
            f"epoch {rec.epoch}: train_logloss={rec.train_logloss:.6f} "
            f"valid_auc={rec.valid_auc:.6f} valid_cec_sum={rec.valid_cec_sum:.6f} "
            f"({rec.seconds:.1f}s)"
        )
    print(f"best epoch {report.best_epoch}: valid_auc={report.best_valid_auc:.6f}")
    metrics, corr = evaluate(model, test_ds)
    print(f"test: auc={metrics.auc:.6f} logloss={metrics.logloss:.6f}")
    if corr.pairs:
        print(f"test: cec_sum={corr.total:.6f}")
    save_model(model, args.out)
    print(f"saved model to {args.out}")
    return 0


def _load_eval_data(args, model):
    return (load_synthetic_csv if args.encoded else load_table)(args.data, model.schema)


def _metrics_record(metrics, corr) -> dict:
    return {
        "auc": metrics.auc,
        "logloss": metrics.logloss,
        "num_samples": metrics.num_samples,
        "cec_pairs": [{"m1": m1, "m2": m2, "cec": value} for (m1, m2), value in sorted(corr.pairs.items())],
        "cec_sum": corr.total,
    }


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = _load_eval_data(args, model)
    metrics, corr = evaluate(model, ds)
    record = _metrics_record(metrics, corr)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0


def _cmd_cec_report(args) -> int:
    model = load_model(args.model)
    ds = _load_eval_data(args, model)
    _, corr = evaluate(model, ds)
    if not corr.pairs:
        print("model has a single expert; no pairs to report", file=sys.stderr)
        return 1
    with open(args.csv, "w", encoding="utf-8") as fh:
        fh.write(corr.to_csv())
    print(corr.to_csv(), end="")
    return 0


def _cmd_gen_synth(args) -> int:
    spec = SynthSpec.from_file(args.spec)
    ds, params = gen_synthetic(
        spec.num_fields,
        spec.cardinalities,
        spec.latent_dim,
        spec.rows,
        spec.seed,
        c0=spec.c0,
    )
    save_table(ds, args.out)
    sidecar = args.out + ".params"
    save_synthetic_params(params, sidecar)
    rate = float(ds.labels.mean())
    print(f"wrote {len(ds)} rows to {args.out} (positive rate {rate:.4f})")
    print(f"wrote generator parameters to {sidecar}")
    return 0


def _cmd_gradcheck(args) -> int:
    spec = GradcheckSpec.from_file(args.config) if args.config else GradcheckSpec()
    failed = 0
    for name, report in run_suite(h=spec.h, tol=spec.tol):
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {name}: max_rel_err={report.max_relative_error:.3e}")
        if not report.passed:
            failed += 1
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
