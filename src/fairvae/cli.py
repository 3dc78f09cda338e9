"""Command-line entry points: run, ablate, sweep, export-embeddings, eval.

Configuration is a JSON file of ExperimentConfig keys; every field has a
default and any can be overridden with ``--set key=value`` (values parsed as
JSON, falling back to plain strings). Outputs go to ``output_dir``, which
``--out`` sets. Input errors exit with status 2 and print ``error: ...``: a
bad config file or value (``ConfigError``, a negative ``--seed`` too), a file
that cannot be read or written (``OSError``), a malformed data file
(``ParseError``, ``SchemaError``), a damaged checkpoint, one another version
wrote or one without encoding statistics (``CheckpointError``) or a test file
on which a metric is undefined (``UndefinedMetric``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import data as D
from . import experiments as X
from .metrics import UndefinedMetric
from .models import CheckpointError


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise D.ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _load_config(args) -> X.ExperimentConfig:
    overrides = _parse_overrides(args.set)
    if args.train is not None:
        overrides["train_path"] = args.train
    if args.test is not None:
        overrides["test_path"] = args.test
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.config:
        return X.ExperimentConfig.from_file(args.config, overrides)
    return X.ExperimentConfig.from_dict(overrides)


def _add_config_args(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--train", help="Adult-format training file")
    parser.add_argument("--test", help="Adult-format test file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override any config key (value parsed as JSON)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fairvae",
        description="Semi-supervised fair representation learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="the full method/backbone/ratio grid")
    _add_config_args(p_run)

    p_ablate = sub.add_parser("ablate", help="single-switch-off ablation variants")
    _add_config_args(p_ablate)

    p_sweep = sub.add_parser("sweep", help="sweep lambda or unlabeled fraction")
    p_sweep.add_argument("--axis", choices=X.SWEEP_AXES, required=True)
    _add_config_args(p_sweep)

    p_export = sub.add_parser("export-embeddings",
                              help="dump bias-free representations to CSV")
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--test", required=True)
    p_export.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval",
                            help="evaluate a checkpoint on an Adult-format file")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            table = X.run_experiments(_load_config(args))
            print(table.render_text())
        elif args.command == "ablate":
            table = X.run_ablation(_load_config(args))
            print(table.render_text())
        elif args.command == "sweep":
            table = X.run_sweep(_load_config(args), args.axis)
            print(table.render_text())
        elif args.command == "export-embeddings":
            n = X.export_embeddings(args.checkpoint, args.test, args.out)
            print(f"wrote {n} rows to {args.out}")
        elif args.command == "eval":
            report = X.evaluate_checkpoint(args.checkpoint, args.test,
                                           seed=args.seed)
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    except (OSError, D.ConfigError, D.ParseError, D.SchemaError,
            CheckpointError, UndefinedMetric) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
