"""Command-line front end.

Verbs:
  run       full repair pipeline over a features CSV and a votes CSV
  theory    numeric checks of the method's guarantees (exit 3 on failure)
  lf-bank   materialize a built-in labeling-function bank from a raw CSV
  validate  consistency checks on a features/votes pair

Exit codes: 0 success, 1 input or validation error, 2 numerical failure,
3 theory-suite assertion failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .core import NumericalError, PipelineConfig, ValidationError, validate_dataset
from .lfbank import apply_lf_bank, builtin_bank
from .pipeline import (
    load_features_csv,
    load_votes_csv,
    parse_config_text,
    parse_config_value,
    read_raw_csv,
    read_text,
    run_pipeline,
    write_theory_artifacts,
    write_votes_csv,
)
from .synthetic import run_theory_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_THEORY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; keep 2 reserved for
    # numerical failures and report usage problems as input errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH",
                   help="flat key=value config file; flags override it")
    for f in fields(PipelineConfig):
        p.add_argument(_flag(f.name), dest=f.name, metavar="V",
                       help=f.metadata["help"])


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    overrides = {}
    for f in fields(PipelineConfig):
        raw = getattr(args, f.name, None)
        if raw is None:
            continue
        try:
            overrides[f.name] = parse_config_value(f.name, raw)
        except ValueError:
            raise ValidationError(
                f"{_flag(f.name)}: bad value {raw!r}") from None
    kwargs = parse_config_text(read_text(args.config)) if args.config else {}
    return PipelineConfig(**(kwargs | overrides))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="otrelabel", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run the repair pipeline")
    run.add_argument("--features", required=True, metavar="CSV")
    run.add_argument("--votes", required=True, metavar="CSV")
    run.add_argument("--out", required=True, metavar="DIR")
    run.add_argument("--group-col", default="group")
    run.add_argument("--label-col", default="label")
    run.add_argument("--passthrough", action="store_true",
                     help="skip the transport stage (plain WS baseline)")
    _add_config_flags(run)

    theory = sub.add_parser("theory", help="run the numeric theory checks")
    theory.add_argument("--out", default=".", metavar="DIR")

    bank = sub.add_parser("lf-bank", help="materialize a built-in LF bank")
    bank.add_argument("--bank", required=True,
                      help="bank name: adult-v1 or bank-v1")
    bank.add_argument("--raw", required=True, metavar="CSV",
                      help="raw table with the bank's documented columns")
    bank.add_argument("--out", required=True, metavar="CSV",
                      help="votes CSV to write")
    bank.add_argument("--category-map", metavar="JSON",
                      help="optional {column: {alias: canonical}} spelling map")

    val = sub.add_parser("validate", help="check a features/votes pair")
    val.add_argument("--features", required=True, metavar="CSV")
    val.add_argument("--votes", required=True, metavar="CSV")
    val.add_argument("--group-col", default="group")
    val.add_argument("--label-col", default="label")
    return parser


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    manifest = run_pipeline(
        cfg,
        features_path=args.features,
        votes_path=args.votes,
        out_dir=args.out,
        group_col=args.group_col,
        label_col=args.label_col,
        passthrough=args.passthrough,
    )
    print(f"wrote artifacts to {args.out} (digest {manifest.digest()[:12]})")
    return EXIT_OK


def _cmd_theory(args) -> int:
    bundle = run_theory_suite()
    write_theory_artifacts(bundle, args.out)
    for name, report in bundle.items():
        if name != "passed":
            print(f"{name}: {'ok' if report['passed'] else 'FAILED'}")
    return EXIT_OK if bundle["passed"] else EXIT_THEORY


def _cmd_lf_bank(args) -> int:
    rules = builtin_bank(args.bank)
    table = read_raw_csv(args.raw)
    category_map = None
    if args.category_map:
        try:
            category_map = json.loads(read_text(args.category_map))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{args.category_map}: {exc}") from exc
    wl = apply_lf_bank(table, rules, category_map)
    write_votes_csv(wl, args.out)
    print(f"wrote {wl.n} x {wl.m} votes to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    ds = load_features_csv(args.features, args.group_col, args.label_col)
    wl = load_votes_csv(args.votes)
    validate_dataset(ds, wl)
    print("ok")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "theory": _cmd_theory,
    "lf-bank": _cmd_lf_bank,
    "validate": _cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
