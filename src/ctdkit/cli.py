"""Command-line interface.

Subcommands: validate, count, generate, analyze, augment, project,
instantiate.  Exit codes: 0 success, 1 domain or validation error,
2 I/O or usage error.  JSON outputs carry a schema_version field.
The CTDKIT_FORMAT environment variable sets the default output format
(csv or json, in any case); flags override it, and any other value is a
usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import coverage, cycles, generator, plans
from .errors import CtdError
from .instantiate import FreeAttribute, instantiate, randomize_free
from .model import ModelSpace, _checked_space, load_model, validate_model

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
FORMATS = ("csv", "json")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "format" in args and args.format is None:
        env = os.environ.get("CTDKIT_FORMAT", "csv")
        if env.lower() not in FORMATS:
            parser.error(f"CTDKIT_FORMAT must be csv or json, got {env!r}")
        args.format = env.lower()
    try:
        return args.handler(args)
    except CtdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctdkit",
        description="Combinatorial test design: model validation, counting, "
                    "plan generation, coverage analysis, cycle augmentation, "
                    "and instantiation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("count", help="print combination and requirement counts")
    p.add_argument("model")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("generate", help="generate a covering test plan")
    p.add_argument("model")
    p.add_argument("--t", type=int, required=True, help="interaction level")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--randomize-ties", action="store_true")
    _format_args(p)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("analyze", help="measure coverage of an existing plan")
    p.add_argument("model")
    p.add_argument("plan", help="plan CSV file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max-missing", type=_non_negative_int, default=20,
                   help="cap on listed missing requirements")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("augment",
                       help="add up to n tests covering what passed tests miss")
    p.add_argument("model")
    p.add_argument("plan", help="prior plan CSV file")
    p.add_argument("results", help="results CSV (test,verdict)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="max new tests")
    p.add_argument("--seed", type=int, default=0)
    _format_args(p)
    p.set_defaults(handler=cmd_augment)

    p = sub.add_parser("project", help="enumerate legal tuples, optionally fixed")
    p.add_argument("model")
    p.add_argument("--fix", action="append", default=[], metavar="ATTR=VALUE")
    p.add_argument("--limit", type=_non_negative_int, default=None)
    p.set_defaults(handler=cmd_project)

    p = sub.add_parser("instantiate", help="concretize subdomain values")
    p.add_argument("model")
    p.add_argument("plan", help="abstract plan CSV file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--free", action="append", default=[], metavar="NAME=LO:HI",
                   help="randomized column not in the model")
    _format_args(p)
    p.set_defaults(handler=cmd_instantiate)

    return parser


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _format_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")


def _load_valid(path) -> ModelSpace:
    """The model's legal space, compiled once; no redundancy warnings."""
    report, space = _checked_space(load_model(path))
    if space is None:
        raise CtdError("invalid model:\n" + report.format())
    return space


def _emit(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# handlers

def cmd_validate(args) -> int:
    model = load_model(args.model)
    report = validate_model(model)
    print(report.format())
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_count(args) -> int:
    space = _load_valid(args.model)
    model = space.model
    print(f"cartesian: {model.cartesian_count()}")
    print(f"legal: {space.tuple_count()}")
    for t in (2, 3):
        if t <= len(model.attributes):
            print(f"feasible t={t} requirements: "
                  f"{coverage.feasible_count(space, t)}")
    return EXIT_OK


def cmd_generate(args) -> int:
    space = _load_valid(args.model)
    plan = generator.generate_plan(space, args.t, args.budget, args.seed,
                                   args.randomize_ties)
    columns = space.model.attribute_names
    if args.format == "json":
        text = plans.plan_json_text(plan, columns, {"seed": args.seed})
    else:
        text = plans.plan_csv_text(plan.tests, columns)
    _emit(text, args.output)
    summary = (f"tests={len(plan)} coverage={plan.percent:.2f}% "
               f"partial={'true' if plan.partial else 'false'}")
    print(summary, file=sys.stderr if args.output is None else sys.stdout)
    return EXIT_OK


def _read_plan_for(space: ModelSpace, path):
    columns, rows = plans.read_plan_csv(path)
    plans.check_plan_columns(columns, space.model)
    return rows


def cmd_analyze(args) -> int:
    space = _load_valid(args.model)
    rows = _read_plan_for(space, args.plan)
    report = coverage.coverage_of(space, rows, args.t)
    if args.format == "json":
        print(json.dumps(report.to_json(args.max_missing), indent=2))
    else:
        print(report.format(args.max_missing))
    return EXIT_OK


def cmd_augment(args) -> int:
    space = _load_valid(args.model)
    rows = _read_plan_for(space, args.plan)
    results = plans.read_results_csv(args.results)
    verdicts = plans.resolve_results(results, rows, space.model.attribute_names)
    # augment_plan typechecks the passed rows; the rest are checked here
    for row, v in zip(rows, verdicts):
        if not v:
            space.model.check_assignment(row, full=True)
    passed = [row for row, v in zip(rows, verdicts) if v]
    result = cycles.augment_plan(space, args.t, passed, args.n, args.seed)
    columns = space.model.attribute_names
    if args.format == "json":
        text = plans.plan_json_text(result.plan, columns, {
            "seed": args.seed,
            "residual_before": result.residual_before,
            "residual_after": result.residual_after,
        })
    else:
        text = plans.plan_csv_text(result.plan.tests, columns)
    _emit(text, args.output)
    summary = (f"new={len(result.plan)} residual_before={result.residual_before} "
               f"residual_after={result.residual_after} "
               f"coverage={result.plan.percent:.2f}%")
    print(summary, file=sys.stderr if args.output is None else sys.stdout)
    return EXIT_OK


def cmd_project(args) -> int:
    space = _load_valid(args.model)
    partial = {}
    for item in args.fix:
        attr, sep, value = item.partition("=")
        if not sep:
            raise CtdError(f"--fix expects ATTR=VALUE, got {item!r}")
        attr = attr.strip()
        if attr in partial:
            raise CtdError(f"--fix repeats attribute {attr!r}")
        partial[attr] = value.strip()
    fn = space.project(partial)
    rows = list(space.assignments(fn, limit=args.limit))
    sys.stdout.write(plans.plan_csv_text(rows, space.model.attribute_names))
    return EXIT_OK


def cmd_instantiate(args) -> int:
    space = _load_valid(args.model)
    rows = _read_plan_for(space, args.plan)
    concrete = instantiate(space.model, rows, args.seed)
    free = [_parse_free(item) for item in args.free]
    concrete = randomize_free(space.model, concrete, free, args.seed)
    if args.format == "json":
        text = json.dumps(concrete.to_json(), indent=2) + "\n"
    else:
        text = plans.plan_csv_text(concrete.rows, concrete.columns)
    _emit(text, args.output)
    return EXIT_OK


def _parse_free(item: str) -> FreeAttribute:
    name, sep, rng = item.partition("=")
    lo, sep2, hi = rng.partition(":")
    if not sep or not sep2:
        raise CtdError(f"--free expects NAME=LO:HI, got {item!r}")
    try:
        return FreeAttribute(name.strip(), int(lo), int(hi))
    except ValueError:
        raise CtdError(f"--free bounds must be integers, got {item!r}") from None


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
