"""Command-line interface for the benchmark and scenario tooling.

Subcommands::

    augmi bench actions    compare estimators across a scenario file's actions
    augmi bench dims       sweep the state dimension at a fixed action
    augmi scenario generate
    augmi mi eval          one estimator, one action, one seed -> CSV row

An option that several subcommands share is declared once.  Every option
is checked by the library's rule for its kind, under the option's name,
before any scenario is built or file written: a count (at least 1; a state
dimension, ``--dims`` included, at least 6; ``--seed`` at least 0).

Exit codes: 0 success, 1 usage error, 2 estimator or scenario error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    CSV_HEADER,
    _check_dims,
    emit_csv,
    evaluate_method,
    format_row,
    result_row,
    run_actions_experiment,
    run_dimension_sweep,
    zero_elapsed,
)
from .mi import ALL_METHODS
from .scenario import generate_scenario, load_scenario, save_scenario
from .state import _check_count

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exceptions, not exit(2)."""

    def error(self, message):
        raise UsageError(message)


def _method_tag(name: str) -> str:
    """One method name, dashes or underscores, as its ``ALL_METHODS`` tag."""
    tag = name.strip().replace("-", "_")
    if tag not in ALL_METHODS:
        raise UsageError(
            f"unknown method {name.strip()!r}; choose from "
            + ",".join(m.replace("_", "-") for m in ALL_METHODS)
        )
    return tag


def _parse_methods(text: str) -> list[str]:
    methods = [_method_tag(name) for name in text.split(",") if name.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    return methods


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="augmi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # The options of every estimator run, and those of both experiments.
    estimator = argparse.ArgumentParser(add_help=False)
    estimator.add_argument("--particles", type=int, default=300)
    estimator.add_argument("--seed", type=int, required=True)
    experiment = argparse.ArgumentParser(add_help=False, parents=[estimator])
    experiment.add_argument("--methods", required=True)
    experiment.add_argument("--trials", type=int, default=100)
    experiment.add_argument("--out", required=True)
    experiment.add_argument(
        "--zero-elapsed",
        action="store_true",
        help="zero the elapsed_ns column for byte-reproducible output "
        "at the same BLAS thread count",
    )

    bench = sub.add_parser("bench", help="run benchmark experiments")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    actions = bench_sub.add_parser(
        "actions", parents=[experiment], help="action-comparison experiment"
    )
    actions.add_argument("--scenario", required=True, help="scenario JSON file")
    actions.set_defaults(handler=_cmd_bench_actions)

    dims = bench_sub.add_parser("dims", parents=[experiment], help="dimension-sweep experiment")
    dims.add_argument("--dims", required=True, help="comma list, ascending, e.g. 10,50,100,150")
    dims.set_defaults(handler=_cmd_bench_dims)

    scenario = sub.add_parser("scenario", help="scenario tooling")
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    gen = scenario_sub.add_parser("generate", help="write a scenario JSON file")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--actions", type=int, default=4)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_scenario_generate)

    mi = sub.add_parser("mi", help="single MI evaluations")
    mi_sub = mi.add_subparsers(dest="mi_command", required=True)
    ev = mi_sub.add_parser("eval", parents=[estimator], help="evaluate one method on one action")
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--action", required=True)
    ev.add_argument("--method", required=True)
    ev.set_defaults(handler=_cmd_mi_eval)

    return parser


def _check_ranges(args) -> None:
    """Check each option the command has by the library's rule for it."""
    for name, least in (("particles", 1), ("trials", 1), ("actions", 1), ("dim", 6), ("seed", 0)):
        _check_count(f"--{name}", getattr(args, name, least), UsageError, least)


def _cmd_bench_actions(args) -> int:
    return _run_bench(args, run_actions_experiment, load_scenario(args.scenario))


def _cmd_bench_dims(args) -> int:
    try:
        dims = [int(v) for v in args.dims.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--dims must be a comma list of integers, got {args.dims!r}") from None
    _check_dims("--dims", dims, UsageError)
    return _run_bench(args, run_dimension_sweep, dims)


def _run_bench(args, experiment, subject) -> int:
    """Run a bench experiment on ``subject`` (the scenario, or the dims),
    write its CSV, report its estimator failures, and pick the exit code."""
    failures: list[str] = []
    rows = experiment(
        subject,
        _parse_methods(args.methods),
        n_particles=args.particles,
        trials=args.trials,
        seed=args.seed,
        failures=failures,
    )
    if args.zero_elapsed:
        rows = zero_elapsed(rows)
    emit_csv(rows, args.out)
    for message in failures:
        print(f"estimator failure: {message}", file=sys.stderr)
    return EXIT_RUNTIME if failures else EXIT_OK


def _cmd_scenario_generate(args) -> int:
    scenario = generate_scenario(args.dim, args.actions, seed=args.seed)
    save_scenario(scenario, args.out)
    return EXIT_OK


def _cmd_mi_eval(args) -> int:
    method = _method_tag(args.method)
    scenario = load_scenario(args.scenario)
    est = evaluate_method(scenario, args.action, method, args.particles, args.seed)
    row = result_row(est, scenario, args.action, 0, args.particles, args.seed)
    print(CSV_HEADER)
    print(format_row(row))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_ranges(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
