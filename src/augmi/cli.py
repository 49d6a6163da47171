"""Command-line interface for the benchmark and scenario tooling.

Subcommands::

    augmi bench actions    compare estimators across a scenario's actions
    augmi bench dims       sweep the state dimension at a fixed action
    augmi scenario generate
    augmi mi eval          one estimator, one action, one seed -> CSV row

Exit codes: 0 success, 1 usage error, 2 estimator or scenario error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    CSV_HEADER,
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


def _parse_generate_spec(text: str) -> dict:
    """Parse '--generate D=150,actions=4[,correlation=0.3]'."""
    spec = {}
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise UsageError(f"bad --generate item {item!r}, expected key=value")
        key, value = item.split("=", 1)
        key = key.strip().lower()
        if key in ("d", "dim"):
            spec["target_dim"] = int(value)
        elif key == "actions":
            spec["n_actions"] = int(value)
        elif key == "correlation":
            spec["correlation_strength"] = float(value)
        elif key == "range":
            spec["sensing_range"] = float(value)
        else:
            raise UsageError(f"unknown --generate key {key!r}")
    if "target_dim" not in spec:
        raise UsageError("--generate needs at least D=<dim>")
    spec.setdefault("n_actions", 4)
    return spec


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="augmi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run benchmark experiments")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    actions = bench_sub.add_parser("actions", help="action-comparison experiment")
    actions.add_argument("--scenario", help="scenario JSON file")
    actions.add_argument("--generate", help="inline scenario spec, e.g. D=150,actions=4")
    actions.add_argument("--methods", required=True)
    actions.add_argument("--particles", type=int, default=300)
    actions.add_argument("--trials", type=int, default=100)
    actions.add_argument("--seed", type=int, required=True)
    actions.add_argument("--out", required=True)
    actions.add_argument(
        "--zero-elapsed",
        action="store_true",
        help="zero the elapsed_ns column for byte-reproducible output",
    )

    dims = bench_sub.add_parser("dims", help="dimension-sweep experiment")
    dims.add_argument("--dims", required=True, help="comma list, ascending, e.g. 10,50,100,150")
    dims.add_argument("--methods", required=True)
    dims.add_argument("--particles", type=int, default=300)
    dims.add_argument("--trials", type=int, default=100)
    dims.add_argument("--seed", type=int, required=True)
    dims.add_argument("--out", required=True)
    dims.add_argument("--correlation", type=float, default=0.3)
    dims.add_argument("--zero-elapsed", action="store_true")

    scenario = sub.add_parser("scenario", help="scenario tooling")
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    gen = scenario_sub.add_parser("generate", help="write a scenario JSON file")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--actions", type=int, default=4)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--correlation", type=float, default=0.3)
    gen.add_argument("--sensing-range", type=float, default=25.0)

    mi = sub.add_parser("mi", help="single MI evaluations")
    mi_sub = mi.add_subparsers(dest="mi_command", required=True)
    ev = mi_sub.add_parser("eval", help="evaluate one method on one action")
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--action", required=True)
    ev.add_argument("--method", required=True)
    ev.add_argument("--particles", type=int, default=300)
    ev.add_argument("--seed", type=int, required=True)

    return parser


def _check_counts(args) -> None:
    for name in ("particles", "trials"):
        if getattr(args, name) < 1:
            raise UsageError(f"--{name} must be at least 1, got {getattr(args, name)}")


def _load_or_generate(args) -> "SlamScenario":
    if bool(args.scenario) == bool(args.generate):
        raise UsageError("provide exactly one of --scenario or --generate")
    if args.scenario:
        return load_scenario(args.scenario)
    spec = _parse_generate_spec(args.generate)
    return generate_scenario(seed=args.seed, **spec)


def _cmd_bench_actions(args) -> int:
    _check_counts(args)
    scenario = _load_or_generate(args)
    failures: list[str] = []
    rows = run_actions_experiment(
        scenario,
        _parse_methods(args.methods),
        n_particles=args.particles,
        trials=args.trials,
        seed=args.seed,
        failures=failures,
    )
    return _finish_bench(args, rows, failures)


def _cmd_bench_dims(args) -> int:
    _check_counts(args)
    dims = [int(v) for v in args.dims.split(",") if v.strip()]
    if not dims:
        raise UsageError("--dims must name at least one dimension")
    failures: list[str] = []
    rows = run_dimension_sweep(
        dims,
        _parse_methods(args.methods),
        n_particles=args.particles,
        trials=args.trials,
        seed=args.seed,
        correlation_strength=args.correlation,
        failures=failures,
    )
    return _finish_bench(args, rows, failures)


def _finish_bench(args, rows, failures: list[str]) -> int:
    """Write a bench run's CSV, report its estimator failures, and pick the
    exit code."""
    if args.zero_elapsed:
        rows = zero_elapsed(rows)
    emit_csv(rows, args.out)
    for message in failures:
        print(f"estimator failure: {message}", file=sys.stderr)
    return EXIT_RUNTIME if failures else EXIT_OK


def _cmd_scenario_generate(args) -> int:
    scenario = generate_scenario(
        args.dim,
        args.actions,
        correlation_strength=args.correlation,
        seed=args.seed,
        sensing_range=args.sensing_range,
    )
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bench" and args.bench_command == "actions":
            return _cmd_bench_actions(args)
        if args.command == "bench" and args.bench_command == "dims":
            return _cmd_bench_dims(args)
        if args.command == "scenario" and args.scenario_command == "generate":
            return _cmd_scenario_generate(args)
        if args.command == "mi" and args.mi_command == "eval":
            return _cmd_mi_eval(args)
        raise UsageError(f"unhandled command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
