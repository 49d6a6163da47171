"""Command-line interface for the benchmark and scenario tooling.

Subcommands::

    augmi bench actions    compare estimators across a scenario's actions
    augmi bench dims       sweep the state dimension at a fixed action
    augmi scenario generate
    augmi mi eval          one estimator, one action, one seed -> CSV row

An option that several subcommands share is declared once.  Counts must
be at least 1, ``--seed`` non-negative and a correlation in [0, 1); each is
checked before any scenario is built or file written.

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


# --generate key -> (generate_scenario argument, value type)
_GENERATE_KEYS = {
    "d": ("target_dim", int), "dim": ("target_dim", int), "actions": ("n_actions", int),
    "correlation": ("correlation_strength", float), "range": ("sensing_range", float),
}


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
        if key not in _GENERATE_KEYS:
            raise UsageError(f"unknown --generate key {key!r}")
        name, kind = _GENERATE_KEYS[key]
        try:
            spec[name] = kind(value)
        except ValueError:
            raise UsageError(f"bad --generate item {item!r}, expected {kind.__name__}") from None
    if "target_dim" not in spec:
        raise UsageError("--generate needs at least D=<dim>")
    spec.setdefault("n_actions", 4)
    if spec["n_actions"] < 1:
        raise UsageError(f"--generate actions must be at least 1, got {spec['n_actions']}")
    _check_correlation("--generate correlation", spec.get("correlation_strength", 0.0))
    return spec


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
        help="zero the elapsed_ns column for byte-reproducible output",
    )

    bench = sub.add_parser("bench", help="run benchmark experiments")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    actions = bench_sub.add_parser(
        "actions", parents=[experiment], help="action-comparison experiment"
    )
    actions.add_argument("--scenario", help="scenario JSON file")
    actions.add_argument("--generate", help="inline scenario spec, e.g. D=150,actions=4")
    actions.set_defaults(handler=_cmd_bench_actions)

    dims = bench_sub.add_parser("dims", parents=[experiment], help="dimension-sweep experiment")
    dims.add_argument("--dims", required=True, help="comma list, ascending, e.g. 10,50,100,150")
    dims.add_argument("--correlation", type=float, default=0.3)
    dims.set_defaults(handler=_cmd_bench_dims)

    scenario = sub.add_parser("scenario", help="scenario tooling")
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    gen = scenario_sub.add_parser("generate", help="write a scenario JSON file")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--actions", type=int, default=4)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--correlation", type=float, default=0.3)
    gen.add_argument("--sensing-range", type=float, default=25.0)
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
    """Reject a count option below 1, a seed below 0 and a correlation
    outside [0, 1); a command checks only the options it has."""
    for name, least in (("particles", 1), ("trials", 1), ("actions", 1), ("seed", 0)):
        if getattr(args, name, least) < least:
            raise UsageError(f"--{name} must be at least {least}, got {getattr(args, name)}")
    _check_correlation("--correlation", getattr(args, "correlation", 0.0))


def _check_correlation(option: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise UsageError(f"{option} must lie in [0, 1), got {value}")


def _load_or_generate(args) -> "SlamScenario":
    if bool(args.scenario) == bool(args.generate):
        raise UsageError("provide exactly one of --scenario or --generate")
    if args.scenario:
        return load_scenario(args.scenario)
    spec = _parse_generate_spec(args.generate)
    return generate_scenario(seed=args.seed, **spec)


def _cmd_bench_actions(args) -> int:
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
    try:
        dims = [int(v) for v in args.dims.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--dims must be a comma list of integers, got {args.dims!r}") from None
    if not dims:
        raise UsageError("--dims must name at least one dimension")
    if dims != sorted(set(dims)):
        raise UsageError(f"--dims must be strictly ascending, got {args.dims!r}")
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
