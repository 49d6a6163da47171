"""One rule per input kind: every count an entry point takes is checked by
``state._check_count``, so a bool, a float and a value below the entry's
floor each raise the entry's error type, in one message form."""

import numpy as np
import pytest

from augmi import (
    REWARD_CONSECUTIVE_MI,
    AnalyticMiBackend,
    BudgetError,
    SampleBudget,
    ScenarioError,
    VariableBlock,
    evaluate_method,
    generate_scenario,
    invmi_kde_augmented_mi,
    mismc_context,
    mismc_update,
    naive_kde_augmented_mi,
    run_actions_experiment,
    run_dimension_sweep,
    sample_particles,
    sequential_mi_direct,
    solve,
)
from augmi.cli import main
from conftest import make_chain_1d

PRIOR, ACTION = make_chain_1d()


def _scenario():
    return generate_scenario(10, 1, seed=1)


def _mismc_update(additional_n1):
    rng = np.random.default_rng(3)
    context = mismc_context(sample_particles(PRIOR, 20, rng), ACTION, SampleBudget(n1=20), rng)
    return mismc_update(context.empty_accumulator(), additional_n1, context)


# entry -> (name in the error, floor, error type, a float, call with the value)
ENTRIES = {
    "VariableBlock offset": (
        "block 'x': offset", 0, ValueError, 2.5, lambda v: VariableBlock("x", v, 1)
    ),
    "naive_kde n": ("n", 2, ValueError, 2.5, lambda v: naive_kde_augmented_mi(PRIOR, ACTION, v)),
    "invmi_kde n": ("n", 2, ValueError, 2.5, lambda v: invmi_kde_augmented_mi(PRIOR, ACTION, v)),
    "mismc_update additional_n1": ("additional_n1", 0, BudgetError, 2.5, _mismc_update),
    "solve horizon": (
        "horizon", 1, ValueError, 2.5,
        lambda v: solve(PRIOR, [[ACTION]], v, REWARD_CONSECUTIVE_MI, AnalyticMiBackend()),
    ),
    "sequential_mi_direct horizon": (
        "horizon", 1, ValueError, 2.5,
        lambda v: sequential_mi_direct(PRIOR, [ACTION], v, AnalyticMiBackend()),
    ),
    "generate_scenario target_dim": (
        "target_dim", 6, ScenarioError, 30.7, lambda v: generate_scenario(v, 2)
    ),
    "generate_scenario n_actions": (
        "n_actions", 1, ScenarioError, 2.5, lambda v: generate_scenario(30, v)
    ),
    "generate_scenario seed": (
        "seed", 0, ScenarioError, 2.5, lambda v: generate_scenario(30, 2, seed=v)
    ),
    "evaluate_method n_particles": (
        "n_particles", 1, ValueError, 2.5,
        lambda v: evaluate_method(_scenario(), "a1", "analytic", v, 0),
    ),
    "run_actions_experiment n_particles": (
        "n_particles", 1, ValueError, 2.5,
        lambda v: run_actions_experiment(_scenario(), ["analytic"], v, 1, 0),
    ),
    "run_actions_experiment trials": (
        "trials", 1, ValueError, 2.5,
        lambda v: run_actions_experiment(_scenario(), ["analytic"], 10, v, 0),
    ),
    "run_dimension_sweep dims": (
        "dims items", 6, ValueError, 10.5, lambda v: run_dimension_sweep([v], ["analytic"], 10, 1, 0)
    ),
}


@pytest.mark.parametrize("kind", ["bool", "float", "below"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_count_goes_through_one_rule(entry, kind):
    name, least, error, real, call = ENTRIES[entry]
    value, message = {
        "bool": (True, f"{name} must be an integer, got True"),
        "float": (real, f"{name} must be an integer, got {real!r}"),
        "below": (least - 1, f"{name} must be >= {least}, got {least - 1}"),
    }[kind]
    with pytest.raises(error) as info:
        call(value)
    assert str(info.value) == message


# entry -> (name in the error, call with the value); a range is a real number,
# so a bool and a numeric string raise before the range is read
RANGES = {
    "generate_scenario correlation_strength": (
        "correlation_strength",
        lambda v: generate_scenario(16, 1, seed=7, correlation_strength=v),
    ),
}


@pytest.mark.parametrize("value", [False, True, np.bool_(False), "25", "0.3"])
@pytest.mark.parametrize("entry", list(RANGES))
def test_every_range_is_a_real_number(entry, value):
    name, call = RANGES[entry]
    with pytest.raises(ScenarioError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize("entry", list(RANGES))
def test_ranges_take_ints_floats_and_numpy_numbers(entry):
    _name, call = RANGES[entry]
    for value in (0, 0.0, np.float64(0), np.int64(0)):
        call(value)


# entry -> (call, message); a list an experiment runs over names at least one
# item, or the experiment would return no rows
EMPTY = {
    "run_actions_experiment methods": (
        lambda: run_actions_experiment(_scenario(), [], 10, 1, 0),
        "methods must name at least one method",
    ),
    "run_dimension_sweep methods": (
        lambda: run_dimension_sweep([10], [], 10, 1, 0), "methods must name at least one method"
    ),
    "run_dimension_sweep dims": (
        lambda: run_dimension_sweep([], ["analytic"], 10, 1, 0),
        "dims must name at least one dimension",
    ),
}


@pytest.mark.parametrize("entry", list(EMPTY))
def test_an_empty_list_is_rejected(entry):
    call, message = EMPTY[entry]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["", "5,10", "10,10", "50,10"])
def test_the_cli_reads_dims_by_the_librarys_rule(text, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["bench", "dims", "--dims", text, "--methods", "analytic",
                 "--seed", "1", "--out", str(out)])
    assert code == 1 and not out.exists()
    with pytest.raises(ValueError) as info:
        run_dimension_sweep([int(v) for v in text.split(",") if v], ["analytic"], 10, 1, 0)
    assert capsys.readouterr().err == f"usage error: --{info.value}\n"
