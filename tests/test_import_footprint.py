"""augmi runs on numpy alone.

``import augmi`` loads no scipy module: at the time of writing,
``scipy.linalg`` alone added about 0.25 s and 22 MB of peak RSS to every
process that imports the library.  The imports run in a fresh interpreter,
so modules that other tests load do not count.  A second interpreter makes
scipy unimportable and runs every estimator and both planner modes, so no
lazy scipy import can hide on any path; it must also give the same values
as this process, where scipy is importable.  The 1-D chain's SMC estimates
cover the fast Gauss transform's direct sum (n1 = 300) and its translation,
whose extended-precision tables are built at first use (n1 = 2000).
"""

import json
import pickle
import subprocess
import sys
from pathlib import Path

from augmi import (
    REWARD_CONSECUTIVE_MI,
    REWARD_INVOLVED_IG,
    SampleBudget,
    SmcMiBackend,
    generate_scenario,
    mismc_estimate,
    sample_particles,
    solve,
)
from augmi.bench import evaluate_method
from augmi.mi import ALL_METHODS

SRC = Path(__file__).resolve().parents[1] / "src"

_IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import augmi; "
    "print(' '.join(sorted(name for name in sys.modules "
    "if name == 'scipy' or name.startswith('scipy.'))))"
)

# Reads the pickled plan steps and chain from stdin and prints every value
# as JSON.
_BLOCKED_PROBE = """
import json, pickle, sys
sys.modules["scipy"] = None  # any later `import scipy...` raises ImportError
sys.path.insert(0, sys.argv[1])
from test_import_footprint import run_everything
steps, chain = pickle.load(sys.stdin.buffer)
print(json.dumps(run_everything(steps, chain)))
"""


def run_everything(steps, chain) -> dict:
    """Every estimator on a small scenario's actions, a horizon-2 SMC solve
    in both reward modes on ``steps``, and SMC estimates on the 1-D
    ``chain`` (prior, action) at n1 = 300 and 2000, as float hex."""
    slam = generate_scenario(30, 3, seed=3)
    values = {
        f"{method} {action.id}": evaluate_method(slam, action.id, method, 40, 7).value.hex()
        for method in ALL_METHODS
        for action in slam.actions
    }
    backend = SmcMiBackend(SampleBudget(n1=40))
    for mode in (REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI):
        result = solve(slam.prior, steps, 2, mode, backend, obs_samples=2, rng=5)
        values[mode] = [result.value.hex(), *result.best_sequence]
    prior, action = chain
    for n1 in (300, 2000):
        particles = sample_particles(prior, n1, 0)
        estimate = mismc_estimate(particles, action, SampleBudget(n1=n1), 1)
        values[f"chain {n1}"] = estimate.value.hex()
    return values


def test_import_loads_no_scipy():
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out == [], f"import augmi loaded {out}"


def test_every_method_and_planner_mode_runs_without_scipy():
    # conftest imports scipy references, so only this process may load it
    from conftest import make_chain_1d, scenario_plan_steps

    steps = scenario_plan_steps(generate_scenario(30, 3, seed=3), 2)
    chain = make_chain_1d()
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_PROBE, str(SRC)],
        input=pickle.dumps((steps, chain)),
        capture_output=True,
        cwd=Path(__file__).parent,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == run_everything(steps, chain)
