"""augmi runs on numpy alone.

``import augmi`` loads no scipy module: at the time of writing,
``scipy.linalg`` alone added about 0.25 s and 22 MB of peak RSS to every
process that imports the library.  The imports run in a fresh interpreter,
so modules that other tests load do not count.  A second interpreter makes
scipy unimportable and runs every estimator and both planner modes, so no
lazy scipy import can hide on any path; it must also give the same values
as this process, where scipy is importable.
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

# Reads the pickled plan steps from stdin and prints every value as JSON.
_BLOCKED_PROBE = """
import json, pickle, sys
sys.modules["scipy"] = None  # any later `import scipy...` raises ImportError
sys.path.insert(0, sys.argv[1])
from test_import_footprint import run_everything
steps = pickle.load(sys.stdin.buffer)
print(json.dumps(run_everything(steps)))
"""


def run_everything(steps) -> dict:
    """Every estimator on a small scenario's actions, and a horizon-2 SMC
    solve in both reward modes on ``steps``, as float hex."""
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
    from conftest import scenario_plan_steps

    steps = scenario_plan_steps(generate_scenario(30, 3, seed=3), 2)
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_PROBE, str(SRC)],
        input=pickle.dumps(steps),
        capture_output=True,
        cwd=Path(__file__).parent,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == run_everything(steps)
