import csv
import json
import subprocess
import sys
from typing import NamedTuple

import pytest

from augmi import (
    emit_csv,
    generate_scenario,
    load_scenario,
    read_csv,
    run_actions_experiment,
    save_scenario,
)
from augmi.bench import zero_elapsed
from augmi.cli import main
from conftest import scenario_document


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys):
    """Run ``augmi`` in this process; returns its exit code and output."""

    def run(*args):
        capsys.readouterr()
        code = main(list(args))
        captured = capsys.readouterr()
        return Run(code, captured.out, captured.err)

    return run


def _scenario_file(tmp_path, dim, n_actions, seed):
    """The file ``augmi scenario generate --dim dim --actions n_actions
    --seed seed`` writes, as a path."""
    path = tmp_path / f"scenario-{dim}-{n_actions}-{seed}.json"
    save_scenario(generate_scenario(dim, n_actions, seed=seed), path)
    return str(path)


@pytest.fixture
def scenario_json(tmp_path, monkeypatch):
    """Work in ``tmp_path``, which holds ``scenario.json`` as ``augmi scenario
    generate --dim 20 --actions 1 --seed 1`` writes it."""
    monkeypatch.chdir(tmp_path)
    save_scenario(generate_scenario(20, 1, seed=1), "scenario.json")


class TestEntryPoint:
    def test_python_m_augmi_exits_with_main_code(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "augmi", "bench", "actions", "--methods", "analytic",
             "--seed", "1", "--out", str(tmp_path / "x.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1  # no --scenario
        assert proc.stderr.startswith(
            "usage error: the following arguments are required: --scenario"
        )


class TestScenarioGenerate:
    def test_writes_loadable_scenario(self, run_cli, tmp_path):
        out = tmp_path / "scenario.json"
        proc = run_cli(
            "scenario", "generate", "--dim", "40", "--actions", "2",
            "--seed", "7", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        scenario = load_scenario(out)
        assert len(scenario.actions) == 2

    def test_identical_seeds_identical_bytes(self, run_cli, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            proc = run_cli(
                "scenario", "generate", "--dim", "30", "--actions", "2",
                "--seed", "11", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
        assert a.read_bytes() == b.read_bytes()


class TestMiEval:
    def test_prints_csv_row(self, run_cli, tmp_path):
        out = tmp_path / "scenario.json"
        run_cli("scenario", "generate", "--dim", "24", "--actions", "1",
                "--seed", "3", "--out", str(out))
        proc = run_cli(
            "mi", "eval", "--scenario", str(out), "--action", "a1",
            "--method", "mismc", "--particles", "60", "--seed", "5",
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("method,action_id")
        fields = lines[1].split(",")
        assert fields[0] == "mismc" and fields[1] == "a1"
        float(fields[6])  # parses

    def test_unknown_action_is_runtime_error(self, run_cli, tmp_path):
        out = tmp_path / "scenario.json"
        run_cli("scenario", "generate", "--dim", "24", "--actions", "1",
                "--seed", "3", "--out", str(out))
        proc = run_cli(
            "mi", "eval", "--scenario", str(out), "--action", "zz",
            "--method", "mismc", "--particles", "60", "--seed", "5",
        )
        assert proc.returncode == 2
        assert "no action" in proc.stderr

    def test_method_is_one_known_name(self, run_cli, tmp_path):
        out = tmp_path / "scenario.json"
        run_cli("scenario", "generate", "--dim", "24", "--actions", "1",
                "--seed", "3", "--out", str(out))
        for method in ("magic", "mismc,analytic"):
            proc = run_cli(
                "mi", "eval", "--scenario", str(out), "--action", "a1",
                "--method", method, "--particles", "60", "--seed", "5",
            )
            assert proc.returncode == 1
            assert "choose from analytic,naive-kde,invmi-kde,mismc" in proc.stderr

    @pytest.mark.parametrize(("method", "particles"), [("analytic", "0"), ("mismc", "-5")])
    def test_degenerate_particles_are_usage_errors(self, tmp_path, capsys, method, particles):
        out = tmp_path / "scenario.json"
        assert main(["scenario", "generate", "--dim", "24", "--actions", "1",
                     "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["mi", "eval", "--scenario", str(out), "--action", "a1",
                     "--method", method, "--particles", particles, "--seed", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("usage error: --particles")
        assert captured.out == ""

    def test_missing_scenario_file(self, run_cli, tmp_path):
        proc = run_cli(
            "mi", "eval", "--scenario", str(tmp_path / "nope.json"),
            "--action", "a1", "--method", "mismc", "--particles", "10", "--seed", "1",
        )
        assert proc.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("bench", "actions", "--scenario", "s.json", "--methods", "analytic"),
        ("bench", "dims", "--dims", "10", "--methods", "analytic"),
        ("scenario", "generate", "--dim", "20"),
        ("mi", "eval", "--scenario", "s.json", "--action", "a1", "--method", "analytic"),
    ],
    ids=["bench-actions", "bench-dims", "scenario-generate", "mi-eval"],
)
def test_negative_seed_is_a_usage_error(run_cli, tmp_path, args):
    out = tmp_path / "out"
    out_args = () if args[0] == "mi" else ("--out", str(out))  # mi eval prints its row
    proc = run_cli(*args, "--seed", "-1", *out_args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage error: --seed must be >= 0, got -1")
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (("scenario", "generate", "--dim", "20", "--actions", "0"),
         "--actions must be >= 1, got 0"),
        (("scenario", "generate", "--dim", "5"), "--dim must be >= 6, got 5"),
        (("bench", "dims", "--dims", "0,10", "--methods", "analytic"),
         "--dims items must be >= 6, got 0"),
    ],
    ids=["actions", "dim", "dims"],
)
def test_out_of_range_scenario_option_is_a_usage_error(run_cli, tmp_path, args, message):
    out = tmp_path / "out"
    proc = run_cli(*args, "--seed", "1", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"usage error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (("scenario", "generate", "--dim", "20", "--sensing-range", "5"),
         "unrecognized arguments: --sensing-range 5"),
    ],
    ids=["sensing-range"],
)
def test_the_removed_sensing_range_is_a_usage_error(run_cli, tmp_path, args, message):
    # generation takes the nearest landmarks, so a range never changed a scenario
    out = tmp_path / "out"
    proc = run_cli(*args, "--seed", "1", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"usage error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("scenario", "generate", "--dim", "20"),
        ("bench", "dims", "--dims", "10", "--methods", "analytic"),
    ],
    ids=["scenario-generate", "bench-dims"],
)
def test_the_removed_correlation_option_is_a_usage_error(run_cli, tmp_path, args):
    # both build their scenarios at correlation strength 0.3, the only value in use
    out = tmp_path / "out"
    proc = run_cli(*args, "--correlation", "0.3", "--seed", "1", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage error: unrecognized arguments: --correlation 0.3")
    assert not out.exists()


@pytest.mark.parametrize(
    ("args", "message"),
    [
        ((), "the following arguments are required: --scenario"),
        (("--scenario", "scenario.json"), "unrecognized arguments: --generate D=20"),
    ],
    ids=["alone", "with-scenario"],
)
@pytest.mark.usefixtures("scenario_json")
def test_the_removed_generate_option_is_a_usage_error(run_cli, tmp_path, args, message):
    # a scenario reaches bench actions only as a file that scenario generate writes
    out = tmp_path / "out.csv"
    proc = run_cli("bench", "actions", *args, "--generate", "D=20", "--methods", "analytic",
                   "--seed", "1", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"usage error: {message}")
    assert not out.exists()


class TestBench:
    def test_actions_with_generated_scenario(self, run_cli, tmp_path):
        scenario = tmp_path / "scenario.json"
        proc = run_cli("scenario", "generate", "--dim", "24", "--actions", "2",
                       "--seed", "13", "--out", str(scenario))
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "rows.csv"
        proc = run_cli(
            "bench", "actions", "--scenario", str(scenario),
            "--methods", "analytic,invmi-kde,mismc", "--particles", "50",
            "--trials", "2", "--seed", "13", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out)
        assert len(rows) == 2 * (1 + 2 * 2)
        assert {r.method for r in rows} == {"analytic", "invmi_kde", "mismc"}

    def test_actions_with_a_scenario_file_and_an_id_that_needs_quoting(self, run_cli, tmp_path):
        # An id holding a comma is quoted; unquoted, its rows would carry one
        # field too many.
        doc = scenario_document(generate_scenario(20, 1, seed=4), tmp_path / "generated.json")
        (action,) = doc["actions"]
        action.update(id="a,1", new_ids=["p"])
        action["observations"][0]["inputs"][0] = "p"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "rows.csv"
        proc = run_cli(
            "bench", "actions", "--scenario", str(path), "--methods", "analytic,mismc",
            "--particles", "40", "--trials", "2", "--seed", "1", "--out", str(out),
            "--zero-elapsed",
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out)
        assert [(r.method, r.action_id) for r in rows] == [
            ("analytic", "a,1"), ("mismc", "a,1"), ("mismc", "a,1")
        ]
        proc = run_cli(
            "mi", "eval", "--scenario", str(path), "--action", "a,1",
            "--method", "analytic", "--seed", "1",
        )
        assert proc.returncode == 0, proc.stderr
        header, row = csv.reader(proc.stdout.splitlines())
        assert len(row) == len(header) and row[1] == "a,1"

    def test_dims_subcommand(self, run_cli, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "bench", "dims", "--dims", "10,16", "--methods", "mismc",
            "--particles", "40", "--trials", "2", "--seed", "3", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out)
        assert sorted({r.dim_full for r in rows}) == [10, 16]

    def test_csv_is_the_librarys_for_the_file_scenario(self, run_cli, tmp_path):
        methods = ["analytic", "naive_kde", "invmi_kde", "mismc"]
        scenario = tmp_path / "scenario.json"
        proc = run_cli("scenario", "generate", "--dim", "20", "--actions", "2",
                       "--seed", "9", "--out", str(scenario))
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "cli.csv"
        proc = run_cli(
            "bench", "actions", "--scenario", str(scenario), "--methods", ",".join(methods),
            "--particles", "40", "--trials", "2", "--seed", "5", "--out", str(out),
            "--zero-elapsed",
        )
        assert proc.returncode == 0, proc.stderr
        rows = run_actions_experiment(
            generate_scenario(20, 2, seed=9), methods, n_particles=40, trials=2, seed=5
        )
        expected = tmp_path / "library.csv"
        emit_csv(zero_elapsed(rows), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_usage_error_exit_code(self, run_cli, tmp_path):
        proc = run_cli(
            "bench", "actions", "--methods", "analytic",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 1  # no --scenario
        proc = run_cli(
            "bench", "actions", "--scenario", _scenario_file(tmp_path, 20, 1, 1),
            "--methods", "teleportation", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 1
        assert "unknown method" in proc.stderr

    def test_zero_elapsed_byte_identical(self, run_cli, tmp_path):
        scenario = _scenario_file(tmp_path, 20, 2, 21)
        outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for out in outs:
            proc = run_cli(
                "bench", "actions", "--scenario", scenario,
                "--methods", "invmi-kde,mismc", "--particles", "40",
                "--trials", "2", "--seed", "21", "--out", str(out),
                "--zero-elapsed",
            )
            assert proc.returncode == 0, proc.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_each_estimator_failure_reported_once(self, run_cli, tmp_path):
        proc = run_cli(
            "bench", "actions", "--scenario", _scenario_file(tmp_path, 20, 2, 1),
            "--methods", "naive-kde", "--particles", "1", "--trials", "1",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2
        lines = [line for line in proc.stderr.splitlines() if "estimator failure" in line]
        assert len(lines) == 2  # one trial on each of two actions
        assert len(set(lines)) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("actions", "--scenario", "scenario.json", "--methods", "analytic,mismc",
             "--trials", "0"),
            ("actions", "--scenario", "scenario.json", "--methods", "mismc",
             "--trials", "-3", "--particles", "-4"),
            ("actions", "--scenario", "scenario.json", "--methods", "mismc",
             "--particles", "0"),
            ("dims", "--dims", "", "--methods", "mismc"),
            ("dims", "--dims", "10", "--methods", "mismc", "--trials", "0"),
        ],
    )
    @pytest.mark.usefixtures("scenario_json")
    def test_degenerate_counts_are_usage_errors(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert main(["bench", *args, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: --")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            (("dims", "--dims", "10,abc", "--methods", "mismc"),
             "--dims must be a comma list of integers"),
            (("dims", "--dims", "50,10", "--methods", "mismc"),
             "--dims must be strictly ascending"),
            (("dims", "--dims", "10,10", "--methods", "mismc"),
             "--dims must be strictly ascending"),
            (("actions", "--scenario", "scenario.json", "--methods", ","),
             "--methods must name at least one method"),
            (("actions", "--scenario", "scenario.json", "--methods", "analytic",
              "--particles", "x"),
             "argument --particles: invalid int value: 'x'"),
        ],
    )
    @pytest.mark.usefixtures("scenario_json")
    def test_malformed_values_are_usage_errors(self, tmp_path, run_cli, args, message):
        out = tmp_path / "x.csv"
        proc = run_cli("bench", *args, "--seed", "1", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"usage error: {message}")
        assert not out.exists()
