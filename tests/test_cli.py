import subprocess
import sys

import pytest

from augmi import load_scenario, read_csv
from augmi.cli import main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "augmi", *args],
        capture_output=True,
        text=True,
    )


class TestScenarioGenerate:
    def test_writes_loadable_scenario(self, tmp_path):
        out = tmp_path / "scenario.json"
        proc = run_cli(
            "scenario", "generate", "--dim", "40", "--actions", "2",
            "--seed", "7", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        scenario = load_scenario(out)
        assert len(scenario.actions) == 2

    def test_identical_seeds_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            proc = run_cli(
                "scenario", "generate", "--dim", "30", "--actions", "2",
                "--seed", "11", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
        assert a.read_bytes() == b.read_bytes()


class TestMiEval:
    def test_prints_csv_row(self, tmp_path):
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

    def test_unknown_action_is_runtime_error(self, tmp_path):
        out = tmp_path / "scenario.json"
        run_cli("scenario", "generate", "--dim", "24", "--actions", "1",
                "--seed", "3", "--out", str(out))
        proc = run_cli(
            "mi", "eval", "--scenario", str(out), "--action", "zz",
            "--method", "mismc", "--particles", "60", "--seed", "5",
        )
        assert proc.returncode == 2
        assert "no action" in proc.stderr

    def test_method_is_one_known_name(self, tmp_path):
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

    def test_missing_scenario_file(self, tmp_path):
        proc = run_cli(
            "mi", "eval", "--scenario", str(tmp_path / "nope.json"),
            "--action", "a1", "--method", "mismc", "--particles", "10", "--seed", "1",
        )
        assert proc.returncode == 2


class TestBench:
    def test_actions_with_generated_scenario(self, tmp_path):
        out = tmp_path / "rows.csv"
        proc = run_cli(
            "bench", "actions", "--generate", "D=24,actions=2",
            "--methods", "analytic,invmi-kde,mismc", "--particles", "50",
            "--trials", "2", "--seed", "13", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out)
        assert len(rows) == 2 * (1 + 2 * 2)
        assert {r.method for r in rows} == {"analytic", "invmi_kde", "mismc"}

    def test_dims_subcommand(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "bench", "dims", "--dims", "10,16", "--methods", "mismc",
            "--particles", "40", "--trials", "2", "--seed", "3", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out)
        assert sorted({r.dim_full for r in rows}) == [10, 16]

    def test_usage_error_exit_code(self, tmp_path):
        proc = run_cli(
            "bench", "actions", "--methods", "analytic",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 1  # neither --scenario nor --generate
        proc = run_cli(
            "bench", "actions", "--generate", "D=20,actions=1",
            "--methods", "teleportation", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 1
        assert "unknown method" in proc.stderr

    def test_zero_elapsed_byte_identical(self, tmp_path):
        outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for out in outs:
            proc = run_cli(
                "bench", "actions", "--generate", "D=20,actions=2",
                "--methods", "invmi-kde,mismc", "--particles", "40",
                "--trials", "2", "--seed", "21", "--out", str(out),
                "--zero-elapsed",
            )
            assert proc.returncode == 0, proc.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_each_estimator_failure_reported_once(self, tmp_path):
        proc = run_cli(
            "bench", "actions", "--generate", "D=20,actions=2",
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
            ("actions", "--generate", "D=20,actions=1", "--methods", "analytic,mismc",
             "--trials", "0"),
            ("actions", "--generate", "D=20,actions=1", "--methods", "mismc",
             "--trials", "-3", "--particles", "-4"),
            ("actions", "--generate", "D=20,actions=1", "--methods", "mismc",
             "--particles", "0"),
            ("dims", "--dims", "", "--methods", "mismc"),
            ("dims", "--dims", "10", "--methods", "mismc", "--trials", "0"),
        ],
    )
    def test_degenerate_counts_are_usage_errors(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert main(["bench", *args, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: --")
        assert not out.exists()
