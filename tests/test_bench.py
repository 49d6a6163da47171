import numpy as np
import pytest

from augmi import (
    CSV_HEADER,
    Action,
    GaussianDensity,
    LinearGaussianModel,
    ResultRow,
    SampleBudget,
    SlamScenario,
    StateLayout,
    augmented_mi_analytic,
    determine_involved,
    emit_csv,
    evaluate_method,
    generate_scenario,
    invmi_kde_augmented_mi,
    marginalize_gaussian,
    mismc_estimate,
    naive_kde_augmented_mi,
    read_csv,
    run_actions_experiment,
    run_dimension_sweep,
    sample_particles,
)
from augmi.bench import format_row, zero_elapsed


@pytest.fixture(scope="module")
def small_scenario():
    return generate_scenario(20, 2, seed=31)


class TestEvaluateMethod:
    def test_analytic_deterministic(self, small_scenario):
        a = evaluate_method(small_scenario, "a1", "analytic", 50, seed=1)
        b = evaluate_method(small_scenario, "a1", "analytic", 50, seed=2)
        assert a.value == b.value

    def test_sampling_methods_seeded(self, small_scenario):
        for method in ("naive_kde", "invmi_kde", "mismc"):
            a = evaluate_method(small_scenario, "a2", method, 80, seed=5)
            b = evaluate_method(small_scenario, "a2", method, 80, seed=5)
            c = evaluate_method(small_scenario, "a2", method, 80, seed=6)
            assert a.value == b.value
            assert a.value != c.value

    def test_unknown_method(self, small_scenario):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate_method(small_scenario, "a1", "magic", 50, seed=1)

    def test_matches_direct_pipelines(self, small_scenario):
        """The method table adds nothing: each method's value is bit for bit
        the one its pipeline gives when called directly."""
        prior, n = small_scenario.prior, 80

        def mismc_direct(action, blocks, seed):
            rng = np.random.default_rng(seed)
            particles = sample_particles(marginalize_gaussian(prior, blocks), n, rng)
            return mismc_estimate(particles, action, SampleBudget(n1=n, n4=n), rng)

        for action in small_scenario.actions:
            blocks = determine_involved(prior.layout, action).blocks
            for seed in (5, 6):
                direct = {
                    "analytic": augmented_mi_analytic(prior, action),
                    "naive_kde": naive_kde_augmented_mi(prior, action, n, None, seed),
                    "invmi_kde": invmi_kde_augmented_mi(prior, action, blocks, n, None, seed),
                    "mismc": mismc_direct(action, blocks, seed),
                }
                for method, reference in direct.items():
                    est = evaluate_method(small_scenario, action.id, method, n, seed)
                    assert est.method == method
                    assert est.value == reference.value


class TestActionsExperiment:
    def test_naive_kde_rows_on_a_footprint_prior(self):
        # The prior is exactly the action's footprint, so a reduced and an
        # unreduced prior look alike; each method must still write its own rows.
        layout = StateLayout.from_dims([("x", 2)])
        prior = GaussianDensity(layout=layout, mean=np.zeros(2), covariance=np.eye(2))
        action = Action(
            id="a",
            transitions=(
                LinearGaussianModel(
                    inputs=("x",), output_dim=2, matrix=np.eye(2), noise_cov=np.eye(2)
                ),
            ),
            observations=(
                (
                    1,
                    LinearGaussianModel(
                        inputs=("a:x1",), output_dim=2, matrix=np.eye(2), noise_cov=np.eye(2)
                    ),
                ),
            ),
        )
        scenario = SlamScenario(
            layout=layout, prior=prior, actions=(action,), sensing_range=25.0, seed=0
        )
        rows = run_actions_experiment(scenario, {"naive_kde", "invmi_kde"}, 50, trials=2, seed=1)
        assert [row.method for row in rows].count("naive_kde") == 2
        assert [row.method for row in rows].count("invmi_kde") == 2
        for row in rows:
            if row.method == "naive_kde":
                direct = naive_kde_augmented_mi(prior, action, 50, None, row.seed)
                assert row.mi_estimate == direct.value

    def test_analytic_only_zero_variance(self, small_scenario):
        rows = run_actions_experiment(small_scenario, {"analytic"}, 50, trials=7, seed=1)
        assert len(rows) == 2  # one per action, deterministic
        assert all(r.trial == 0 for r in rows)

    def test_row_counts_and_trials(self, small_scenario):
        rows = run_actions_experiment(
            small_scenario, {"analytic", "naive_kde", "invmi_kde", "mismc"}, 60, trials=2, seed=3
        )
        # 2 actions x (1 analytic + 3 methods x 2 trials)
        assert len(rows) == 2 * (1 + 3 * 2)
        mismc_rows = [r for r in rows if r.method == "mismc"]
        assert {r.trial for r in mismc_rows} == {0, 1}
        assert all(r.dim_involved == 4 for r in rows)
        assert all(r.dim_full == small_scenario.prior.dim for r in rows)

    def test_trial_seeds_independent_of_method_subset(self, small_scenario):
        all_rows = run_actions_experiment(
            small_scenario, {"naive_kde", "mismc"}, 60, trials=2, seed=9
        )
        only = run_actions_experiment(small_scenario, {"mismc"}, 60, trials=2, seed=9)
        picked = [r for r in all_rows if r.method == "mismc"]
        assert [r.mi_estimate for r in picked] == [r.mi_estimate for r in only]

    def test_failures_recorded_and_run_continues(self, small_scenario, monkeypatch):
        import augmi.bench as bench

        real = bench.evaluate_method
        calls = {"n": 0}

        def flaky(scenario, action_id, method, n, seed):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic failure")
            return real(scenario, action_id, method, n, seed)

        monkeypatch.setattr(bench, "evaluate_method", flaky)
        failures = []
        rows = bench.run_actions_experiment(
            small_scenario, {"mismc"}, 40, trials=2, seed=4, failures=failures
        )
        assert len(failures) == 1
        assert "synthetic failure" in failures[0]
        assert len(rows) == 2 * 2 - 1


class TestDimensionSweep:
    def test_rows_and_constant_involved_dim(self):
        rows = run_dimension_sweep([10, 20], {"analytic", "mismc"}, 50, trials=2, seed=5)
        dims = sorted({r.dim_full for r in rows})
        assert dims == [10, 20]
        assert all(r.dim_involved == 4 for r in rows)
        mismc_rows = [r for r in rows if r.method == "mismc"]
        assert len(mismc_rows) == 2 * 2

    def test_rejects_unsorted_dims(self):
        with pytest.raises(ValueError, match="ascending"):
            run_dimension_sweep([50, 10], {"analytic"}, 50, trials=1, seed=0)


class TestCsv:
    def test_header_and_round_trip(self, tmp_path, small_scenario):
        rows = run_actions_experiment(
            small_scenario, {"analytic", "mismc"}, 40, trials=2, seed=6
        )
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == CSV_HEADER
        assert "\r" not in text
        parsed = read_csv(path)
        key = lambda r: (r.method, r.action_id, r.trial)
        assert sorted(parsed, key=key) == sorted(rows, key=key)

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_float_formatting_17_digits(self):
        row = ResultRow(
            method="mismc",
            action_id="a1",
            trial=0,
            dim_full=10,
            dim_involved=4,
            n_particles=5,
            mi_estimate=-0.1234567890123456789,
            elapsed_ns=10,
            seed=1,
        )
        text = format_row(row)
        value = text.split(",")[6]
        assert float(value) == row.mi_estimate

    def test_rejects_nonfinite_estimate(self):
        with pytest.raises(ValueError, match="finite"):
            ResultRow(
                method="mismc",
                action_id="a",
                trial=0,
                dim_full=1,
                dim_involved=1,
                n_particles=1,
                mi_estimate=float("nan"),
                elapsed_ns=0,
                seed=0,
            )

    def test_zero_elapsed_reproducibility(self, tmp_path, small_scenario):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        for out in (out1, out2):
            rows = run_actions_experiment(
                small_scenario, {"invmi_kde", "mismc"}, 50, trials=2, seed=8
            )
            emit_csv(zero_elapsed(rows), out)
        assert out1.read_bytes() == out2.read_bytes()

    def test_reproducible_up_to_timing(self, tmp_path, small_scenario):
        rows1 = run_actions_experiment(small_scenario, {"mismc"}, 50, trials=2, seed=8)
        rows2 = run_actions_experiment(small_scenario, {"mismc"}, 50, trials=2, seed=8)
        strip = lambda rows: [
            (r.method, r.action_id, r.trial, r.mi_estimate, r.seed) for r in rows
        ]
        assert strip(rows1) == strip(rows2)


class TestEmittedEstimateSanity:
    def test_involved_estimates_are_outlier_free(self):
        # At 300+ particles the SMC estimator is unbiased enough that every
        # emitted value sits within 5 empirical stds of the analytic truth.
        # The KDE pipeline carries an O(1) re-substitution bias at this
        # sample size (its means are systematically off while its ordering
        # is right), so for it the 5-std band is checked around the
        # per-action trial mean instead.
        scenario = generate_scenario(60, 2, seed=17)
        rows = run_actions_experiment(
            scenario, {"analytic", "invmi_kde", "mismc"}, 300, trials=30, seed=5
        )
        analytic = {r.action_id: r.mi_estimate for r in rows if r.method == "analytic"}
        for method, reference in (("mismc", analytic), ("invmi_kde", None)):
            for action_id in analytic:
                values = np.array(
                    [
                        r.mi_estimate
                        for r in rows
                        if r.method == method and r.action_id == action_id
                    ]
                )
                center = reference[action_id] if reference else values.mean()
                band = 5.0 * values.std(ddof=1)
                assert np.all(np.abs(values - center) <= band)
