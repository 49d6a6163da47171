import numpy as np
import pytest

from augmi import (
    Action,
    AnalyticMiBackend,
    InvolvedSet,
    LinearGaussianModel,
    SampleBudget,
    SmcMiBackend,
    UnknownBlockError,
    augmented_mi_analytic,
    determine_involved,
    generate_scenario,
    invmi,
    invmi_kde_augmented_mi,
    marginalize_gaussian,
    mismc_estimate,
    naive_kde_augmented_mi,
    sample_particles,
)
from augmi.involved import CalculatorError
from conftest import random_instance


class TestDetermineInvolved:
    def test_slam_action_is_pose_plus_landmark(self):
        scenario = generate_scenario(60, 2, seed=1)
        for action in scenario.actions:
            inv = determine_involved(scenario.layout, action)
            pose_blocks = [b for b in inv.blocks if b.startswith("p")]
            landmark_blocks = [b for b in inv.blocks if b.startswith("l")]
            assert len(pose_blocks) == 1 and len(landmark_blocks) == 1
            assert inv.dim == 4

    def test_transition_only_action(self, chain):
        prior, action = chain
        no_obs = Action(id="t", transitions=action.transitions)
        inv = determine_involved(prior.layout, no_obs)
        assert inv.blocks == frozenset({"x"})

    def test_matches_random_instance_construction(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            prior, action, involved = random_instance(rng, total_dim=20)
            assert determine_involved(prior.layout, action).blocks == involved

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        prior, action, _ = random_instance(rng, total_dim=15)
        inv1 = determine_involved(prior.layout, action)
        # permuting the declared input order inside models cannot matter
        shuffled = Action(
            id=action.id,
            transitions=action.transitions,
            observations=tuple(reversed(action.observations)),
            new_ids=action.new_ids,
        )
        assert determine_involved(prior.layout, shuffled).blocks == inv1.blocks

    def test_unresolved_reference(self, chain):
        prior, _action = chain
        bad = Action(
            id="bad",
            transitions=(
                LinearGaussianModel(
                    inputs=("missing",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
                ),
            ),
        )
        with pytest.raises(UnknownBlockError, match="missing"):
            determine_involved(prior.layout, bad)


class TestInvolvedSet:
    def test_involved_set_validation(self):
        scenario = generate_scenario(30, 1, seed=2)
        with pytest.raises(ValueError, match="non-empty"):
            InvolvedSet(layout=scenario.layout, blocks=frozenset())
        with pytest.raises(ValueError, match="unknown"):
            InvolvedSet(layout=scenario.layout, blocks=frozenset({"nope"}))


class TestInvmiDispatch:
    def test_analytic_calculator_equals_full_state(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            prior, action, _involved = random_instance(rng, total_dim=35)
            full = augmented_mi_analytic(prior, action).value
            reduced = invmi(prior, action, AnalyticMiBackend(), rng)
            assert abs(reduced.value - full) < 1e-9
            assert reduced.method == "analytic"

    def test_mismc_pass_through(self, chain):
        prior, action = chain
        budget = SampleBudget(n1=200)
        # fully-involved: invmi's marginalization is the identity
        particles = sample_particles(prior, 200, np.random.default_rng(4))
        direct = mismc_estimate(particles, action, budget, np.random.default_rng(77))
        via_invmi = invmi(particles, action, SmcMiBackend(budget), np.random.default_rng(77))
        assert via_invmi.value == direct.value
        assert via_invmi.method == "mismc"

    def test_invmi_kde_is_naive_kde_on_the_involved_marginal(self):
        # the reduced KDE pipeline marginalizes onto determine_involved's
        # blocks itself; that is all that separates it from the naive one
        scenario = generate_scenario(150, 1, seed=11)
        action = scenario.actions[0]
        involved = determine_involved(scenario.layout, action)
        reduced = marginalize_gaussian(scenario.prior, involved.blocks)
        est = invmi_kde_augmented_mi(scenario.prior, action, 300, rng=1234)
        assert est.value == naive_kde_augmented_mi(reduced, action, 300, rng=1234).value
        assert est.sample_counts["involved_dim"] == involved.dim == 4

    def test_gaussian_belief_marginalized_before_calc(self):
        scenario = generate_scenario(60, 1, seed=9)
        action = scenario.actions[0]
        seen = {}

        def probe(belief, act, rng):
            seen["dim"] = belief.dim
            return AnalyticMiBackend()(belief, act, rng)

        invmi(scenario.prior, action, probe, np.random.default_rng(0))
        assert seen["dim"] == 4

    def test_calculator_failure_carries_context(self, chain):
        prior, action = chain

        def broken(belief, act, rng):
            raise RuntimeError("boom")

        with pytest.raises(CalculatorError, match=r"involved set \['x'\]"):
            invmi(prior, action, broken, np.random.default_rng(0))

    def test_int_seed_equals_its_generator(self):
        scenario = generate_scenario(30, 1, seed=11)
        action = scenario.actions[0]
        runs = [
            lambda rng: invmi(scenario.prior, action, AnalyticMiBackend(), rng),
            lambda rng: invmi_kde_augmented_mi(scenario.prior, action, 100, rng),
            lambda rng: invmi(scenario.prior, action, SmcMiBackend(SampleBudget(n1=100)), rng),
        ]
        for run in runs:
            assert run(1234).value == run(np.random.default_rng(1234)).value

    def test_analytic_backend_rejects_what_it_cannot_use(self, chain):
        # A particle belief has no covariance to read, and a negative seed is
        # one numpy refuses, though the oracle draws nothing from it.
        prior, action = chain
        particles = sample_particles(prior, 10, np.random.default_rng(0))
        with pytest.raises(TypeError, match="analytic calculator needs a GaussianDensity belief"):
            AnalyticMiBackend()(particles, action, 0)
        with pytest.raises(ValueError, match="expected non-negative integer seed, got -2"):
            AnalyticMiBackend()(prior, action, -2)

    def test_planner_backends_return_calculator_value(self):
        # Each backend adds nothing to its estimator: the oracle on the
        # belief, or the budget's particles sampled from it and then the SMC.
        scenario = generate_scenario(30, 2, seed=12)
        budget = SampleBudget(n1=120)
        for action in scenario.actions:
            exact = AnalyticMiBackend()(scenario.prior, action, np.random.default_rng(5))
            oracle = augmented_mi_analytic(scenario.prior, action)
            assert (exact.value, exact.method) == (oracle.value, oracle.method)
            smc = SmcMiBackend(budget)(scenario.prior, action, np.random.default_rng(6))
            rng = np.random.default_rng(6)
            particles = sample_particles(scenario.prior, budget.n1, rng)
            direct = mismc_estimate(particles, action, budget, rng)
            assert (smc.value, smc.method) == (direct.value, direct.method)
            assert smc.sample_counts == direct.sample_counts
