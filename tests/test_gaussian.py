import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from augmi import (
    Action,
    FootprintError,
    GaussianDensity,
    LinearGaussianModel,
    SequentialObservation,
    SequentialTransition,
    StateLayout,
    augmented_mi_analytic,
    condition_gaussian,
    determine_involved,
    generate_scenario,
    joint_state_observation,
    marginalize_gaussian,
    observation_block_ids,
    sample_particles,
)
from augmi.analytic import entropy_from_cov
from conftest import (
    CHAIN_MI,
    GAUSS_ENTROPY_1D,
    direct_mi_ref,
    gaussian_entropy_ref,
    make_chain_1d,
    mi_analytic,
    observation_log_density_ref,
    random_instance,
    random_spd,
    transition_log_density_ref,
)


def entropy_of(joint: GaussianDensity, ids) -> float:
    """Independent entropy-arithmetic helper: entropy of a block marginal."""
    return gaussian_entropy_ref(marginalize_gaussian(joint, ids))


class TestGaussianEntropy:
    def test_unit_variance(self):
        layout = StateLayout.from_dims([("a", 1)])
        d = GaussianDensity(layout=layout, mean=[0.0], covariance=[[1.0]])
        assert entropy_from_cov(d.covariance) == pytest.approx(GAUSS_ENTROPY_1D, abs=1e-12)

    def test_2d_identity_additivity(self):
        layout = StateLayout.from_dims([("a", 2)])
        d = GaussianDensity(layout=layout, mean=np.zeros(2), covariance=np.eye(2))
        assert entropy_from_cov(d.covariance) == pytest.approx(
            2 * GAUSS_ENTROPY_1D, abs=1e-12
        )

    def test_scaling_law(self):
        layout = StateLayout.from_dims([("a", 1)])
        d = GaussianDensity(layout=layout, mean=[0.0], covariance=[[4.0]])
        assert entropy_from_cov(d.covariance) == pytest.approx(
            GAUSS_ENTROPY_1D + 0.5 * math.log(4.0), abs=1e-12
        )


class TestJointStateObservation:
    def test_chain_covariance(self, chain):
        prior, action = chain
        joint = joint_state_observation(prior, action)
        np.testing.assert_allclose(
            joint.covariance, [[1, 1, 1], [1, 2, 2], [1, 2, 3]], atol=1e-12
        )
        assert joint.layout.ids == ("x", "a:x1", "a:z1")

    def test_transition_only_block(self):
        # X ~ N(0,1), new = x + w with unit noise: joint covariance [[1,1],[1,2]]
        prior, action = make_chain_1d()
        action_no_obs = Action(id="t", transitions=action.transitions)
        joint = joint_state_observation(prior, action_no_obs)
        np.testing.assert_allclose(joint.covariance, [[1, 1], [1, 2]], atol=1e-12)

    def test_random_action_joint_is_psd_symmetric(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            prior, action, _involved = random_instance(rng, total_dim=12)
            joint = joint_state_observation(prior, action)
            sym_err = np.abs(joint.covariance - joint.covariance.T).max()
            assert sym_err == 0.0  # symmetrized on construction
            eigs = np.linalg.eigvalsh(joint.covariance)
            assert eigs.min() > -1e-9 * max(1.0, eigs.max())


class TestAugmentedMi:
    def test_chain_full_state(self, chain):
        prior, action = chain
        result = augmented_mi_analytic(prior, action)
        assert result.value == pytest.approx(CHAIN_MI, abs=1e-12)
        assert result.value == pytest.approx(direct_mi_ref(prior, action), abs=1e-12)

    def test_observation_independent_of_state(self):
        # z carries nothing: augmented MI reduces to -H[new | x]
        prior, action = make_chain_1d()
        free_obs = LinearGaussianModel(
            inputs=(), output_dim=1, matrix=np.zeros((1, 0)), noise_cov=[[0.7]]
        )
        blind = Action(
            id="a", transitions=action.transitions, observations=((1, free_obs),)
        )
        value = augmented_mi_analytic(prior, blind).value
        joint = joint_state_observation(prior, Action(id="a", transitions=action.transitions))
        h_new_given_x = entropy_of(joint, {"x", "a:x1"}) - entropy_of(joint, {"x"})
        assert value == pytest.approx(-h_new_given_x, abs=1e-9)

    def test_involved_subset_equals_full(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            prior, action, involved = random_instance(rng, total_dim=40)
            full = augmented_mi_analytic(prior, action).value
            reduced = augmented_mi_analytic(prior, action, involved).value
            assert abs(full - reduced) < 1e-9

    def test_enlarged_subset_equals_full(self):
        rng = np.random.default_rng(34)
        prior, action, involved = random_instance(rng, total_dim=30)
        extra = [b for b in prior.layout.ids if b not in involved][:2]
        enlarged = involved | set(extra)
        full = augmented_mi_analytic(prior, action).value
        assert abs(augmented_mi_analytic(prior, action, enlarged).value - full) < 1e-9

    def test_missing_involved_block_is_hard_error(self):
        rng = np.random.default_rng(35)
        prior, action, involved = random_instance(rng, total_dim=20, involved_dim=4)
        too_small = set(list(involved)[:-1]) or {"b0"}
        if too_small == involved:
            pytest.skip("instance has a single involved block")
        with pytest.raises(FootprintError, match="misses involved"):
            augmented_mi_analytic(prior, action, too_small)

    def test_unknown_subset_block_is_hard_error(self, chain):
        prior, action = chain
        with pytest.raises(FootprintError, match=r"unknown blocks \['ghost'\]"):
            augmented_mi_analytic(prior, action, {"x", "ghost"})

    def test_returns_a_tagged_estimate(self):
        # the oracle is an estimator like the others: an MiEstimate whose
        # dim is that of the prior its joint is built on
        scenario = generate_scenario(30, 1, seed=4)
        action = scenario.actions[0]
        blocks = determine_involved(scenario.layout, action).blocks
        full = augmented_mi_analytic(scenario.prior, action)
        reduced = augmented_mi_analytic(scenario.prior, action, subset=blocks)
        assert full.method == reduced.method == "analytic"
        assert full.sample_counts["dim"] == 30 and reduced.sample_counts["dim"] == 4
        assert full.elapsed >= 0.0 and reduced.elapsed >= 0.0


class TestMiAnalytic:
    def test_independent_blocks(self):
        layout = StateLayout.from_dims([("a", 2), ("b", 1)])
        joint = GaussianDensity(layout=layout, mean=np.zeros(3), covariance=np.diag([1.0, 2.0, 3.0]))
        assert mi_analytic(joint, {"a"}, {"b"}) == pytest.approx(0.0, abs=1e-12)

    def test_chain_half_log_two(self, chain):
        prior, action = chain
        joint = joint_state_observation(prior, action)
        # MI between x' (the new block... the chain z = x' + v): use (x, z)
        value = mi_analytic(joint, {"x"}, {"a:z1"})
        # z = x + w + v: cov [[1, 1], [1, 3]]; MI = 0.5 ln(3 / 2) ... verify by entropies
        expected = (
            entropy_of(joint, {"x"})
            + entropy_of(joint, {"a:z1"})
            - entropy_of(joint, {"x", "a:z1"})
        )
        assert value == pytest.approx(expected, abs=1e-12)
        # closed form for Z = X + N(0,1) on the direct pair (x, x'):
        value_xn = mi_analytic(joint, {"x"}, {"a:x1"})
        assert value_xn == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_chain_rule_three_blocks(self):
        # MI(AB; Z) == MI(A; Z) + MI(B; Z | A), the latter via entropy arithmetic
        rng = np.random.default_rng(17)
        layout = StateLayout.from_dims([("A", 2), ("B", 2), ("Z", 2)])
        joint = GaussianDensity(
            layout=layout, mean=np.zeros(6), covariance=random_spd(rng, 6)
        )
        lhs = mi_analytic(joint, {"A", "B"}, {"Z"})
        mi_a_z = mi_analytic(joint, {"A"}, {"Z"})
        h = lambda ids: entropy_of(joint, ids)
        cond_mi = (
            (h({"A", "B"}) - h({"A"}))
            + (h({"A", "Z"}) - h({"A"}))
            - (h({"A", "B", "Z"}) - h({"A"}))
        )
        assert lhs == pytest.approx(mi_a_z + cond_mi, abs=1e-9)

    def test_rejects_overlap(self):
        layout = StateLayout.from_dims([("a", 1), ("b", 1)])
        joint = GaussianDensity(layout=layout, mean=np.zeros(2), covariance=np.eye(2))
        with pytest.raises(ValueError, match="overlap"):
            mi_analytic(joint, {"a"}, {"a", "b"})


class TestSuperposition:
    """The oracle's superposition form against the direct-form reference."""

    def test_chain_matches_direct(self, chain):
        prior, action = chain
        assert direct_mi_ref(prior, action) == pytest.approx(CHAIN_MI, abs=1e-9)
        assert augmented_mi_analytic(prior, action).value == pytest.approx(CHAIN_MI, abs=1e-9)

    def test_uninformative_observation(self):
        prior, action = make_chain_1d()
        free_obs = LinearGaussianModel(
            inputs=(), output_dim=1, matrix=np.zeros((1, 0)), noise_cov=[[0.7]]
        )
        blind = Action(id="a", transitions=action.transitions, observations=((1, free_obs),))
        value = augmented_mi_analytic(prior, blind).value
        joint = joint_state_observation(prior, Action(id="a", transitions=action.transitions))
        h_new_given_x = entropy_of(joint, {"x", "a:x1"}) - entropy_of(joint, {"x"})
        assert value == pytest.approx(-h_new_given_x, abs=1e-9)

    def test_random_sweep_matches_direct(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(40):
            prior, action, involved = random_instance(rng, total_dim=25)
            direct = direct_mi_ref(prior, action)
            split = augmented_mi_analytic(prior, action, involved).value
            worst = max(worst, abs(direct - split))
        assert worst < 1e-9


class TestMiDecompositionAndConditioning:
    def test_mi_minus_conditional_entropy_identity(self):
        # augmented MI == MI({X, new}; Z) - H[new | X]
        rng = np.random.default_rng(66)
        for _ in range(10):
            prior, action, _involved = random_instance(rng, total_dim=15)
            joint = joint_state_observation(prior, action)
            obs_ids = set(observation_block_ids(action))
            state_ids = set(prior.layout.ids) | set(action.new_ids)
            lhs = augmented_mi_analytic(prior, action).value
            mi_term = mi_analytic(joint, state_ids, obs_ids)
            h_new_given_x = entropy_of(joint, state_ids) - entropy_of(
                joint, set(prior.layout.ids)
            )
            assert abs(lhs - (mi_term - h_new_given_x)) < 1e-9

    def test_conditioning_never_increases_entropy(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            prior, action, _involved = random_instance(rng, total_dim=12)
            joint = joint_state_observation(prior, action)
            obs_ids = set(observation_block_ids(action))
            state_ids = set(prior.layout.ids)
            h_prior = entropy_of(joint, state_ids)
            h_joint = entropy_of(joint, state_ids | obs_ids)
            h_obs = entropy_of(joint, obs_ids)
            assert (h_joint - h_obs) <= h_prior + 1e-12

    def test_condition_gaussian_hand_schur(self):
        layout = StateLayout.from_dims([("a", 1), ("z", 1)])
        joint = GaussianDensity(
            layout=layout, mean=[1.0, 2.0], covariance=[[2.0, 0.6], [0.6, 0.5]]
        )
        conditional = condition_gaussian(joint, {"z"}, [3.0])
        gain = 0.6 / 0.5
        np.testing.assert_allclose(conditional.mean, [1.0 + gain * 1.0], atol=1e-12)
        np.testing.assert_allclose(
            conditional.covariance, [[2.0 - 0.6 * gain]], atol=1e-12
        )

    def test_values_checked(self):
        layout = StateLayout.from_dims([("a", 1), ("z", 2)])
        cov = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
        joint = GaussianDensity(layout=layout, mean=np.zeros(3), covariance=cov)
        # one 1-D row over the given blocks, nothing else
        for values in ([1.0], np.zeros((1, 2)), 0.0):
            with pytest.raises(ValueError, match="values have shape"):
                condition_gaussian(joint, {"z"}, values)
        # the conditional's mean is checked like any other
        with pytest.raises(ValueError, match="mean must be finite"):
            condition_gaussian(joint, {"z"}, [np.inf, 0.0])

    def test_conditioning_on_every_block_is_rejected(self):
        layout = StateLayout.from_dims([("a", 1), ("z", 1)])
        joint = GaussianDensity(layout=layout, mean=np.zeros(2), covariance=np.eye(2))
        with pytest.raises(ValueError, match="conditioning on every block leaves nothing"):
            condition_gaussian(joint, {"a", "z"}, [0.0, 0.0])

    def test_condition_on_independent_block_is_marginal(self):
        layout = StateLayout.from_dims([("a", 2), ("z", 1)])
        cov = np.diag([1.0, 2.0, 3.0])
        joint = GaussianDensity(layout=layout, mean=np.zeros(3), covariance=cov)
        conditional = condition_gaussian(joint, {"z"}, [5.0])
        np.testing.assert_allclose(conditional.mean, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(conditional.covariance, np.diag([1.0, 2.0]), atol=1e-12)


@st.composite
def multi_step_instances(draw):
    """A prior over 1-5 random blocks and a 1- to 3-step action.

    Transition k reads prior blocks and the new blocks of steps before k;
    an observation taken after step k reads prior blocks and the new blocks
    of steps up to k.  Observations are declared in random step order.
    """
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    layout = StateLayout.from_dims((f"b{i}", d) for i, d in enumerate(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior = GaussianDensity(
        layout=layout,
        mean=rng.standard_normal(layout.total_dim),
        covariance=random_spd(rng, layout.total_dim),
    )
    block_dims = dict(zip(layout.ids, dims))

    def model(readable: list[str]) -> LinearGaussianModel:
        inputs = draw(st.lists(st.sampled_from(readable), min_size=1, max_size=3, unique=True))
        out_dim = draw(st.integers(1, 2))
        return LinearGaussianModel(
            inputs=tuple(inputs),
            output_dim=out_dim,
            matrix=rng.standard_normal((out_dim, sum(block_dims[i] for i in inputs))),
            noise_cov=random_spd(rng, out_dim, scale=float(rng.uniform(0.3, 1.2))),
        )

    n_steps = draw(st.integers(1, 3))
    new_ids = [f"m:x{k}" for k in range(1, n_steps + 1)]
    transitions, observations = [], []
    for k, new_id in enumerate(new_ids):
        transitions.append(model(list(layout.ids) + new_ids[:k]))
        block_dims[new_id] = transitions[-1].output_dim
        fewest = 1 if k == n_steps - 1 and not observations else 0
        for _ in range(draw(st.integers(fewest, 2))):
            observations.append((k + 1, model(list(layout.ids) + new_ids[: k + 1])))
    action = Action(
        id="m",
        transitions=tuple(transitions),
        observations=tuple(draw(st.permutations(observations))),
        new_ids=tuple(new_ids),
    )
    return prior, action


class TestMultiStepActions:
    """The analytic joint and the vectorized sequential models bind a
    multi-step action's inputs the same way."""

    @settings(max_examples=20, deadline=None)
    @given(instance=multi_step_instances())
    def test_footprint_subset_equals_full_state(self, instance):
        prior, action = instance
        full = augmented_mi_analytic(prior, action).value
        footprint = determine_involved(prior.layout, action).blocks
        reduced = augmented_mi_analytic(prior, action, subset=footprint).value
        assert reduced == pytest.approx(full, rel=1e-9, abs=1e-9)
        assert direct_mi_ref(prior, action) == pytest.approx(full, rel=1e-9, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(instance=multi_step_instances())
    def test_sequential_densities_equal_joint_conditionals(self, instance):
        prior, action = instance
        x = sample_particles(prior, 3, 0).particles
        transition = SequentialTransition(prior.layout, action)
        observation = SequentialObservation(prior.layout, action)
        rng = np.random.default_rng(1)
        states = transition.sample_with_noise(
            x, rng.standard_normal((x.shape[0], transition.new_dim))
        )
        new = states[:, x.shape[1] :]
        z = observation.sample_with_noise(
            states, rng.standard_normal((x.shape[0], observation.obs_dim))
        )
        joint = joint_state_observation(prior, action)
        state_ids = prior.layout.ids + action.new_ids
        state_marginal = marginalize_gaussian(joint, state_ids)
        got_new = transition_log_density_ref(transition, states)
        got_z = observation_log_density_ref(observation, states, z)
        for i in range(x.shape[0]):
            given_x = condition_gaussian(state_marginal, prior.layout.ids, x[i])
            given_state = condition_gaussian(joint, state_ids, states[i])
            expect_new = multivariate_normal(given_x.mean, given_x.covariance).logpdf(new[i])
            expect_z = multivariate_normal(given_state.mean, given_state.covariance).logpdf(z[i])
            assert got_new[i] == pytest.approx(expect_new, rel=1e-9, abs=1e-9)
            assert got_z[i] == pytest.approx(expect_z, rel=1e-9, abs=1e-9)
