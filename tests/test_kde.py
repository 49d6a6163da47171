import math
from dataclasses import replace

import numpy as np
import pytest

from augmi import (
    Action,
    BandwidthError,
    GaussianDensity,
    StateLayout,
    WeightedParticleSet,
    generate_scenario,
    invmi_kde_augmented_mi,
    naive_kde_augmented_mi,
    resubstitution_entropy,
    sample_particles,
)
from augmi.kde import LOG_DENSITY_FLOOR, _log_mixture, bandwidth_vector
from conftest import (
    CHAIN_MI,
    GAUSS_ENTROPY_1D,
    STD_NORMAL_LOGPDF_MODE,
    gaussian_entropy_ref,
    make_chain_1d,
)


# Every public count the KDE pipelines and the prior sampler take:
# (name in the error, call with the count set to the value).
COUNTED_CALLS = {
    "naive_kde n": ("n", lambda prior, action, v: naive_kde_augmented_mi(prior, action, v)),
    "invmi_kde n": (
        "n",
        lambda prior, action, v: invmi_kde_augmented_mi(prior, action, v),
    ),
    "sample_particles n": ("n", lambda prior, action, v: sample_particles(prior, v, 0)),
}


def particle_set(values, weights=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    layout = StateLayout.from_dims([("s", values.shape[1])])
    if weights is None:
        weights = np.full(values.shape[0], 1.0 / values.shape[0])
    return WeightedParticleSet(layout=layout, particles=values, weights=weights)


def gaussian_sample_set(rng, n, dim=1):
    return particle_set(rng.standard_normal((n, dim)))


def kde_log_densities(samples, bandwidth=None) -> np.ndarray:
    """Log of the weighted Gaussian-kernel mixture at each of its own sample
    points, as the re-substitution entropy evaluates it; Scott's bandwidth
    unless one is given."""
    if bandwidth is None:
        bandwidth = bandwidth_vector(samples.particles, samples.weights)
    vals, _clamps = _log_mixture(
        samples.particles, samples.weights, np.asarray(bandwidth, dtype=float)
    )
    return vals


def fixed_bandwidth_entropy(samples, bandwidth: float) -> float:
    """Re-substitution entropy of ``samples`` at one bandwidth for every
    coordinate."""
    vals = kde_log_densities(samples, np.full(samples.particles.shape[1], bandwidth))
    return -float(samples.weights @ vals)


class TestKdeLogDensity:
    def test_single_particle_at_origin(self):
        samples = particle_set([[0.0]])
        assert kde_log_densities(samples, bandwidth=[1.0])[0] == pytest.approx(
            STD_NORMAL_LOGPDF_MODE, abs=1e-12
        )

    def test_one_bandwidth_away(self):
        # at each point, half a kernel at its mode and half a kernel one bandwidth away
        samples = particle_set([[0.0], [0.5]])
        at_mode = STD_NORMAL_LOGPDF_MODE - math.log(0.5)
        expected = at_mode + math.log(0.5 + 0.5 * math.exp(-0.5))
        np.testing.assert_allclose(
            kde_log_densities(samples, bandwidth=[0.5]), expected, rtol=0.0, atol=1e-12
        )

    def test_large_sample_matches_true_density(self):
        # analytic density oracle at the sample point nearest 0:
        # log N(0; 0, 1) = -0.9189...
        rng = np.random.default_rng(123)
        samples = gaussian_sample_set(rng, 100_000)
        value = kde_log_densities(samples)[np.argmin(np.abs(samples.particles[:, 0]))]
        assert abs(value - STD_NORMAL_LOGPDF_MODE) < 0.05

    def test_identical_particles_singular_bandwidth(self):
        samples = particle_set([[1.0], [1.0], [1.0]])
        with pytest.raises(BandwidthError, match="singular"):
            kde_log_densities(samples)


class TestResubstitutionEntropy:
    def test_single_particle_fixed_bandwidth(self):
        assert fixed_bandwidth_entropy(particle_set([[0.0]]), 1.0) == pytest.approx(
            -STD_NORMAL_LOGPDF_MODE, abs=1e-12
        )

    def test_coincident_pair_equals_single(self):
        single = fixed_bandwidth_entropy(particle_set([[0.5]]), 1.0)
        pair = fixed_bandwidth_entropy(particle_set([[0.5], [0.5]]), 1.0)
        assert pair == pytest.approx(single, abs=1e-12)

    def test_needs_two_particles_for_data_rules(self):
        with pytest.raises(BandwidthError, match="at least 2"):
            resubstitution_entropy(particle_set([[0.0]]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((200, 2))
        weights = rng.uniform(0.2, 1.0, 200)
        base = particle_set(values, weights)
        perm = rng.permutation(200)
        shuffled = particle_set(values[perm], weights[perm])
        a = resubstitution_entropy(base)
        b = resubstitution_entropy(shuffled)
        assert b == pytest.approx(a, rel=1e-12)

    def test_standard_normal_oracle(self):
        # gaussian_entropy oracle: H[N(0,1)] = 1.4189...
        rng = np.random.default_rng(9)
        samples = gaussian_sample_set(rng, 10_000)
        value = resubstitution_entropy(samples)
        assert abs(value - GAUSS_ENTROPY_1D) < 0.1

    def test_additivity_under_independence(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((10_000, 1))
        extended = np.concatenate([base, rng.standard_normal((10_000, 1))], axis=1)
        h1 = resubstitution_entropy(particle_set(base))
        h2 = resubstitution_entropy(particle_set(extended))
        assert abs((h2 - h1) - GAUSS_ENTROPY_1D) < 0.15

    def test_clamp_events_are_counted(self):
        # a point whose own kernel weighs 1e-305, far from the other kernel,
        # is counted, and its log density, -703.2, is kept as computed
        particles = np.array([[-50.0], [50.0]])
        values, clamps = _log_mixture(particles, np.array([1e-305, 1.0]), np.array([1.0]))
        assert clamps == 1
        assert values[0] == pytest.approx(math.log(1e-305) + STD_NORMAL_LOGPDF_MODE, rel=1e-12)
        assert values[1] > LOG_DENSITY_FLOOR
        # the pipelines expose the counter
        prior, action = make_chain_1d()
        est = naive_kde_augmented_mi(prior, action, 16, rng=0)
        assert np.isfinite(est.value)
        assert est.sample_counts["clamp_events"] == 0


class TestKdeMiPipelines:
    def test_full_involvement_bit_identical_to_naive(self, chain):
        prior, action = chain
        a = naive_kde_augmented_mi(prior, action, 400, rng=3)
        b = invmi_kde_augmented_mi(prior, action, 400, rng=3)
        assert a.value == b.value
        # one observation draw each, as the traced benchmark's cell count reads
        assert a.sample_counts["z_draws"] == b.sample_counts["z_draws"] == 1
        assert a.method == "naive_kde" and b.method == "invmi_kde"

    def test_estimates_follow_a_scaled_scenario(self):
        # The replica with its mean scaled by 100 and every covariance (prior,
        # transition and observation noise) by 100^2: the same seed draws
        # every sample 100 times farther out, and Scott's bandwidths follow.
        # Each entropy moves by its dimension times ln 100, and the posterior
        # holds a1's two new dimensions, so the estimate falls by 2 ln 100.
        # Every naive log density is far below -700 here; they are counted,
        # and kept.
        scenario = generate_scenario(150, 4, correlation_strength=0.3, seed=42)
        prior, action = scenario.prior, scenario.actions[0]
        k = 100.0

        def scaled(model):
            return replace(model, noise_cov=k * k * model.noise_cov)

        big_prior = GaussianDensity(prior.layout, k * prior.mean, k * k * prior.covariance)
        big_action = replace(
            action,
            transitions=tuple(scaled(m) for m in action.transitions),
            observations=tuple((step, scaled(m)) for step, m in action.observations),
        )
        assert action.new_dim_total == 2
        for pipeline, clamps in ((naive_kde_augmented_mi, 600), (invmi_kde_augmented_mi, 0)):
            base = pipeline(prior, action, 300, rng=1)
            big = pipeline(big_prior, big_action, 300, rng=1)
            assert big.value == pytest.approx(base.value - 2.0 * math.log(k), abs=1e-9)
            assert big.sample_counts["clamp_events"] == clamps

    def test_uninformative_observation_limit(self):
        # z independent of the state: the estimate converges to -H[new | x]
        from augmi import (
            Action,
            LinearGaussianModel,
            joint_state_observation,
        )

        prior, action = make_chain_1d()
        free_obs = LinearGaussianModel(
            inputs=(), output_dim=1, matrix=np.zeros((1, 0)), noise_cov=[[0.5]]
        )
        blind = Action(
            id="a", transitions=action.transitions, observations=((1, free_obs),)
        )
        joint = joint_state_observation(
            prior, Action(id="t", transitions=action.transitions)
        )
        h_new_given_x = gaussian_entropy_ref(joint) - gaussian_entropy_ref(prior)
        values = np.array(
            [
                naive_kde_augmented_mi(prior, blind, 3000, rng=40 + i).value
                for i in range(15)
            ]
        )
        assert abs(values.mean() - (-h_new_given_x)) < 3.0 * values.std(ddof=1)

    def test_paired_runs_agree_statistically(self, chain):
        # 1D fully-involved scenario: naive and involved paths on different
        # seeds agree within 2 * combined empirical std
        prior, action = chain
        naive = np.array(
            [naive_kde_augmented_mi(prior, action, 1500, rng=100 + i).value for i in range(20)]
        )
        involved = np.array(
            [
                invmi_kde_augmented_mi(prior, action, 1500, rng=300 + i).value
                for i in range(20)
            ]
        )
        combined = math.hypot(naive.std(ddof=1), involved.std(ddof=1))
        assert abs(naive.mean() - involved.mean()) < 2.0 * combined

    def test_chain_converges_to_oracle(self, chain):
        # analytic oracle: mean over trials within 3 * empirical std at n = 1e4
        prior, action = chain
        values = np.array(
            [
                invmi_kde_augmented_mi(prior, action, 10_000, rng=i).value
                for i in range(8)
            ]
        )
        assert abs(values.mean() - CHAIN_MI) < 3.0 * values.std(ddof=1)

    def test_involved_beats_naive_variance_moderate_dim(self):
        from augmi import generate_scenario

        scenario = generate_scenario(40, 1, seed=3)
        action = scenario.actions[0]
        naive = np.array(
            [
                naive_kde_augmented_mi(scenario.prior, action, 150, rng=i).value
                for i in range(20)
            ]
        )
        reduced = np.array(
            [
                invmi_kde_augmented_mi(scenario.prior, action, 150, rng=i).value
                for i in range(20)
            ]
        )
        assert naive.std(ddof=1) > reduced.std(ddof=1)

    @pytest.mark.parametrize("pipeline", [naive_kde_augmented_mi, invmi_kde_augmented_mi])
    def test_particle_belief_rejected(self, chain, pipeline):
        # both pipelines condition the Gaussian exactly, so a particle
        # belief is refused by type before anything is drawn
        prior, action = chain
        particles = sample_particles(prior, 50, 0)
        with pytest.raises(TypeError, match="GaussianDensity"):
            pipeline(particles, action, 50, rng=0)

    @pytest.mark.parametrize("pipeline", [naive_kde_augmented_mi, invmi_kde_augmented_mi])
    def test_action_without_observations_rejected(self, chain, pipeline):
        # there is nothing to condition the posterior on
        prior, action = chain
        silent = Action(id="t", transitions=action.transitions)
        with pytest.raises(ValueError, match="action 't' has no observations$"):
            pipeline(prior, silent, 50, rng=0)

    @pytest.mark.parametrize("value", [True, 300.0, 2.5])
    @pytest.mark.parametrize("call", sorted(COUNTED_CALLS))
    def test_non_integer_counts_rejected(self, chain, call, value):
        name, run = COUNTED_CALLS[call]
        prior, action = chain
        with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
            run(prior, action, value)

    def test_int_seed_equals_its_generator(self, chain):
        prior, action = chain
        est = naive_kde_augmented_mi(prior, action, 64, rng=777)
        est2 = naive_kde_augmented_mi(prior, action, 64, rng=np.random.default_rng(777))
        assert est2.value == est.value
