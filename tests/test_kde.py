import math

import numpy as np
import pytest

from augmi import (
    BandwidthError,
    FootprintError,
    KdeConfig,
    StateLayout,
    WeightedParticleSet,
    invmi_kde_augmented_mi,
    naive_kde_augmented_mi,
    resubstitution_entropy,
    sample_particles,
)
from augmi.kde import _log_mixture, bandwidth_vector
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
    "naive_kde z_draws": (
        "z_draws",
        lambda prior, action, v: naive_kde_augmented_mi(prior, action, 64, z_draws=v),
    ),
    "invmi_kde n": (
        "n",
        lambda prior, action, v: invmi_kde_augmented_mi(prior, action, {"x"}, v),
    ),
    "invmi_kde z_draws": (
        "z_draws",
        lambda prior, action, v: invmi_kde_augmented_mi(prior, action, {"x"}, 64, z_draws=v),
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


def kde_log_density(samples, cfg, query) -> float:
    """Log of the weighted Gaussian-kernel mixture at one query point, as
    the re-substitution entropy evaluates it."""
    bandwidth = bandwidth_vector(samples.particles, samples.weights, cfg)
    query = np.atleast_2d(np.asarray(query, dtype=float))
    vals, _clamps = _log_mixture(query, samples.particles, samples.weights, bandwidth)
    return float(vals[0])


class TestKdeConfig:
    def test_fixed_requires_positive_bandwidth(self):
        with pytest.raises(BandwidthError):
            KdeConfig(bandwidth_rule="fixed", bandwidth=0.0)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown bandwidth rule"):
            KdeConfig(bandwidth_rule="epanechnikov")


class TestKdeLogDensity:
    def test_single_particle_at_origin(self):
        cfg = KdeConfig(bandwidth_rule="fixed", bandwidth=1.0)
        samples = particle_set([[0.0]])
        assert kde_log_density(samples, cfg, [0.0]) == pytest.approx(
            STD_NORMAL_LOGPDF_MODE, abs=1e-12
        )

    def test_one_bandwidth_away(self):
        cfg = KdeConfig(bandwidth_rule="fixed", bandwidth=0.5)
        samples = particle_set([[0.0]])
        at_mode = kde_log_density(samples, cfg, [0.0])
        assert kde_log_density(samples, cfg, [0.5]) == pytest.approx(
            at_mode - 0.5, abs=1e-12
        )

    def test_large_sample_matches_true_density(self):
        # analytic density oracle: log N(0; 0, 1) = -0.9189...
        rng = np.random.default_rng(123)
        samples = gaussian_sample_set(rng, 100_000)
        value = kde_log_density(samples, KdeConfig(), np.zeros(1))
        assert abs(value - STD_NORMAL_LOGPDF_MODE) < 0.05

    def test_identical_particles_singular_bandwidth(self):
        samples = particle_set([[1.0], [1.0], [1.0]])
        with pytest.raises(BandwidthError, match="singular"):
            kde_log_density(samples, KdeConfig(), [1.0])


class TestResubstitutionEntropy:
    def test_single_particle_fixed_bandwidth(self):
        cfg = KdeConfig(bandwidth_rule="fixed", bandwidth=1.0)
        assert resubstitution_entropy(particle_set([[0.0]]), cfg) == pytest.approx(
            -STD_NORMAL_LOGPDF_MODE, abs=1e-12
        )

    def test_coincident_pair_equals_single(self):
        cfg = KdeConfig(bandwidth_rule="fixed", bandwidth=1.0)
        single = resubstitution_entropy(particle_set([[0.5]]), cfg)
        pair = resubstitution_entropy(particle_set([[0.5], [0.5]]), cfg)
        assert pair == pytest.approx(single, abs=1e-12)

    def test_needs_two_particles_for_data_rules(self):
        with pytest.raises(BandwidthError, match="at least 2"):
            resubstitution_entropy(particle_set([[0.0]]), KdeConfig())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((200, 2))
        weights = rng.uniform(0.2, 1.0, 200)
        base = particle_set(values, weights)
        perm = rng.permutation(200)
        shuffled = particle_set(values[perm], weights[perm])
        cfg = KdeConfig()
        a = resubstitution_entropy(base, cfg)
        b = resubstitution_entropy(shuffled, cfg)
        assert b == pytest.approx(a, rel=1e-12)

    def test_standard_normal_oracle(self):
        # gaussian_entropy oracle: H[N(0,1)] = 1.4189...
        rng = np.random.default_rng(9)
        samples = gaussian_sample_set(rng, 10_000)
        value = resubstitution_entropy(samples, KdeConfig())
        assert abs(value - GAUSS_ENTROPY_1D) < 0.1

    def test_additivity_under_independence(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((10_000, 1))
        extended = np.concatenate([base, rng.standard_normal((10_000, 1))], axis=1)
        cfg = KdeConfig()
        h1 = resubstitution_entropy(particle_set(base), cfg)
        h2 = resubstitution_entropy(particle_set(extended), cfg)
        assert abs((h2 - h1) - GAUSS_ENTROPY_1D) < 0.15

    def test_clamp_events_are_counted(self):
        cfg = KdeConfig(bandwidth_rule="fixed", bandwidth=1e-3)
        prior, action = make_chain_1d()
        # two far-apart clusters with a tiny bandwidth force clamped kernels
        est = naive_kde_augmented_mi(prior, action, 16, cfg, rng=0)
        assert np.isfinite(est.value)
        # the value survived clamping; counter is exposed
        assert "clamp_events" in est.sample_counts


class TestKdeMiPipelines:
    def test_full_involvement_bit_identical_to_naive(self, chain):
        prior, action = chain
        a = naive_kde_augmented_mi(prior, action, 400, rng=3)
        b = invmi_kde_augmented_mi(prior, action, {"x"}, 400, rng=3)
        assert a.value == b.value
        assert a.method == "naive_kde" and b.method == "invmi_kde"

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
                invmi_kde_augmented_mi(prior, action, {"x"}, 1500, rng=300 + i).value
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
                invmi_kde_augmented_mi(prior, action, {"x"}, 10_000, rng=i).value
                for i in range(8)
            ]
        )
        assert abs(values.mean() - CHAIN_MI) < 3.0 * values.std(ddof=1)

    def test_involved_beats_naive_variance_moderate_dim(self):
        from augmi import determine_involved, generate_scenario

        scenario = generate_scenario(40, 1, seed=3)
        action = scenario.actions[0]
        involved = determine_involved(scenario.layout, action)
        naive = np.array(
            [
                naive_kde_augmented_mi(scenario.prior, action, 150, rng=i).value
                for i in range(20)
            ]
        )
        reduced = np.array(
            [
                invmi_kde_augmented_mi(
                    scenario.prior, action, involved.blocks, 150, rng=i
                ).value
                for i in range(20)
            ]
        )
        assert naive.std(ddof=1) > reduced.std(ddof=1)

    def test_footprint_violation(self, chain):
        prior, action = chain
        layout2 = StateLayout.from_dims([("x", 1), ("y", 1)])
        from augmi import GaussianDensity

        prior2 = GaussianDensity(
            layout=layout2, mean=np.zeros(2), covariance=np.eye(2)
        )
        with pytest.raises(FootprintError, match="misses"):
            invmi_kde_augmented_mi(prior2, action, {"y"}, 100, rng=0)

    def test_z_draws_average(self, chain):
        prior, action = chain
        est = invmi_kde_augmented_mi(prior, action, {"x"}, 300, rng=1, z_draws=4)
        assert np.isfinite(est.value)
        assert est.sample_counts["z_draws"] == 4

    @pytest.mark.parametrize("z_draws", [0, -2])
    def test_no_observation_draws_rejected(self, chain, z_draws):
        prior, action = chain
        with pytest.raises(ValueError, match="z_draws"):
            naive_kde_augmented_mi(prior, action, 300, rng=1, z_draws=z_draws)
        with pytest.raises(ValueError, match="z_draws"):
            invmi_kde_augmented_mi(prior, action, {"x"}, 300, rng=1, z_draws=z_draws)

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
