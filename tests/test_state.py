import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from augmi import (
    Action,
    GaussianDensity,
    LinearGaussianModel,
    SequentialObservation,
    SequentialTransition,
    StateLayout,
    UnknownBlockError,
    VariableBlock,
    WeightedParticleSet,
    compose_actions,
    determine_involved,
    generate_scenario,
    marginalize_gaussian,
    marginalize_particles,
    sample_particles,
)
from augmi.state import (
    _HERMITE_PAIRS,
    _HERMITE_WINDOW,
    LOG_TWO_PI,
    _hermite_kernel_sum,
    _log_kernel_sum,
)
from conftest import STD_NORMAL_LOGPDF_MODE, log_density_ref, make_chain_1d, random_spd


class TestLayout:
    def test_from_dims(self):
        layout = StateLayout.from_dims([("a", 2), ("b", 3)])
        assert layout.total_dim == 5
        assert layout.block("b").offset == 2
        assert layout.ids == ("a", "b")

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="contiguous"):
            StateLayout((VariableBlock("a", 0, 2), VariableBlock("b", 3, 1)))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="contiguous"):
            StateLayout((VariableBlock("a", 0, 2), VariableBlock("b", 1, 2)))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            StateLayout.from_dims([("a", 1), ("a", 1)])

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match="dim"):
            VariableBlock("a", 0, 0)

    def test_unknown_block_named_in_error(self):
        layout = StateLayout.from_dims([("a", 1)])
        with pytest.raises(UnknownBlockError, match="nope"):
            layout.indices({"nope"})


class TestMarginalizeParticles:
    def test_two_block_projection(self):
        layout = StateLayout.from_dims([("a", 1), ("b", 1)])
        belief = WeightedParticleSet(
            layout=layout, particles=[[1.0, 2.0], [3.0, 4.0]], weights=[0.5, 0.5]
        )
        reduced = marginalize_particles(belief, {"a"})
        np.testing.assert_array_equal(reduced.particles, [[1.0], [3.0]])
        np.testing.assert_array_equal(reduced.weights, [0.5, 0.5])
        assert reduced.layout.ids == ("a",)

    def test_keep_all_is_identity(self):
        layout = StateLayout.from_dims([("a", 1), ("b", 2)])
        belief = WeightedParticleSet(
            layout=layout,
            particles=np.arange(6.0).reshape(2, 3),
            weights=[0.25, 0.75],
        )
        same = marginalize_particles(belief, {"a", "b"})
        np.testing.assert_array_equal(same.particles, belief.particles)
        assert same.layout == belief.layout

    def test_scenario_involved_subset_is_4d(self):
        # 150-dim scenario, the involved subset of an action is 4 dims
        scenario = generate_scenario(150, 4, seed=7)
        action = scenario.actions[0]
        involved = determine_involved(scenario.layout, action).blocks
        rng = np.random.default_rng(0)
        belief = sample_particles(scenario.prior, 32, rng)
        reduced = marginalize_particles(belief, involved)
        assert reduced.dim == 4
        assert reduced.n == 32
        np.testing.assert_array_equal(reduced.weights, belief.weights)

    def test_unknown_block(self):
        layout = StateLayout.from_dims([("a", 1)])
        belief = WeightedParticleSet(layout=layout, particles=[[0.0]], weights=[1.0])
        with pytest.raises(UnknownBlockError, match="ghost"):
            marginalize_particles(belief, {"ghost"})

    def test_marginalization_commutes_exactly(self):
        rng = np.random.default_rng(3)
        layout = StateLayout.from_dims([("a", 2), ("b", 1), ("c", 3)])
        belief = WeightedParticleSet(
            layout=layout,
            particles=rng.standard_normal((20, 6)),
            weights=rng.uniform(0.1, 1.0, 20),
        )
        two_step = marginalize_particles(marginalize_particles(belief, {"a", "c"}), {"a"})
        one_step = marginalize_particles(belief, {"a"})
        np.testing.assert_array_equal(two_step.particles, one_step.particles)
        np.testing.assert_array_equal(two_step.weights, one_step.weights)


class TestMarginalizeGaussian:
    def test_submatrix(self):
        layout = StateLayout.from_dims([("a", 1), ("b", 1)])
        density = GaussianDensity(
            layout=layout, mean=[0.0, 0.0], covariance=[[1.0, 0.5], [0.5, 2.0]]
        )
        reduced = marginalize_gaussian(density, {"a"})
        np.testing.assert_array_equal(reduced.mean, [0.0])
        np.testing.assert_array_equal(reduced.covariance, [[1.0]])

    def test_keep_all_identity(self):
        layout = StateLayout.from_dims([("a", 2)])
        density = GaussianDensity(
            layout=layout, mean=[1.0, 2.0], covariance=np.eye(2)
        )
        same = marginalize_gaussian(density, {"a"})
        np.testing.assert_array_equal(same.mean, density.mean)

    def test_marginal_of_marginal(self):
        # compose-and-compare oracle on a random 10-block density
        rng = np.random.default_rng(11)
        layout = StateLayout.from_dims((f"b{i}", int(rng.integers(1, 3))) for i in range(10))
        density = GaussianDensity(
            layout=layout,
            mean=rng.standard_normal(layout.total_dim),
            covariance=random_spd(rng, layout.total_dim),
        )
        keep_outer = {"b0", "b2", "b4", "b7", "b9"}
        keep_inner = {"b2", "b7"}
        nested = marginalize_gaussian(marginalize_gaussian(density, keep_outer), keep_inner)
        direct = marginalize_gaussian(density, keep_inner)
        np.testing.assert_array_equal(nested.mean, direct.mean)
        np.testing.assert_array_equal(nested.covariance, direct.covariance)


class TestSampleParticles:
    def test_single_particle(self):
        layout = StateLayout.from_dims([("a", 1)])
        density = GaussianDensity(layout=layout, mean=[0.0], covariance=[[1.0]])
        pset = sample_particles(density, 1, np.random.default_rng(0))
        assert pset.n == 1
        assert pset.weights[0] == 1.0

    def test_uniform_weights_300(self):
        layout = StateLayout.from_dims([("a", 2)])
        density = GaussianDensity(layout=layout, mean=np.zeros(2), covariance=np.eye(2))
        pset = sample_particles(density, 300, np.random.default_rng(1))
        assert pset.n == 300
        np.testing.assert_allclose(pset.weights, 1.0 / 300)

    def test_seed_determinism_bit_identical(self):
        layout = StateLayout.from_dims([("a", 3)])
        density = GaussianDensity(
            layout=layout,
            mean=[1.0, -2.0, 0.5],
            covariance=random_spd(np.random.default_rng(5), 3),
        )
        a = sample_particles(density, 50, np.random.default_rng(42))
        b = sample_particles(density, 50, np.random.default_rng(42))
        np.testing.assert_array_equal(a.particles, b.particles)

    def test_law_of_large_numbers(self):
        layout = StateLayout.from_dims([("a", 3)])
        cov = random_spd(np.random.default_rng(2), 3)
        mean = np.array([0.5, -1.0, 2.0])
        density = GaussianDensity(layout=layout, mean=mean, covariance=cov)
        n = 10**6
        pset = sample_particles(density, n, np.random.default_rng(9))
        sample_mean = pset.particles.mean(axis=0)
        bound = 4.0 * np.sqrt(np.diag(cov)) / math.sqrt(n)
        assert np.all(np.abs(sample_mean - mean) < bound)

    def test_rejects_nonpositive_n(self):
        layout = StateLayout.from_dims([("a", 1)])
        density = GaussianDensity(layout=layout, mean=[0.0], covariance=[[1.0]])
        with pytest.raises(ValueError, match="n must be"):
            sample_particles(density, 0, np.random.default_rng(0))


class TestWeightedParticleSet:
    def test_weights_normalized(self):
        layout = StateLayout.from_dims([("a", 1)])
        pset = WeightedParticleSet(
            layout=layout, particles=[[0.0], [1.0], [2.0]], weights=[1.0, 2.0, 3.0]
        )
        assert abs(pset.weights.sum() - 1.0) < 1e-12

    def test_rejects_negative_weights(self):
        layout = StateLayout.from_dims([("a", 1)])
        with pytest.raises(ValueError, match="non-negative"):
            WeightedParticleSet(layout=layout, particles=[[0.0], [1.0]], weights=[1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_particles_and_weights(self, bad):
        layout = StateLayout.from_dims([("a", 1)])
        with pytest.raises(ValueError, match="particle set has non-finite particles"):
            WeightedParticleSet(
                layout=layout, particles=[[0.0], [bad], [2.0]], weights=[1.0, 1.0, 1.0]
            )
        with pytest.raises(ValueError, match="particle set has non-finite weights"):
            WeightedParticleSet(
                layout=layout, particles=[[0.0], [1.0], [2.0]], weights=[1.0, bad, 1.0]
            )

    def test_arrays_immutable(self):
        layout = StateLayout.from_dims([("a", 1)])
        pset = WeightedParticleSet(layout=layout, particles=[[0.0]], weights=[1.0])
        with pytest.raises(ValueError):
            pset.particles[0, 0] = 5.0


class TestGaussianDensityValidation:
    def test_rejects_asymmetric_covariance(self):
        layout = StateLayout.from_dims([("a", 2)])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianDensity(
                layout=layout, mean=np.zeros(2), covariance=[[1.0, 0.2], [0.1, 1.0]]
            )

    def test_symmetrizes_roundoff(self):
        layout = StateLayout.from_dims([("a", 2)])
        cov = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        density = GaussianDensity(layout=layout, mean=np.zeros(2), covariance=cov)
        assert density.covariance[0, 1] == density.covariance[1, 0]

    def test_shape_validation(self):
        layout = StateLayout.from_dims([("a", 2)])
        with pytest.raises(ValueError, match="mean"):
            GaussianDensity(layout=layout, mean=np.zeros(3), covariance=np.eye(2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_mean_and_covariance(self, bad):
        layout = StateLayout.from_dims([("a", 2), ("b", 2)])
        with pytest.raises(ValueError, match="mean must be finite"):
            GaussianDensity(layout=layout, mean=[bad, 0.0, 0.0, 0.0], covariance=np.eye(4))
        cov = np.eye(4)
        cov[1, 2] = cov[2, 1] = bad
        with pytest.raises(ValueError, match="covariance must be finite"):
            GaussianDensity(layout=layout, mean=np.zeros(4), covariance=cov)


class TestLinearGaussianModelValidation:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_nonfinite_matrix_and_noise(self, bad):
        with pytest.raises(ValueError, match="matrix must be finite"):
            LinearGaussianModel(
                inputs=("x",), output_dim=1, matrix=[[bad]], noise_cov=[[1.0]]
            )
        with pytest.raises(ValueError, match="noise_cov must be finite"):
            LinearGaussianModel(
                inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[bad]]
            )


def log_density(model: LinearGaussianModel, inputs, output) -> float:
    """log N(output; matrix @ inputs, noise_cov) through the batch path: the
    model as the one transition of an action on block ``x``."""
    layout = StateLayout.from_dims([("x", model.input_dim)])
    trans = SequentialTransition(layout, Action(id="t", transitions=(model,)))
    return float(trans.log_density(np.concatenate([inputs, output])[None, :])[0])


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        model = LinearGaussianModel(
            inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
        )
        assert log_density(model, [0.0], [0.0]) == pytest.approx(
            STD_NORMAL_LOGPDF_MODE, abs=1e-12
        )

    def test_one_sigma_shift(self):
        model = LinearGaussianModel(
            inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
        )
        at_mode = log_density(model, [0.0], [0.0])
        shifted = log_density(model, [0.0], [1.0])
        assert shifted == pytest.approx(at_mode - 0.5, abs=1e-12)

    def test_grid_quadrature_normalization(self):
        # the density over a 3D output integrates to 1 on a grid
        rng = np.random.default_rng(4)
        model = LinearGaussianModel(
            inputs=("x",),
            output_dim=3,
            matrix=rng.standard_normal((3, 2)),
            noise_cov=random_spd(rng, 3, scale=0.8),
        )
        inputs = rng.standard_normal(2)
        center = model.matrix @ inputs
        half_width = 6.0 * np.sqrt(np.diag(model.noise_cov))
        axes = [np.linspace(c - h, c + h, 41) for c, h in zip(center, half_width)]
        steps = [a[1] - a[0] for a in axes]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        resid = grid - center
        solve = np.linalg.solve(model.noise_cov, resid.T)
        quad = np.exp(
            -0.5 * np.einsum("ij,ji->i", resid, solve)
            - 0.5 * 3 * math.log(2 * math.pi)
            - 0.5 * math.log(np.linalg.det(model.noise_cov))
        ).sum() * np.prod(steps)
        assert abs(quad - 1.0) < 1e-3
        # and the scalar op agrees with the direct quadratic form
        point = grid[1234]
        direct = (
            -0.5 * resid[1234] @ np.linalg.solve(model.noise_cov, resid[1234])
            - 0.5 * 3 * math.log(2 * math.pi)
            - 0.5 * math.log(np.linalg.det(model.noise_cov))
        )
        assert log_density(model, inputs, point) == pytest.approx(direct, abs=1e-10)

    def test_maximized_at_mean(self):
        rng = np.random.default_rng(8)
        model = LinearGaussianModel(
            inputs=("x",),
            output_dim=2,
            matrix=rng.standard_normal((2, 3)),
            noise_cov=random_spd(rng, 2),
        )
        inputs = rng.standard_normal(3)
        mode = model.matrix @ inputs
        at_mode = log_density(model, inputs, mode)
        for _ in range(8):
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            assert log_density(model, inputs, mode + 0.1 * direction) < at_mode


class TestAction:
    def test_observation_step_bounds(self):
        model = LinearGaussianModel(
            inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
        )
        with pytest.raises(ValueError, match="out of range"):
            Action(id="a", transitions=(model,), observations=((2, model),))

    def test_dangling_reference(self):
        layout = StateLayout.from_dims([("x", 1)])
        model = LinearGaussianModel(
            inputs=("ghost",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
        )
        action = Action(id="a", transitions=(model,))
        with pytest.raises(UnknownBlockError, match="ghost"):
            action.validate_against(layout)

    def test_footprint_excludes_new_blocks(self):
        prior, action = make_chain_1d()
        assert determine_involved(prior.layout, action).blocks == {"x"}

    def test_compose_offsets_steps(self):
        _prior, a1 = make_chain_1d()
        second_tr = LinearGaussianModel(
            inputs=("a:x1",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
        )
        second_obs = LinearGaussianModel(
            inputs=("b:x1",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
        )
        a2 = Action(id="b", transitions=(second_tr,), observations=((1, second_obs),))
        composed = compose_actions([a1, a2])
        assert composed.new_ids == ("a:x1", "b:x1")
        assert [step for step, _m in composed.observations] == [1, 2]
        composed.validate_against(StateLayout.from_dims([("x", 1)]))

    def test_compose_rejects_colliding_new_ids(self):
        _prior, a1 = make_chain_1d()
        with pytest.raises(ValueError, match="distinct"):
            compose_actions([a1, a1])


class TestSequentialModels:
    def _instance(self):
        layout = StateLayout.from_dims([("p", 2), ("l", 2)])
        rng = np.random.default_rng(6)
        transition = LinearGaussianModel(
            inputs=("p",), output_dim=2, matrix=np.eye(2), noise_cov=0.3 * np.eye(2)
        )
        observation = LinearGaussianModel(
            inputs=("a:x1", "l"),
            output_dim=2,
            matrix=np.concatenate([-np.eye(2), np.eye(2)], axis=1),
            noise_cov=random_spd(rng, 2, scale=0.5),
        )
        action = Action(id="a", transitions=(transition,), observations=((1, observation),))
        return layout, action

    def test_sampled_logpdf_matches_direct(self):
        layout, action = self._instance()
        trans = SequentialTransition(layout, action)
        obs = SequentialObservation(layout, action)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 4))
        states, logp_t = trans.sample_with_noise(x, rng.standard_normal((40, 2)))
        np.testing.assert_array_equal(states[:, :4], x)
        np.testing.assert_allclose(logp_t, trans.log_density(states), atol=1e-10)
        z, logp_o = obs.sample_with_noise(states, rng.standard_normal((40, 2)))
        np.testing.assert_allclose(logp_o, obs.log_density(states, z), atol=1e-10)

    def test_logpdf_matches_scalar_op(self):
        layout, action = self._instance()
        trans = SequentialTransition(layout, action)
        obs = SequentialObservation(layout, action)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        states, _ = trans.sample_with_noise(x, rng.standard_normal((5, 2)))
        new = states[:, 4:]
        z, _ = obs.sample_with_noise(states, rng.standard_normal((5, 2)))
        t_model = action.transitions[0]
        o_model = action.observations[0][1]
        for i in range(5):
            expect_t = log_density_ref(t_model, x[i, :2], new[i])
            assert trans.log_density(states[i : i + 1])[0] == pytest.approx(
                expect_t, abs=1e-10
            )
            expect_o = log_density_ref(o_model, np.concatenate([new[i], x[i, 2:]]), z[i])
            assert obs.log_density(states[i : i + 1], z[i : i + 1])[0] == pytest.approx(
                expect_o, abs=1e-10
            )

    def test_grid_matches_rowwise(self):
        layout, action = self._instance()
        trans = SequentialTransition(layout, action)
        obs = SequentialObservation(layout, action)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 4))
        states, _ = trans.sample_with_noise(x, rng.standard_normal((30, 2)))
        z = rng.standard_normal((11, 2))
        grid = obs.grid_evaluator(states).log_density_grid(z)
        assert grid.shape == (11, 30)
        for m in (0, 5, 10):
            row = obs.log_density(states, np.repeat(z[m : m + 1], 30, axis=0))
            np.testing.assert_allclose(grid[m], row, atol=1e-9)

    def test_mixture_likelihood_paths_agree(self):
        # factored fast path vs plain exp of the log grid
        layout, action = self._instance()
        trans = SequentialTransition(layout, action)
        obs = SequentialObservation(layout, action)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((64, 4))
        states, _ = trans.sample_with_noise(x, rng.standard_normal((64, 2)))
        z = rng.standard_normal((17, 2)) * 2.0
        weights = rng.uniform(0.1, 1.0, 64)
        evaluator = obs.grid_evaluator(states)
        fast = np.exp(evaluator.mixture_likelihood(z, weights))
        plain = np.exp(evaluator.log_density_grid(z)) @ weights
        np.testing.assert_allclose(fast, plain, rtol=1e-12)


@st.composite
def whitening_cases(draw):
    """Observation models of output dims 1 to 6 and noise scales 1e-6 to
    1e6, and 1 to 400 rows of outputs to whiten."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    models = [
        LinearGaussianModel(
            inputs=("x",), output_dim=k, matrix=np.ones((k, 1)),
            noise_cov=random_spd(rng, k, scale=10.0 ** draw(st.floats(-6.0, 6.0))),
        )
        for k in dims
    ]
    action = Action(
        id="a",
        transitions=(LinearGaussianModel(("x",), 1, [[1.0]], [[1.0]]),),
        observations=tuple((1, m) for m in models),
    )
    y = rng.standard_normal((draw(st.integers(1, 400)), sum(dims)))
    return action, y * 10.0 ** draw(st.floats(-6.0, 6.0))


class TestWhiten:
    @settings(max_examples=40, deadline=None)
    @given(whitening_cases())
    def test_matches_solve_triangular_per_model(self, case):
        action, y = case
        obs = SequentialObservation(StateLayout.from_dims([("x", 1)]), action)
        expected, cursor = [], 0
        for _step, model in action.observations:
            part = y[:, cursor : cursor + model.output_dim]
            expected.append(
                scipy.linalg.solve_triangular(model.noise_chol, part.T, lower=True).T
            )
            cursor += model.output_dim
        assert np.array_equal(obs._whiten(y), np.concatenate(expected, axis=1))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_values(self, bad):
        layout = StateLayout.from_dims([("x", 1)])
        _prior, action = make_chain_1d()
        obs = SequentialObservation(layout, action)
        with pytest.raises(ValueError, match="non-finite"):
            obs.log_density(np.zeros((2, 2)), [[0.0], [bad]])


def _dense_log_kernel_sum(queries, centers, weights, log_norm):
    sq = ((queries[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    with np.errstate(divide="ignore"):
        return logsumexp(-0.5 * sq + np.log(weights), axis=1) - log_norm


class TestLogKernelSum:
    """The one Gaussian kernel sum behind the KDE and the SMC normalizer,
    against a dense log-sum-exp over all pairs."""

    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.integers(1, 3),
        n_queries=st.integers(1, 12),
        n_centers=st.integers(1, 12),
        log_scale=st.floats(-6.0, 6.0),
        log_norm=st.floats(-300.0, 300.0),
        zero_weights=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
    )
    # pinned branches: the factored linear sum, and log-sum-exp
    @example(
        dim=2, n_queries=5, n_centers=7, log_scale=0.0, log_norm=1.8, zero_weights=2, seed=1
    )
    @example(
        dim=3, n_queries=5, n_centers=7, log_scale=3.0, log_norm=2.8, zero_weights=2, seed=1
    )
    def test_matches_dense_reference(
        self, dim, n_queries, n_centers, log_scale, log_norm, zero_weights, seed
    ):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        centers = scale * rng.standard_normal((n_centers, dim))
        queries = scale * rng.standard_normal((n_queries, dim))
        weights = rng.uniform(0.1, 1.0, n_centers)
        weights[: min(zero_weights, n_centers - 1)] = 0.0
        weights /= weights.sum()
        # subtracting log_norm rounds at its own magnitude, so the tolerance
        # is relative to the larger of the value and log_norm
        np.testing.assert_allclose(
            _log_kernel_sum(queries, centers, weights, log_norm),
            _dense_log_kernel_sum(queries, centers, weights, log_norm),
            rtol=1e-12,
            atol=1e-12 * max(1.0, abs(log_norm)),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n_queries=st.integers(1, 40),
        n_centers=st.integers(1, 3000),
        log_scale=st.floats(-6.0, 6.0),
        log_norm=st.floats(-300.0, 300.0),
        zero_weights=st.integers(0, 11),
        near=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # pinned: a few boxes; more boxes than one window reaches; queries between
    # sparse centers, a few of which fall back to log-sum-exp; queries near
    # centers at whitened scale 1e6
    @example(
        n_queries=30, n_centers=400, log_scale=0.0, log_norm=0.9, zero_weights=3, near=0.5, seed=2
    )
    @example(
        n_queries=30, n_centers=3000, log_scale=1.5, log_norm=-40.0, zero_weights=0, near=0.5, seed=3
    )
    @example(
        n_queries=30, n_centers=20, log_scale=1.0, log_norm=0.0, zero_weights=0, near=0.0, seed=4
    )
    @example(
        n_queries=30, n_centers=2000, log_scale=6.0, log_norm=250.0, zero_weights=5, near=1.0, seed=5
    )
    def test_one_dimension_matches_dense_reference(
        self, n_queries, n_centers, log_scale, log_norm, zero_weights, near, seed
    ):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        centers = scale * rng.standard_normal((n_centers, 1))
        # a share of the queries lands within a few units of a center, where
        # the expansion, not the fallback, has to be accurate at any scale
        queries = 1.7 * scale * rng.standard_normal((n_queries, 1))
        close = rng.uniform(size=n_queries) < near
        queries[close] = centers[rng.integers(0, n_centers, np.count_nonzero(close))]
        queries[close] += 3.0 * rng.standard_normal((np.count_nonzero(close), 1))
        weights = rng.uniform(0.1, 1.0, n_centers)
        weights[: min(zero_weights, n_centers - 1)] = 0.0
        weights /= weights.sum()
        np.testing.assert_allclose(
            _log_kernel_sum(queries, centers, weights, log_norm),
            _dense_log_kernel_sum(queries, centers, weights, log_norm),
            rtol=1e-12,
            atol=1e-12 * max(1.0, abs(log_norm)),
        )

    def test_one_dimension_certifies_near_rows_and_falls_back_in_the_tail(self):
        # centers span 40 boxes, more than one window reaches; the first query
        # sits among them, the second 10 whitened units past the last one
        rng = np.random.default_rng(6)
        centers = np.sort(rng.uniform(-28.0, 28.0, 500))[:, None]
        weights = np.full(500, 1.0 / 500)
        queries = np.array([[0.3], [centers[-1, 0] + 10.0]])
        _log_sums, exact = _hermite_kernel_sum(queries[:, 0], centers[:, 0], weights)
        assert exact.tolist() == [False, True]
        np.testing.assert_allclose(
            _log_kernel_sum(queries, centers, weights, 0.9),
            _dense_log_kernel_sum(queries, centers, weights, 0.9),
            rtol=1e-12,
        )

    def test_one_dimension_counts_the_boxes_past_the_cutoff(self):
        # the query's own box holds weight 1e-12; the rest sits in a box just
        # past the cutoff, 6.51 kernel lengths (sqrt(2) whitened units) away,
        # and adds 4e-7 of the sum
        queries = np.array([[0.01 * math.sqrt(2.0)]])
        centers = np.array([[0.0], [-6.51 * math.sqrt(2.0)]])
        weights = np.array([1e-12, 1.0])
        _log_sums, exact = _hermite_kernel_sum(queries[:, 0], centers[:, 0], weights)
        assert exact.tolist() == [True]
        np.testing.assert_allclose(
            _log_kernel_sum(queries, centers, weights, 0.9),
            _dense_log_kernel_sum(queries, centers, weights, 0.9),
            rtol=1e-12,
        )

    def test_one_dimension_rows_are_batch_independent(self):
        rng = np.random.default_rng(7)
        centers = 4.0 * rng.standard_normal((3000, 1))
        weights = rng.uniform(0.1, 1.0, 3000)
        weights /= weights.sum()
        # more rows than one chunk holds, with tail rows that fall back
        chunk = _HERMITE_PAIRS // _HERMITE_WINDOW
        queries = 3.0 * rng.standard_normal((chunk + 40, 1))
        queries[-3:] = [[40.0], [-45.0], [60.0]]
        batch = _log_kernel_sum(queries, centers, weights, 0.9)
        _log_sums, exact = _hermite_kernel_sum(queries[:, 0], centers[:, 0], weights)
        assert exact[-3:].all() and not exact[: chunk + 1].any()
        # about one row in eight would differ if slots were summed in an
        # order that depends on the chunk's row count
        rows = [*range(0, chunk + 40, 5), chunk - 1, chunk, chunk + 1, chunk + 37, chunk + 39]
        for row in rows:
            alone = _log_kernel_sum(queries[row : row + 1], centers, weights, 0.9)
            assert alone.tobytes() == batch[row : row + 1].tobytes()
        straddle = _log_kernel_sum(queries[chunk - 5 : chunk + 5], centers, weights, 0.9)
        assert straddle.tobytes() == batch[chunk - 5 : chunk + 5].tobytes()

    def test_underflowing_row_leaves_the_factored_path(self):
        # Every exponent is within the factored path's bound, but the only
        # weighted center is 40 units away: exp(-800) underflows to 0.0.
        centers = np.array([[-20.0], [20.0]])
        queries = np.array([[-20.0], [20.0]])
        weights = np.array([0.0, 1.0])
        log_norm = 0.5 * LOG_TWO_PI
        got = _log_kernel_sum(queries, centers, weights, log_norm)
        np.testing.assert_allclose(got, [-800.0 - log_norm, -log_norm], rtol=1e-12)
        np.testing.assert_allclose(
            got, _dense_log_kernel_sum(queries, centers, weights, log_norm), rtol=1e-12
        )

    @pytest.mark.parametrize(
        "center, query, weights, log_norm",
        [
            # q . c = 728 overflows exp; |q|^2/2 + log_norm = 92 alone does not
            # bound it when log_norm is negative
            (26.0, 28.0, [0.5, 0.5], -300.0),
            # the same overflow, times a zero weight
            (26.0, 28.0, [1.0, 0.0], -300.0),
            # the sum exp(-731) is subnormal, and exp(-row) = exp(300) would
            # lift it past the 1e-300 check with its lost digits
            (23.15, 20.0, [1.0, 0.0], -500.0),
        ],
    )
    def test_negative_log_norm_stays_exact(self, center, query, weights, log_norm):
        # a KDE's log_norm is negative for small bandwidths
        centers = np.array([[-center], [center]])
        queries = np.array([[query]])
        weights = np.array(weights)
        got = _log_kernel_sum(queries, centers, weights, log_norm)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(
            got, _dense_log_kernel_sum(queries, centers, weights, log_norm), rtol=1e-12
        )
