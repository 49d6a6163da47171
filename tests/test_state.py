import math
import re
from unittest import mock

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
from augmi import state
from augmi.state import (
    _FGT_PAIRS,
    _FGT_REACH,
    _GRAM_ROWS,
    LOG_TWO_PI,
    _fast_gauss_transform,
    _log_kernel_sum,
)
from conftest import (
    STD_NORMAL_LOGPDF_MODE,
    grid_log_density_ref,
    log_density_ref,
    log_kernel_sum_ref,
    make_chain_1d,
    observation_log_density_ref,
    random_spd,
    transition_log_density_ref,
)


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

    def test_rejects_non_integer_dims_and_offsets(self):
        # A float or bool count would be truncated or read as 1 downstream.
        for dim in (1.5, 2.0, True):
            with pytest.raises(ValueError, match="integer"):
                StateLayout.from_dims([("x", dim)])
        message = "block 'x': offset must be an integer, got 0.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            VariableBlock("x", 0.0, 1)
        assert StateLayout.from_dims([("x", np.int64(2))]).total_dim == 2

    def test_unknown_block_named_in_error(self):
        layout = StateLayout.from_dims([("a", 1)])
        with pytest.raises(UnknownBlockError, match="nope"):
            layout.indices({"nope"})

    def test_rejects_an_empty_layout(self):
        with pytest.raises(ValueError, match="layout needs at least one block"):
            StateLayout(())

    def test_block_lookup_names_an_unknown_id(self):
        layout = StateLayout.from_dims([("a", 1)])
        with pytest.raises(UnknownBlockError, match="unknown block id 'zz'"):
            layout.block("zz")


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

    def test_empty_keep_rejected(self):
        layout = StateLayout.from_dims([("a", 1)])
        belief = WeightedParticleSet(layout=layout, particles=[[0.0]], weights=[1.0])
        with pytest.raises(ValueError, match="keep set must be non-empty"):
            marginalize_particles(belief, iter(()))

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

    def test_empty_keep_rejected(self):
        layout = StateLayout.from_dims([("a", 1)])
        density = GaussianDensity(layout=layout, mean=[0.0], covariance=[[1.0]])
        with pytest.raises(ValueError, match="keep set must be non-empty"):
            marginalize_gaussian(density, set())

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

    @pytest.mark.parametrize(
        ("particles", "weights", "message"),
        [
            (np.empty((0, 1)), [], "particle set needs at least one particle"),
            ([[0.0, 1.0]], [1.0], "particles have dim 2, layout expects 1"),
            ([[0.0]], [0.5, 0.5], "one weight per particle required"),
            ([[0.0], [1.0]], [0.0, 0.0], "weights must have positive sum"),
        ],
        ids=["no-particles", "wrong-dim", "weight-count", "zero-sum"],
    )
    def test_rejects_a_malformed_set(self, particles, weights, message):
        layout = StateLayout.from_dims([("a", 1)])
        with pytest.raises(ValueError, match=message):
            WeightedParticleSet(layout=layout, particles=particles, weights=weights)

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
        message = "covariance has shape (3, 3), expected (2, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            GaussianDensity(layout=layout, mean=np.zeros(2), covariance=np.eye(3))

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

    @pytest.mark.parametrize(
        ("matrix", "noise_cov", "message"),
        [
            ([[1.0]], np.eye(2), "matrix has 1 rows, expected output_dim=2"),
            ([[1.0], [1.0]], np.eye(3), "noise_cov shape must be (output_dim, output_dim)"),
        ],
        ids=["matrix-rows", "noise-shape"],
    )
    def test_rejects_mismatched_shapes(self, matrix, noise_cov, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LinearGaussianModel(inputs=("x",), output_dim=2, matrix=matrix, noise_cov=noise_cov)

    def test_rejects_a_non_integer_output_dim(self):
        for output_dim in (1.0, np.float64(1.0), True):
            with pytest.raises(ValueError, match="output_dim must be an integer"):
                LinearGaussianModel(
                    inputs=("x",), output_dim=output_dim, matrix=[[1.0]], noise_cov=[[1.0]]
                )


def log_density(model: LinearGaussianModel, inputs, output) -> float:
    """log N(output; matrix @ inputs, noise_cov) through the sequential
    models' means, whitening and normalizer: the model as the one transition
    of an action on block ``x``."""
    layout = StateLayout.from_dims([("x", model.input_dim)])
    trans = SequentialTransition(layout, Action(id="t", transitions=(model,)))
    states = np.concatenate([inputs, output])[None, :]
    return float(transition_log_density_ref(trans, states)[0])


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


_MOVE = LinearGaussianModel(inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]])


class TestAction:
    def test_observation_step_bounds(self):
        model = LinearGaussianModel(
            inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
        )
        with pytest.raises(ValueError, match="out of range"):
            Action(id="a", transitions=(model,), observations=((2, model),))

    def test_rejects_a_non_integer_observation_step(self):
        model = LinearGaussianModel(
            inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
        )
        for step in (1.9, 1.0, True):
            with pytest.raises(ValueError, match="observation steps must be integers"):
                Action(id="a", transitions=(model,), observations=((step, model),))
        action = Action(id="a", transitions=(model,), observations=((np.int64(1), model),))
        assert type(action.observations[0][0]) is int

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
        # the composed action's own check, which names the composed id
        _prior, a1 = make_chain_1d()
        message = "action 'a+a': new block ids must be unique"
        with pytest.raises(ValueError, match=re.escape(message)):
            compose_actions([a1, a1])

    def test_compose_rejects_an_empty_sequence(self):
        with pytest.raises(ValueError, match="at least one action"):
            compose_actions([])

    @pytest.mark.parametrize(
        ("transitions", "new_ids", "message"),
        [
            ((), None, "action 'a' needs at least one transition"),
            ((_MOVE,), ("n", "m"), "need one new block id per transition"),
        ],
        ids=["no-transitions", "new-id-count"],
    )
    def test_rejects_malformed_steps(self, transitions, new_ids, message):
        with pytest.raises(ValueError, match=message):
            Action(id="a", transitions=transitions, new_ids=new_ids)

    @pytest.mark.parametrize(
        ("new_ids", "matrix", "message"),
        [
            (("x",), [[1.0]], "action 'a': new block id 'x' collides with the layout"),
            (
                ("n",),
                [[1.0, 1.0]],
                "action 'a' transition 1: matrix has 2 columns but inputs ('x',) total dim 1",
            ),
        ],
        ids=["new-id-collision", "matrix-columns"],
    )
    def test_validate_against_rejects(self, new_ids, matrix, message):
        model = LinearGaussianModel(inputs=("x",), output_dim=1, matrix=matrix, noise_cov=[[1.0]])
        action = Action(id="a", transitions=(model,), new_ids=new_ids)
        with pytest.raises(ValueError, match=re.escape(message)):
            action.validate_against(StateLayout.from_dims([("x", 1)]))

    def test_rejects_duplicate_new_ids(self):
        model = LinearGaussianModel(
            inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
        )
        with pytest.raises(ValueError, match="new block ids must be unique"):
            Action(id="a", transitions=(model, model), new_ids=("n", "n"))


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
        # a row drawn with innovations eps has log density -|eps|^2 / 2 - log_norm
        layout, action = self._instance()
        trans = SequentialTransition(layout, action)
        obs = SequentialObservation(layout, action)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 4))
        eps_t, eps_o = rng.standard_normal((40, 2)), rng.standard_normal((40, 2))
        states = trans.sample_with_noise(x, eps_t)
        np.testing.assert_array_equal(states[:, :4], x)
        np.testing.assert_allclose(
            transition_log_density_ref(trans, states),
            -0.5 * (eps_t**2).sum(axis=1) - trans._log_norm,
            atol=1e-10,
        )
        z = obs.sample_with_noise(states, eps_o)
        np.testing.assert_allclose(
            observation_log_density_ref(obs, states, z),
            -0.5 * (eps_o**2).sum(axis=1) - obs._log_norm,
            atol=1e-10,
        )

    def test_logpdf_matches_scalar_op(self):
        layout, action = self._instance()
        trans = SequentialTransition(layout, action)
        obs = SequentialObservation(layout, action)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        states = trans.sample_with_noise(x, rng.standard_normal((5, 2)))
        new = states[:, 4:]
        z = obs.sample_with_noise(states, rng.standard_normal((5, 2)))
        t_model = action.transitions[0]
        o_model = action.observations[0][1]
        for i in range(5):
            expect_t = log_density_ref(t_model, x[i, :2], new[i])
            assert transition_log_density_ref(trans, states[i : i + 1])[0] == pytest.approx(
                expect_t, abs=1e-10
            )
            expect_o = log_density_ref(o_model, np.concatenate([new[i], x[i, 2:]]), z[i])
            got_o = observation_log_density_ref(obs, states[i : i + 1], z[i : i + 1])
            assert got_o[0] == pytest.approx(expect_o, abs=1e-10)

    def test_grid_matches_rowwise(self):
        layout, action = self._instance()
        trans = SequentialTransition(layout, action)
        obs = SequentialObservation(layout, action)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 4))
        states = trans.sample_with_noise(x, rng.standard_normal((30, 2)))
        z = rng.standard_normal((11, 2))
        grid = grid_log_density_ref(obs.grid_evaluator(states, np.ones(30)), z)
        assert grid.shape == (11, 30)
        for m in (0, 5, 10):
            row = observation_log_density_ref(obs, states, np.repeat(z[m : m + 1], 30, axis=0))
            np.testing.assert_allclose(grid[m], row, atol=1e-9)

    def test_mixture_likelihood_paths_agree(self):
        # Gram path vs plain exp of the log grid
        layout, action = self._instance()
        trans = SequentialTransition(layout, action)
        obs = SequentialObservation(layout, action)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((64, 4))
        states = trans.sample_with_noise(x, rng.standard_normal((64, 2)))
        z = rng.standard_normal((17, 2)) * 2.0
        weights = rng.uniform(0.1, 1.0, 64)
        evaluator = obs.grid_evaluator(states, weights)
        fast = np.exp(evaluator.mixture_likelihood(z))
        plain = np.exp(grid_log_density_ref(evaluator, z)) @ weights
        np.testing.assert_allclose(fast, plain, rtol=1e-12)


@st.composite
def whitening_cases(draw, diagonal=False):
    """Observation models of output dims 1 to 6 and noise scales 1e-12 to
    1e6, diagonal or general, and 1 to 400 rows of outputs to whiten."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))

    def noise_cov(k):
        if diagonal:
            return np.diag(10.0 ** rng.uniform(-12.0, 6.0, k))
        return random_spd(rng, k, scale=10.0 ** draw(st.floats(-12.0, 6.0)))

    models = [
        LinearGaussianModel(
            inputs=("x",), output_dim=k, matrix=np.ones((k, 1)), noise_cov=noise_cov(k)
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


def _whitened_parts(case):
    """``(y part, whitened part, noise factor)`` per observation model."""
    action, y = case
    white = SequentialObservation(StateLayout.from_dims([("x", 1)]), action)._whiten(y)
    cursor = 0
    for _step, model in action.observations:
        part = slice(cursor, cursor + model.output_dim)
        yield y[:, part], white[:, part], model.noise_chol
        cursor += model.output_dim


class TestWhiten:
    @settings(max_examples=40, deadline=None)
    @given(whitening_cases(diagonal=True))
    def test_diagonal_factor_whitens_by_exact_reciprocals(self, case):
        # every scenario and workload builds diagonal noise
        for y, white, chol in _whitened_parts(case):
            assert np.array_equal(white, y * (1.0 / np.diag(chol)))

    @settings(max_examples=40, deadline=None)
    @given(whitening_cases())
    def test_matches_solve_triangular_to_rounding(self, case):
        # Both are backward-stable solves, each within about cond(L) eps
        # max|row| of the exact row; the bound leaves a factor 2 over their sum.
        eps = np.finfo(float).eps
        for y, white, chol in _whitened_parts(case):
            reference = scipy.linalg.solve_triangular(chol, y.T, lower=True).T
            error = np.abs(white - reference).max(axis=1)
            bound = 4.0 * np.linalg.cond(chol) * eps * np.abs(reference).max(axis=1)
            assert np.all(error <= bound)

    def test_models_invert_their_noise_factor_once(self):
        _prior, action = make_chain_1d(r=4.0)
        model = action.observations[0][1]
        inverse = model._noise_inverse
        assert inverse is model._noise_inverse and not inverse.flags.writeable
        assert np.array_equal(inverse, np.linalg.inv(model.noise_chol))
        obs = SequentialObservation(StateLayout.from_dims([("x", 1)]), action)
        assert obs._models[0][4].base is inverse

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_values(self, bad):
        layout = StateLayout.from_dims([("x", 1)])
        _prior, action = make_chain_1d()
        obs = SequentialObservation(layout, action)
        with pytest.raises(ValueError, match="non-finite"):
            obs._whiten([[0.0], [bad]])

    def test_grid_rejects_means_that_overflow(self):
        # a finite model on finite states whose whitened means overflow
        layout = StateLayout.from_dims([("x", 1)])
        _prior, chain = make_chain_1d()
        big = LinearGaussianModel(
            inputs=("a:x1",), output_dim=1, matrix=[[1e200]], noise_cov=[[1.0]]
        )
        action = Action(id="a", transitions=chain.transitions, observations=((1, big),))
        obs = SequentialObservation(layout, action)
        states = np.full((3, 2), 1e200)
        with pytest.raises(ValueError, match="non-finite"):
            obs.grid_evaluator(states, np.full(3, 1.0 / 3))


def _dense_log_kernel_sum(queries, centers, weights, log_norm):
    sq = ((queries[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    with np.errstate(divide="ignore"):
        return logsumexp(-0.5 * sq + np.log(weights), axis=1) - log_norm


def _fast_gauss_transform_paths(queries, centers, weights):
    """``_fast_gauss_transform``'s log sums and rejected rows, and the rows
    its translation certified, or None when the translation did not run:
    the translation's rows and then all rows pass through
    ``state._certified``."""
    certified, calls = state._certified, []

    def spy(total, bound):
        calls.append(certified(total, bound))
        return calls[-1]

    with mock.patch.object(state, "_certified", spy):
        sums, rejected = _fast_gauss_transform(queries, centers, weights)
    return sums, rejected, calls[0] if len(calls) == 2 else None


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
    # pinned branches: the Gram sum, and log-sum-exp
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
        # centers span 45 boxes, more than one window reaches; the first query
        # sits among them, the second 10 whitened units past the last one
        rng = np.random.default_rng(6)
        centers = np.sort(rng.uniform(-28.0, 28.0, 500))[:, None]
        weights = np.full(500, 1.0 / 500)
        queries = np.array([[0.3], [centers[-1, 0] + 10.0]])
        _log_sums, rejected = _fast_gauss_transform(queries, centers, weights)
        assert rejected.tolist() == [False, True]
        np.testing.assert_allclose(
            _log_kernel_sum(queries, centers, weights, 0.9),
            _dense_log_kernel_sum(queries, centers, weights, 0.9),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rejected_rows_take_log_sum_exp_once(self, dim):
        # Row 7 sits 10 whitened units past the last center (d = 1), or at
        # (2 |q|)^2 / 2 = 3200, past the Gram guard (d = 2).  The rows the
        # tier rejects, and only those, reach log-sum-exp, in one call, and
        # log_norm is subtracted after it from every row alike.
        rng = np.random.default_rng(13)
        centers = rng.standard_normal((200, dim))
        weights = rng.uniform(0.1, 1.0, 200)
        weights /= weights.sum()
        queries = rng.standard_normal((30, dim))
        queries[7] = centers[:, 0].max() + 10.0 if dim == 1 else [40.0, 0.0]
        tier = _fast_gauss_transform if dim == 1 else state._gram_sum
        sums, rejected = tier(queries, centers, weights)
        assert np.flatnonzero(rejected).tolist() == [7]
        log_sum_exp, calls = state._log_sum_exp_rows, []

        def spy(q, c, w):
            calls.append(q.copy())
            return log_sum_exp(q, c, w)

        with mock.patch.object(state, "_log_sum_exp_rows", spy):
            got = _log_kernel_sum(queries, centers, weights, 0.0)
        assert len(calls) == 1
        assert calls[0].tobytes() == queries[rejected].tobytes()
        assert got[~rejected].tobytes() == sums[~rejected].tobytes()
        np.testing.assert_allclose(
            got, _dense_log_kernel_sum(queries, centers, weights, 0.0), rtol=1e-12
        )
        for log_norm in (0.9, -300.0):
            shifted = _log_kernel_sum(queries, centers, weights, log_norm)
            assert shifted.tobytes() == (got - log_norm).tobytes()

    def test_one_dimension_counts_the_boxes_past_the_cutoff(self):
        # the query's own box (lattice point 0) holds weight 3e-16; the rest
        # sits in box -9, one past the reach of 8 boxes, 10.05 whitened units
        # (7.11 kernel lengths) away, and adds 3.9e-7 of the sum
        queries = np.array([[-0.6]])
        centers = np.array([[-0.6], [-10.65]])
        weights = np.array([3e-16, 1.0])
        _log_sums, rejected = _fast_gauss_transform(queries, centers, weights)
        assert rejected.tolist() == [True]
        np.testing.assert_allclose(
            _log_kernel_sum(queries, centers, weights, 0.9),
            _dense_log_kernel_sum(queries, centers, weights, 0.9),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_one_dimension_certified_rows_match_extended_precision(self, n):
        # Two far outliers stretch the lattice past the translation's density
        # gate, so every row takes the direct sum, over boxes that hold
        # thousands of centers each: moments that add a box's centers one
        # after another put certified rows 5.5e-13 off at n = 10^5.
        rng = np.random.default_rng(11)
        centers = math.sqrt(2.0) * rng.standard_normal((n, 1))
        centers[:2, 0] = [-1e5, 1e5]
        weights = np.full(n, 1.0 / n)
        queries = math.sqrt(3.0) * rng.standard_normal((12, 1))
        reference = log_kernel_sum_ref(queries, centers, weights)
        got = _log_kernel_sum(queries, centers, weights, 0.0)
        assert np.max(np.abs(got - reference)) <= 1e-13
        _sums, rejected, translated = _fast_gauss_transform_paths(queries, centers, weights)
        assert translated is None and not rejected.any()

    def test_one_dimension_lattice_past_two_to_the_fifty(self):
        # Centers near 2e15 sit in lattice boxes past 2^50, whose points and
        # differences are no longer exact: the transform certifies no row,
        # and every row takes log-sum-exp.
        rng = np.random.default_rng(14)
        centers = 2e15 + 4.0 * rng.standard_normal((300, 1))
        weights = rng.uniform(0.1, 1.0, 300)
        queries = 2e15 + 5.0 * rng.standard_normal((20, 1))
        _sums, rejected = _fast_gauss_transform(queries, centers, weights)
        assert rejected.all()
        reference = log_kernel_sum_ref(queries, centers, weights)
        got = _log_kernel_sum(queries, centers, weights, 0.0)
        assert np.all(np.abs(got - reference) <= 1e-13 * np.maximum(1.0, np.abs(reference)))

    def test_series_tail_bounds_the_series_and_is_inf_from_one(self):
        for rho, order in ((0.3, 5), (0.9, 24), (0.99, 32)):
            series = sum(rho**n / math.sqrt(math.factorial(n)) for n in range(order, 150))
            assert series <= state._series_tail(rho, order)
        for rho in (1.0, 2.5, math.inf):
            assert state._series_tail(rho, 24) == math.inf

    def test_one_dimension_crowded_box_matches_extended_precision(self):
        # Half the centers share the query's box and the rest are spread one
        # to a box over +-1e6: moments summed in a fixed number of bins per
        # box put certified rows 7.3e-13 off.
        rng = np.random.default_rng(3)
        centers = np.concatenate(
            [0.2 * rng.standard_normal(100_000), rng.uniform(-1e6, 1e6, 100_000)]
        )[:, None]
        weights = np.full(200_000, 1.0 / 200_000)
        queries = 0.5 * rng.standard_normal((12, 1))
        reference = log_kernel_sum_ref(queries, centers, weights)
        sums, rejected = _fast_gauss_transform(queries, centers, weights)
        assert not rejected.any()
        assert np.max(np.abs(sums - reference)) <= 1e-13

    def test_one_dimension_rows_are_batch_independent(self):
        rng = np.random.default_rng(7)
        centers = 4.0 * rng.standard_normal((3000, 1))
        weights = rng.uniform(0.1, 1.0, 3000)
        # more rows than one chunk of the direct sum holds; two rows just past
        # the last center that the translation leaves to the direct sum, and
        # three tail rows that fall back to log-sum-exp
        chunk = _FGT_PAIRS // (2 * _FGT_REACH + 1)
        queries = 3.0 * rng.standard_normal((chunk + 40, 1))
        queries[-5:] = [[15.0], [15.5], [40.0], [-45.0], [60.0]]
        tail = list(range(chunk + 35, chunk + 40))
        # 3000 centers take the translation; 500 take the direct sum for
        # every row, across its chunk boundary, and reach 10.1, so 15.5 too
        # falls back
        for n, direct in ((3000, 2), (500, 1)):
            w = weights[:n] / weights[:n].sum()
            _sums, rejected, translated = _fast_gauss_transform_paths(queries, centers[:n], w)
            if n == 3000:
                assert np.flatnonzero(~translated).tolist() == tail
            else:
                assert translated is None
            assert np.flatnonzero(rejected).tolist() == tail[direct:]
            batch = _log_kernel_sum(queries, centers[:n], w, 0.9)
            # about one row in eight would differ if the direct sum's slots were
            # summed in an order that depends on the chunk's row count
            for row in [*range(0, chunk + 40, 5), chunk - 1, chunk, chunk + 1, *tail]:
                alone = _log_kernel_sum(queries[row : row + 1], centers[:n], w, 0.9)
                assert alone.tobytes() == batch[row : row + 1].tobytes()
            straddle = _log_kernel_sum(queries[chunk - 5 : chunk + 5], centers[:n], w, 0.9)
            assert straddle.tobytes() == batch[chunk - 5 : chunk + 5].tobytes()

    def test_two_dimension_rows_are_batch_independent(self):
        # Weighted centers about (-15, 0) and zero-weight ones about (15, 0).
        # Among the queries near them, row 10 reaches below -690, so its
        # block clamps in the batch, while its neighbours alone do not;
        # rows 10 and 63 underflow or fail the precision bound and row 150
        # is past the precision guard, and all three take log-sum-exp.  A
        # row sits at position 0 of a block alone and elsewhere in a batch.
        rng = np.random.default_rng(12)
        centers = rng.standard_normal((300, 2))
        centers[:150, 0] -= 15.0
        centers[150:, 0] += 15.0
        weights = np.concatenate([rng.uniform(0.1, 1.0, 150), np.zeros(150)])
        weights /= weights.sum()
        queries = rng.standard_normal((200, 2))
        queries[:, 0] += np.where(rng.uniform(size=200) < 0.5, -15.0, 15.0)
        queries[[10, 63, 150]] = [[0.0, 25.0], [30.0, 0.0], [0.0, 40.0]]
        batch = _log_kernel_sum(queries, centers, weights, 0.9)
        np.testing.assert_allclose(
            batch, _dense_log_kernel_sum(queries, centers, weights, 0.9), rtol=1e-12
        )
        edge = _GRAM_ROWS
        for row in [*range(0, 200, 7), 10, 63, edge - 1, edge, 150, 199]:
            alone = _log_kernel_sum(queries[row : row + 1], centers, weights, 0.9)
            assert alone.tobytes() == batch[row : row + 1].tobytes()
        straddle = _log_kernel_sum(queries[edge - 5 : edge + 5], centers, weights, 0.9)
        assert straddle.tobytes() == batch[edge - 5 : edge + 5].tobytes()
        later = _log_kernel_sum(queries[37:], centers, weights, 0.9)
        assert later.tobytes() == batch[37:].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        n_centers=st.integers(1000, 3000),
        log_spread=st.floats(-6.0, 1.0),
        log_shift=st.floats(-6.0, 6.0),
        negative=st.booleans(),
        log_norm=st.floats(-300.0, 300.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # pinned: dense centers at whitened scale 1e6, where a lattice whose
    # points binary cannot represent exactly puts the expansion off the sum
    @example(
        n_centers=3000, log_spread=0.0, log_shift=6.0, negative=False, log_norm=0.9, seed=8
    )
    def test_one_dimension_translation_matches_dense_reference(
        self, n_centers, log_spread, log_shift, negative, log_norm, seed
    ):
        rng = np.random.default_rng(seed)
        shift = (-1.0 if negative else 1.0) * 10.0**log_shift
        spread = 10.0**log_spread
        centers = shift + spread * rng.standard_normal((n_centers, 1))
        queries = shift + 1.5 * spread * rng.standard_normal((40, 1))
        weights = rng.uniform(0.1, 1.0, n_centers)
        weights /= weights.sum()
        reference = _dense_log_kernel_sum(queries, centers, weights, 0.0)
        sums, rejected, translated = _fast_gauss_transform_paths(queries, centers, weights)
        assert np.count_nonzero(~translated) <= 10
        # every certified row is within 1e-13 of its sum
        assert np.all(np.abs(sums - reference)[~rejected] <= 1e-13)
        np.testing.assert_allclose(
            _log_kernel_sum(queries, centers, weights, log_norm),
            reference - log_norm,
            rtol=1e-12,
            atol=1e-12 * max(1.0, abs(log_norm)),
        )

    @pytest.mark.parametrize(
        "case, hermite_share",
        [("sparse", 1.0), ("few", 1.0), ("dense", 0.01)],
    )
    def test_one_dimension_tier_follows_the_centers(self, case, hermite_share):
        # the translation pays only for many centers packed on the lattice:
        # 2000 centers over 3200 boxes, or 300 centers, take the direct
        # Hermite sum for every row; 2000 chain-like centers are translated
        # for nearly all rows
        rng = np.random.default_rng(9)
        n = 300 if case == "few" else 2000
        if case == "sparse":
            centers = rng.uniform(-2000.0, 2000.0, (n, 1))
            queries = rng.uniform(-2000.0, 2000.0, (n, 1))
        else:
            centers = math.sqrt(2.0) * rng.standard_normal((n, 1))
            queries = math.sqrt(3.0) * rng.standard_normal((n, 1))
        weights = np.full(n, 1.0 / n)
        sums, rejected, translated = _fast_gauss_transform_paths(queries, centers, weights)
        if hermite_share == 1.0:
            assert translated is None
        else:
            assert np.count_nonzero(~translated) <= hermite_share * n
        got = _log_kernel_sum(queries, centers, weights, 0.9)
        assert got[~rejected].tobytes() == (sums - 0.9)[~rejected].tobytes()

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

    @pytest.mark.parametrize("dim", [2, 6])
    def test_rows_between_far_modes_match_extended_precision(self, dim):
        # Two modes 60 units either side of the centers' mean, and queries
        # 24 to 34.5 units out towards each: every row's sum comes from
        # centers about 60 units out, whose Gram cells sum terms near 2000
        # however close the query is to the mean.  Bounding a row by its
        # query alone put these rows 2.9 (d = 2) and 4.9 (d = 6) roundings
        # of their value off.
        rng = np.random.default_rng(8)
        centers = rng.standard_normal((200, dim))
        centers[:100, 0] -= 60.0
        centers[100:, 0] += 60.0
        weights = rng.uniform(0.5, 1.0, 200)
        queries = 0.3 * rng.standard_normal((40, dim))
        queries[:, 0] = np.concatenate([np.linspace(24.0, 34.5, 20), np.linspace(-34.5, -24.0, 20)])
        reference = log_kernel_sum_ref(queries, centers, weights)
        got = _log_kernel_sum(queries, centers, weights, 0.0)
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - reference) <= 2.5 * eps * np.abs(reference))

    def test_two_dimension_underflowing_row_leaves_the_gram_path(self):
        # The only weighted center is 40 units from the first query:
        # exp(-800) underflows to 0.0, and the row's cells are clamped at
        # -700 besides.
        centers = np.array([[-12.0, -16.0], [12.0, 16.0]])
        queries = np.array([[-12.0, -16.0], [12.0, 16.0]])
        weights = np.array([0.0, 1.0])
        log_norm = LOG_TWO_PI
        got = _log_kernel_sum(queries, centers, weights, log_norm)
        np.testing.assert_allclose(got, [-800.0 - log_norm, -log_norm], rtol=1e-12)
        np.testing.assert_allclose(
            got, _dense_log_kernel_sum(queries, centers, weights, log_norm), rtol=1e-12
        )

    @pytest.mark.parametrize(
        "center, query, weights, log_norm",
        [
            # |q . c| = 728: exp(q . c) would overflow, and the far center's
            # cell, -1458, is clamped
            (26.0, 28.0, [0.5, 0.5], -300.0),
            # the same, with the near center's weight zero
            (26.0, 28.0, [1.0, 0.0], -300.0),
            # the sum exp(-931) underflows; exp(300) must not lift it
            (23.15, 20.0, [1.0, 0.0], -500.0),
        ],
    )
    def test_two_dimension_negative_log_norm_stays_exact(self, center, query, weights, log_norm):
        # the 1-D cases along the direction (0.6, 0.8)
        direction = np.array([0.6, 0.8])
        centers = np.array([-center * direction, center * direction])
        queries = np.array([query * direction])
        weights = np.array(weights)
        got = _log_kernel_sum(queries, centers, weights, log_norm)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(
            got, _dense_log_kernel_sum(queries, centers, weights, log_norm), rtol=1e-12
        )
