import dataclasses
import json
import math
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import kstest

from augmi import (
    Action,
    LinearGaussianModel,
    MismcContext,
    SampleBudget,
    SmcMiBackend,
    WeightedParticleSet,
    compose_actions,
    determine_involved,
    generate_scenario,
    joint_state_observation,
    marginalize_gaussian,
    marginalize_particles,
    mismc_context,
    mismc_estimate,
    mismc_update,
    sample_particles,
)
from augmi.smc import BudgetError, ContextMismatchError
from augmi.state import SequentialObservation, SequentialTransition
from conftest import (
    CHAIN_MI,
    gaussian_entropy_ref,
    grid_log_density_ref,
    log_density_ref,
    make_chain_1d,
    random_instance,
    scenario_plan_steps,
    smc_estimate_ref,
)


def normalizer_eta(pset, action, z, rng):
    """eta(z) from the normalizer pass an estimator context builds."""
    ctx = mismc_context(pset, action, SampleBudget(n1=pset.n), rng)
    return math.exp(ctx.normalizer.mixture_likelihood(z[None, :])[0])


class TestSampleBudget:
    def test_defaults_and_derived(self):
        budget = SampleBudget(n1=300)
        assert (budget.n1, budget.n4) == (300, 300)

    def test_rejects_nonpositive(self):
        with pytest.raises(BudgetError):
            SampleBudget(n1=0)
        with pytest.raises(BudgetError):
            SampleBudget(n1=2, n4=-1)

    @pytest.mark.parametrize(
        ("counts", "field"),
        [
            ({"n1": 100, "n4": 1.5}, "n4"),
            ({"n1": 100.0}, "n1"),
            ({"n1": True}, "n1"),
            ({"n1": 10, "n4": np.float64(20)}, "n4"),
            ({"n1": 10, "n4": "2"}, "n4"),
        ],
    )
    def test_rejects_non_integer_counts(self, counts, field):
        with pytest.raises(BudgetError, match=f"{field} must be an integer"):
            SampleBudget(**counts)

    def test_accepts_numpy_integers(self):
        budget = SampleBudget(n1=np.int64(4), n4=np.int32(2))
        assert (budget.n1, budget.n4) == (4, 2)


class TestEstimateNormalizer:
    def test_single_particle_exact(self, chain):
        prior, action = chain
        # nearly deterministic transition pins the propagated sample at x
        tight = Action(
            id="a",
            transitions=(
                LinearGaussianModel(
                    inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1e-20]]
                ),
            ),
            observations=action.observations,
        )
        layout = prior.layout
        pset = WeightedParticleSet(layout=layout, particles=[[0.4]], weights=[1.0])
        z = np.array([1.1])
        eta = normalizer_eta(pset, tight, z, np.random.default_rng(0))
        obs_model = tight.observations[0][1]
        expected = math.exp(log_density_ref(obs_model, [0.4], z))
        assert eta == pytest.approx(expected, rel=1e-8)

    def test_uniform_weights_mean_likelihood(self, chain):
        prior, action = chain
        tight = Action(
            id="a",
            transitions=(
                LinearGaussianModel(
                    inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1e-20]]
                ),
            ),
            observations=action.observations,
        )
        particles = np.array([[-1.0], [0.0], [2.0]])
        pset = WeightedParticleSet(
            layout=prior.layout, particles=particles, weights=np.full(3, 1 / 3)
        )
        z = np.array([0.3])
        eta = normalizer_eta(pset, tight, z, np.random.default_rng(1))
        obs_model = tight.observations[0][1]
        expected = np.mean(
            [math.exp(log_density_ref(obs_model, p, z)) for p in particles]
        )
        assert eta == pytest.approx(expected, rel=1e-8)

    def test_mixture_holds_the_set_weights(self, chain):
        # eta is the weighted mixture over the normalizer set: the prior's
        # own weights when n4 = n1, uniform weights over a resampled set
        prior, action = chain
        tight = Action(
            id="a",
            transitions=(
                LinearGaussianModel(
                    inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1e-20]]
                ),
            ),
            observations=action.observations,
        )
        particles = np.array([[-1.0], [2.0]])
        weights = np.array([0.9, 0.1])
        pset = WeightedParticleSet(layout=prior.layout, particles=particles, weights=weights)
        z = np.array([0.3])
        obs_model = tight.observations[0][1]
        expected = sum(
            w * math.exp(log_density_ref(obs_model, p, z)) for w, p in zip(weights, particles)
        )
        assert normalizer_eta(pset, tight, z, 2) == pytest.approx(expected, rel=1e-8)
        ctx = mismc_context(pset, tight, SampleBudget(n1=2), 2)
        assert not hasattr(ctx, "normalizer_weights")
        assert np.array_equal(ctx.normalizer._weights, weights)
        resampled = mismc_context(pset, tight, SampleBudget(n1=2, n4=5), 2)
        assert resampled.normalizer.count == 5
        assert np.array_equal(resampled.normalizer._weights, np.full(5, 0.2))

    def test_chain_matches_marginal_likelihood(self, chain):
        # Gaussian marginal-likelihood oracle: z ~ N(0, 3) under the chain
        prior, action = chain
        z = np.array([0.7])
        expected = math.exp(-0.5 * z[0] ** 2 / 3.0) / math.sqrt(2 * math.pi * 3.0)
        values = []
        for i in range(15):
            rng = np.random.default_rng(200 + i)
            pset = sample_particles(prior, 10_000, rng)
            values.append(normalizer_eta(pset, action, z, rng))
        values = np.array(values)
        assert abs(values.mean() - expected) < 3.0 * values.std(ddof=1)

    def test_log_value_exact_far_in_the_tail(self, chain):
        # At z = 1e6, eta underflows any float (log eta is about -5e11); the
        # log-space sum must still agree with a dense log-sum-exp.
        prior, action = chain
        rng = np.random.default_rng(0)
        pset = sample_particles(prior, 50, rng)
        ctx = mismc_context(pset, action, SampleBudget(n1=50), rng)
        z = np.array([[1e6]])
        log_eta = ctx.normalizer.mixture_likelihood(z)
        dense = logsumexp(
            grid_log_density_ref(ctx.normalizer, z) + np.log(ctx.normalizer._weights), axis=1
        )
        assert log_eta[0] < -4e11
        np.testing.assert_allclose(log_eta, dense, rtol=1e-12)


class TestMismcEstimate:
    def test_uninformative_observation_collapse(self, chain):
        prior, action = chain
        free_obs = LinearGaussianModel(
            inputs=(), output_dim=1, matrix=np.zeros((1, 0)), noise_cov=[[0.5]]
        )
        blind = Action(id="b", transitions=action.transitions, observations=((1, free_obs),))
        # the estimate reduces to -H[new | x]
        joint = joint_state_observation(prior, Action(id="t", transitions=action.transitions))
        h_new_given_x = gaussian_entropy_ref(joint) - gaussian_entropy_ref(prior)
        trials = np.array(
            [
                mismc_estimate(
                    sample_particles(prior, 500, np.random.default_rng(50 + i)),
                    blind,
                    SampleBudget(n1=500),
                    np.random.default_rng(950 + i),
                ).value
                for i in range(20)
            ]
        )
        assert abs(trials.mean() - (-h_new_given_x)) < 3.0 * trials.std(ddof=1)

    def test_chain_consistency(self, chain):
        prior, action = chain
        trials = np.array(
            [
                mismc_estimate(
                    sample_particles(prior, 2000, np.random.default_rng(1000 + i)),
                    action,
                    SampleBudget(n1=2000),
                    np.random.default_rng(2000 + i),
                ).value
                for i in range(20)
            ]
        )
        assert abs(trials.mean() - CHAIN_MI) < 3.0 * trials.std(ddof=1)

    def test_constant_is_the_noise_entropy(self):
        # the estimate is -H[new | x] - H[z | x, new], taken in closed form,
        # minus the weighted mean log eta, bit for bit
        rng = np.random.default_rng(2209)
        for _ in range(10):
            prior, action, _involved = random_instance(rng, total_dim=12)
            joint = joint_state_observation(prior, action)
            h = lambda ids: gaussian_entropy_ref(marginalize_gaussian(joint, ids))
            prior_ids, new_ids = set(prior.layout.ids), set(action.new_ids)
            state_ids = prior_ids | new_ids
            h_new = h(state_ids) - h(prior_ids)
            h_obs = h(set(joint.layout.ids)) - h(state_ids)
            pset = sample_particles(prior, 50, rng)
            ctx = mismc_context(pset, action, SampleBudget(n1=50), rng)
            acc = mismc_update(ctx.empty_accumulator(), 50, ctx)
            constant = acc.estimate + float(pset.weights @ acc.terms)
            assert constant == pytest.approx(-h_new - h_obs, abs=1e-12)
            assert acc.estimate == -action._noise_entropy - float(pset.weights @ acc.terms)

    def test_log_eta_mean_matches_observation_entropy(self, chain):
        # the weighted mean log eta estimates -H[z] (Gaussian oracle)
        prior, action = chain
        joint = joint_state_observation(prior, action)
        neg_h_obs = -gaussian_entropy_ref(marginalize_gaussian(joint, {"a:z1"}))
        means = []
        for i in range(25):
            rng = np.random.default_rng(3000 + i)
            pset = sample_particles(prior, 800, rng)
            ctx = mismc_context(pset, action, SampleBudget(n1=800), rng)
            acc = mismc_update(ctx.empty_accumulator(), 800, ctx)
            means.append(float(pset.weights @ acc.terms))
        means = np.array(means)
        assert abs(means.mean() - neg_h_obs) < 3.0 * means.std(ddof=1)

    def test_action_without_observations_rejected(self, chain):
        prior, action = chain
        blind = Action(id="t", transitions=action.transitions)
        pset = sample_particles(prior, 20, np.random.default_rng(0))
        with pytest.raises(ValueError, match="'t' has no observations"):
            MismcContext(pset, blind, SampleBudget(n1=20), np.random.default_rng(1))

    def test_budget_must_match_particle_count(self, chain):
        prior, action = chain
        pset = sample_particles(prior, 100, np.random.default_rng(0))
        with pytest.raises(BudgetError, match="n1"):
            mismc_estimate(pset, action, SampleBudget(n1=50), np.random.default_rng(1))

    def test_estimate_is_finite_and_tagged(self, chain):
        prior, action = chain
        pset = sample_particles(prior, 300, np.random.default_rng(0))
        est = mismc_estimate(pset, action, SampleBudget(n1=300), np.random.default_rng(1))
        assert est.method == "mismc"
        assert est.sample_counts["n1"] == 300
        assert est.sample_counts["n4"] == 300
        assert est.elapsed >= 0.0

    def test_n4_resampled_when_not_matching(self, chain):
        # n4 != N goes through the weight-proportional resampling path
        prior, action = chain
        pset = sample_particles(prior, 400, np.random.default_rng(0))
        est = mismc_estimate(
            pset, action, SampleBudget(n1=400, n4=800), np.random.default_rng(1)
        )
        assert np.isfinite(est.value)
        est_small = mismc_estimate(
            pset, action, SampleBudget(n1=400, n4=100), np.random.default_rng(2)
        )
        assert np.isfinite(est_small.value)

    def test_footprint_marginal_is_exact_for_particles(self):
        # The exactness identity for non-Gaussian beliefs: the models read
        # only the action's footprint, so dropping every other block leaves
        # the estimate bit for bit the same.
        rng = np.random.default_rng(2209)
        for case in range(24):
            prior, action, _involved = random_instance(rng, total_dim=int(rng.integers(15, 40)))
            n1 = int(rng.integers(20, 60))
            budget = SampleBudget(n1=n1, n4=n1 if case % 3 == 0 else int(rng.integers(10, 80)))
            full = WeightedParticleSet(
                layout=prior.layout,
                particles=sample_particles(prior, n1, rng).particles,
                weights=rng.uniform(0.1, 1.0, n1),
            )
            reduced = marginalize_particles(
                full, determine_involved(prior.layout, action).blocks
            )
            assert reduced.particles.shape[1] < full.particles.shape[1]
            a = mismc_estimate(full, action, budget, case)
            b = mismc_estimate(reduced, action, budget, case)
            assert a.value == b.value, (case, budget)
            assert a.sample_counts == b.sample_counts


@cache
def _installment_problems():
    """(prior, action) by observation width: the 1-D chain; a replica action
    on its involved marginal, which observes 2 coordinates; and a composed
    3-step plan-h3 action on its involved marginal, which observes 6."""
    slam = generate_scenario(150, 4, correlation_strength=0.3, seed=42)
    steps = scenario_plan_steps(slam, 3)
    problems = {"chain": make_chain_1d()}
    for name, action in (
        ("replica", slam.actions[0]),
        ("plan", compose_actions([steps[0][0], steps[1][1], steps[2][2]])),
    ):
        blocks = determine_involved(slam.prior.layout, action).blocks
        problems[name] = (marginalize_gaussian(slam.prior, blocks), action)
    return problems


class TestAnytime:
    def test_zero_update_is_identity(self, chain):
        prior, action = chain
        rng = np.random.default_rng(6)
        pset = sample_particles(prior, 100, rng)
        ctx = mismc_context(pset, action, SampleBudget(n1=100), rng)
        acc = mismc_update(ctx.empty_accumulator(), 40, ctx)
        again = mismc_update(acc, 0, ctx)
        assert again == acc

    def test_incremental_equals_batch(self, chain):
        prior, action = chain
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        batch = mismc_estimate(
            sample_particles(prior, 300, rng_a), action, SampleBudget(n1=300), rng_a
        )
        pset = sample_particles(prior, 300, rng_b)
        ctx = mismc_context(pset, action, SampleBudget(n1=300), rng_b)
        acc = ctx.empty_accumulator()
        acc = mismc_update(acc, 100, ctx)
        acc = mismc_update(acc, 200, ctx)
        assert abs(acc.estimate - batch.value) < 1e-12
        assert ctx.result(acc).value == acc.estimate

    @settings(max_examples=40, deadline=None)
    @given(
        problem=st.sampled_from(["chain", "replica", "plan"]),
        n1=st.integers(1, 200),
        n4=st.integers(1, 200),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(problem="chain", n1=30, n4=17, cuts=[0.1, 0.5, 0.5, 0.9], seed=1)
    # installments that start inside a block of kernel-sum rows and straddle its edge
    @example(problem="replica", n1=200, n4=150, cuts=[0.15, 0.3, 0.7], seed=2)
    @example(problem="plan", n1=200, n4=150, cuts=[0.15, 0.3, 0.7], seed=3)
    def test_incremental_is_batch_bit_for_bit(self, problem, n1, n4, cuts, seed):
        # installments at arbitrary split points, empty ones included
        prior, action = _installment_problems()[problem]
        rng = np.random.default_rng(seed)
        pset = WeightedParticleSet(
            layout=prior.layout,
            particles=sample_particles(prior, n1, rng).particles,
            weights=rng.uniform(0.1, 1.0, n1),
        )
        budget = SampleBudget(n1=n1, n4=n4)
        batch = mismc_estimate(pset, action, budget, seed)
        ctx = mismc_context(pset, action, budget, seed)
        acc = ctx.empty_accumulator()
        bounds = sorted(round(c * n1) for c in cuts) + [n1]
        for lo, hi in zip([0] + bounds[:-1], bounds):
            acc = mismc_update(acc, hi - lo, ctx)
        got = ctx.result(acc)
        assert got.value == batch.value
        assert got.sample_counts == batch.sample_counts
        whole = mismc_update(ctx.empty_accumulator(), n1, ctx)
        assert acc.estimate == whole.estimate
        assert np.array_equal(acc.terms, whole.terms)

    def test_incremental_is_batch_bit_for_bit_at_ten_thousand(self, chain):
        # n4 = 10^4 normalizer centers take the Taylor tier of the kernel sum
        prior, action = chain
        pset = sample_particles(prior, 10_000, 11)
        budget = SampleBudget(n1=10_000)
        ctx = mismc_context(pset, action, budget, 12)
        acc = ctx.empty_accumulator()
        for step in (3_333, 3_333, 3_334):
            acc = mismc_update(acc, step, ctx)
        assert acc.estimate == mismc_estimate(pset, action, budget, 12).value

    def test_numpy_integer_installments(self, chain):
        # a numpy count makes ``consumed`` a numpy integer, which the next
        # installment's stream offset must accept
        prior, action = chain
        pset = sample_particles(prior, 60, 3)
        ctx = mismc_context(pset, action, SampleBudget(n1=60), 4)
        acc = ctx.empty_accumulator()
        for _ in range(3):
            acc = mismc_update(acc, np.int64(20), ctx)
        assert acc.estimate == mismc_estimate(pset, action, SampleBudget(n1=60), 4).value

    def test_estimate_identity_at_every_checkpoint(self, chain):
        prior, action = chain
        rng = np.random.default_rng(8)
        pset = sample_particles(prior, 200, rng)
        ctx = mismc_context(pset, action, SampleBudget(n1=200), rng)
        acc = ctx.empty_accumulator()
        for _ in range(10):
            acc = mismc_update(acc, 20, ctx)
            weights = pset.weights[: acc.consumed]
            assert acc.estimate == -action._noise_entropy - float(weights @ acc.terms)
        assert acc.consumed == 200

    def test_counts_are_read_from_the_log_eta_row(self):
        # a narrow observation kernel sends the sampled z far below 1e-300
        prior, action = make_chain_1d(r=1e-8)
        pset = sample_particles(prior, 40, 5)
        budget = SampleBudget(n1=40)
        ctx = mismc_context(pset, action, budget, 6)
        acc = ctx.empty_accumulator()
        for step in (15, 0, 25):
            acc = mismc_update(acc, step, ctx)
            assert acc.consumed == acc.terms.size
            assert acc.eta_floor_events == np.count_nonzero(acc.terms < math.log(1e-300))
        assert acc.eta_floor_events > 0
        assert ctx.result(acc).sample_counts == mismc_estimate(pset, action, budget, 6).sample_counts
        stored = {f.name for f in dataclasses.fields(acc)}
        assert stored == {"estimate", "rng_state", "elapsed_ns", "terms", "position"}

    def test_cannot_overrun_particles(self, chain):
        prior, action = chain
        rng = np.random.default_rng(9)
        pset = sample_particles(prior, 50, rng)
        ctx = mismc_context(pset, action, SampleBudget(n1=50), rng)
        acc = mismc_update(ctx.empty_accumulator(), 50, ctx)
        with pytest.raises(BudgetError, match="cannot consume"):
            mismc_update(acc, 1, ctx)

    @pytest.mark.parametrize("count", [1.5, np.float64(2.0), True, "2"])
    def test_rejects_non_integer_count(self, chain, count):
        prior, action = chain
        rng = np.random.default_rng(11)
        pset = sample_particles(prior, 20, rng)
        ctx = mismc_context(pset, action, SampleBudget(n1=20), rng)
        with pytest.raises(BudgetError, match="additional_n1 must be an integer"):
            mismc_update(ctx.empty_accumulator(), count, ctx)

    def test_rejects_negative_count(self, chain):
        prior, action = chain
        rng = np.random.default_rng(12)
        pset = sample_particles(prior, 20, rng)
        ctx = mismc_context(pset, action, SampleBudget(n1=20), rng)
        with pytest.raises(ValueError, match="additional_n1 must be >= 0, got -1"):
            mismc_update(ctx.empty_accumulator(), -1, ctx)

    def test_context_mismatch_detected(self, chain):
        prior, action = chain
        rng = np.random.default_rng(10)
        pset = sample_particles(prior, 60, rng)
        ctx_a = mismc_context(pset, action, SampleBudget(n1=60), np.random.default_rng(1))
        ctx_b = mismc_context(pset, action, SampleBudget(n1=60), np.random.default_rng(2))
        acc = mismc_update(ctx_a.empty_accumulator(), 30, ctx_a)
        with pytest.raises(ContextMismatchError):
            mismc_update(acc, 30, ctx_b)


def _philox_rows(key, rows: int, width: int) -> np.ndarray:
    """One batch draw of ``rows`` rows from the Philox stream keyed by ``key``."""
    stream = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    return stream.standard_normal((rows, width))


def _state_words(state: dict) -> str:
    """A bit generator's state, arrays as lists, for comparison with ``==``."""
    return json.dumps(state, default=np.ndarray.tolist, sort_keys=True)


class TestParticleNoise:
    """Particle ``i``'s noise is row ``i`` of its pass's keyed Philox stream:
    ``root[:2]`` for the outer particles, ``root[2:]`` for the normalizer."""

    @staticmethod
    def recorded_noise(monkeypatch) -> list[np.ndarray]:
        """The innovations every transition and observation sample receives
        from here on, in call order; a list the caller reads afterwards."""
        drawn = []
        for cls in (SequentialTransition, SequentialObservation):
            def record(self, rows, noise, _sample=cls.sample_with_noise):
                drawn.append(noise.copy())
                return _sample(self, rows, noise)

            monkeypatch.setattr(cls, "sample_with_noise", record)
        return drawn

    @pytest.mark.parametrize("problem", ["chain", "replica", "plan"])
    @pytest.mark.parametrize("n4", [24, 17, 40])
    @pytest.mark.parametrize(
        "schedule", [(24,), (0, 24), (5, 0, 19), (1,) * 24, (23, 1, 0), (0, 0, 12, 12)]
    )
    def test_installment_rows_equal_one_batch_draw(self, monkeypatch, problem, n4, schedule):
        prior, action = _installment_problems()[problem]
        drawn = self.recorded_noise(monkeypatch)
        pset = sample_particles(prior, 24, 0)
        ctx = mismc_context(pset, action, SampleBudget(n1=24, n4=n4), 1)
        acc = ctx.empty_accumulator()
        for count in schedule:
            acc = mismc_update(acc, count, ctx)
        normalizer, *installments = drawn
        new_dim = ctx.transition.new_dim
        assert (normalizer == _philox_rows(ctx.root[2:], n4, new_dim)).all()
        outer = np.hstack(
            [np.concatenate(installments[0::2]), np.concatenate(installments[1::2])]
        )
        assert outer.shape == (24, new_dim + ctx.observation.obs_dim)
        assert (outer == _philox_rows(ctx.root[:2], *outer.shape)).all()

    @pytest.mark.parametrize("schedule", [(1,), (0, 7), (3, 4), (10, 0, 14)])
    def test_position_is_a_fresh_stream_after_the_consumed_rows(self, chain, schedule):
        # the chain's rows are 2 wide: one transition, one observation
        prior, action = chain
        pset = sample_particles(prior, 24, 0)
        ctx = mismc_context(pset, action, SampleBudget(n1=24), 1)
        acc = ctx.empty_accumulator()
        for count in schedule:
            acc = mismc_update(acc, count, ctx)
        fresh = np.random.Philox(key=np.array(ctx.root[:2], dtype=np.uint64))
        np.random.Generator(fresh).standard_normal((acc.consumed, 2))
        assert _state_words(acc.position) == _state_words(fresh.state)

    def test_rows_are_standard_normal(self, monkeypatch):
        # every column of both streams, 4000 rows each, against N(0, 1)
        prior, action = _installment_problems()["replica"]
        drawn = self.recorded_noise(monkeypatch)
        pset = sample_particles(prior, 4000, 5)
        ctx = mismc_context(pset, action, SampleBudget(n1=4000), 6)
        mismc_update(ctx.empty_accumulator(), 4000, ctx)
        columns = np.hstack(drawn).T
        assert columns.shape == (6, 4000)
        for column in columns:
            assert abs(column.mean()) < 4.0 / math.sqrt(4000)
            assert abs(column.var() - 1.0) < 4.0 * math.sqrt(2.0 / 4000)
            assert kstest(column, "norm").pvalue > 1e-3

    def test_run_root_is_four_integers_below_two_to_the_63(self, chain):
        # read as raw words shifted right one bit, which is what Lemire's
        # method makes of integers(0, 2**63) for any 64-bit bit generator
        prior, action = chain
        pset = sample_particles(prior, 4, 0)
        budget = SampleBudget(n1=4)
        for bit_generator in (np.random.PCG64, np.random.Philox, np.random.SFC64):
            for seed in range(100):
                expected = np.random.Generator(bit_generator(seed)).integers(0, 2**63, size=4)
                rng = np.random.Generator(bit_generator(seed))
                assert mismc_context(pset, action, budget, rng).root == tuple(expected.tolist())
        for seed in range(2000):
            expected = np.random.default_rng(seed).integers(0, 2**63, size=4)
            assert mismc_context(pset, action, budget, seed).root == tuple(expected.tolist())


class TestPlainReference:
    """Every seeded SMC estimate equals, bit for bit, the estimator written
    out plainly (``conftest.smc_estimate_ref``): trimming the estimator's
    per-call set-up must not move a single bit."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_composed_plan_steps(self, depth):
        replica = generate_scenario(150, 4, correlation_strength=0.3, seed=42)
        steps = scenario_plan_steps(replica, 3)
        for seed, path in enumerate([(0, 0, 0), (2, 3, 1), (3, 1, 2)]):
            action = compose_actions([steps[t][path[t]] for t in range(depth)])
            blocks = determine_involved(replica.prior.layout, action).blocks
            prior = marginalize_gaussian(replica.prior, blocks)
            for n1 in (16, 300):
                got = SmcMiBackend(SampleBudget(n1=n1))(prior, action, seed).value
                assert got == smc_estimate_ref(prior, action, n1, seed)

    @pytest.mark.parametrize("n1", [16, 300, 2000])
    def test_chain(self, n1):
        prior, action = make_chain_1d()
        for seed in range(3):
            got = SmcMiBackend(SampleBudget(n1=n1))(prior, action, seed).value
            assert got == smc_estimate_ref(prior, action, n1, seed)
