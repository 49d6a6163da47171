import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from augmi import (
    Action,
    LinearGaussianModel,
    SampleBudget,
    WeightedParticleSet,
    determine_involved,
    joint_state_observation,
    marginalize_gaussian,
    marginalize_particles,
    mismc_context,
    mismc_estimate,
    mismc_update,
    sample_particles,
)
from augmi.smc import (
    _PHILOX_BLOCK,
    BudgetError,
    ContextMismatchError,
    _box_muller,
    _particle_noise,
    _uniform_stride,
)
from conftest import (
    CHAIN_MI,
    gaussian_entropy_ref,
    log_density_ref,
    make_chain_1d,
    random_instance,
)


def normalizer_eta(pset, action, z, rng):
    """eta(z) from the normalizer pass an estimator context builds."""
    ctx = mismc_context(pset, action, SampleBudget(n1=pset.n), rng)
    return math.exp(ctx.normalizer.mixture_likelihood(z[None, :], ctx.normalizer_weights)[0])


class TestSampleBudget:
    def test_defaults_and_derived(self):
        budget = SampleBudget(n1=300)
        assert (budget.n2, budget.n3, budget.n4, budget.n5) == (1, 1, 300, 1)
        assert budget.m == 300 and budget.n == 300

    def test_derived_products(self):
        budget = SampleBudget(n1=4, n2=2, n3=3, n4=5, n5=2)
        assert budget.m == 24 and budget.n == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(BudgetError):
            SampleBudget(n1=0)
        with pytest.raises(BudgetError):
            SampleBudget(n1=2, n3=-1)

    @pytest.mark.parametrize(
        ("counts", "field"),
        [
            ({"n1": 100, "n2": 1.5}, "n2"),
            ({"n1": 100.0}, "n1"),
            ({"n1": 10, "n5": True}, "n5"),
            ({"n1": 10, "n4": np.float64(20)}, "n4"),
            ({"n1": 10, "n3": "2"}, "n3"),
        ],
    )
    def test_rejects_non_integer_counts(self, counts, field):
        with pytest.raises(BudgetError, match=f"{field} must be an integer"):
            SampleBudget(**counts)

    def test_accepts_numpy_integers(self):
        budget = SampleBudget(n1=np.int64(4), n5=np.int32(2))
        assert budget.m == 4 and budget.n == 8


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
        log_eta = ctx.normalizer.mixture_likelihood(z, ctx.normalizer_weights)
        dense = logsumexp(
            ctx.normalizer.log_density_grid(z) + np.log(ctx.normalizer_weights), axis=1
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
        rng = np.random.default_rng(3)
        pset = sample_particles(prior, 500, rng)
        ctx = mismc_context(pset, blind, SampleBudget(n1=500), rng)
        acc = mismc_update(ctx.empty_accumulator(), 500, ctx)
        assert abs(acc.sum2 - acc.sum3) < 1e-9
        # the estimate reduces to the -H[new | x] Monte Carlo term
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

    def test_three_sums_match_superposition_terms(self, chain):
        # each sum estimates its analytic entropy term (Gaussian oracle)
        prior, action = chain
        joint = joint_state_observation(prior, action)
        h = lambda ids: gaussian_entropy_ref(marginalize_gaussian(joint, ids))
        term1 = -(h({"x", "a:x1"}) - h({"x"}))  # -H[new | x]
        term2 = -(h({"x", "a:x1", "a:z1"}) - h({"x", "a:x1"}))  # -H[z | x, new]
        term3 = -h({"a:z1"})  # sum3 estimates -H[z]
        sums = []
        for i in range(25):
            rng = np.random.default_rng(3000 + i)
            pset = sample_particles(prior, 800, rng)
            ctx = mismc_context(pset, action, SampleBudget(n1=800), rng)
            acc = mismc_update(ctx.empty_accumulator(), 800, ctx)
            sums.append((acc.sum1, acc.sum2, acc.sum3))
        sums = np.array(sums)
        for column, expected in zip(sums.T, (term1, term2, term3)):
            assert abs(column.mean() - expected) < 3.0 * column.std(ddof=1)

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
        assert est.sample_counts["m"] == 300
        assert est.sample_counts["n"] == 300
        assert est.elapsed >= 0.0

    def test_general_budget_path(self, chain):
        # n2, n3, n5 > 1 exercise the nested reshapes
        prior, action = chain
        trials = np.array(
            [
                mismc_estimate(
                    sample_particles(prior, 300, np.random.default_rng(4000 + i)),
                    action,
                    SampleBudget(n1=300, n2=2, n3=3, n4=300, n5=2),
                    np.random.default_rng(5000 + i),
                ).value
                for i in range(12)
            ]
        )
        assert abs(trials.mean() - CHAIN_MI) < 4.0 * trials.std(ddof=1)

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
            budget = SampleBudget(
                n1=n1,
                n2=int(rng.integers(1, 3)),
                n3=int(rng.integers(1, 3)),
                n4=n1 if case % 3 == 0 else int(rng.integers(10, 80)),
                n5=int(rng.integers(1, 3)),
            )
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
        n1=st.integers(1, 40),
        budget=st.fixed_dictionaries(
            {
                "n2": st.integers(1, 3),
                "n3": st.integers(1, 3),
                "n4": st.integers(1, 60),
                "n5": st.integers(1, 3),
            }
        ),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        n1=30,
        budget={"n2": 2, "n3": 3, "n4": 17, "n5": 2},
        cuts=[0.1, 0.5, 0.5, 0.9],
        seed=1,
    )
    def test_incremental_is_batch_bit_for_bit(self, n1, budget, cuts, seed):
        # installments at arbitrary split points, empty ones included
        prior, action = make_chain_1d()
        rng = np.random.default_rng(seed)
        pset = WeightedParticleSet(
            layout=prior.layout,
            particles=sample_particles(prior, n1, rng).particles,
            weights=rng.uniform(0.1, 1.0, n1),
        )
        budget = SampleBudget(n1=n1, **budget)
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
        assert (acc.sum1, acc.sum2, acc.sum3) == (whole.sum1, whole.sum2, whole.sum3)
        assert np.array_equal(acc.terms, whole.terms)

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
            assert acc.estimate == acc.sum1 + acc.sum2 - acc.sum3
        assert acc.consumed == 200

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

    def test_context_mismatch_detected(self, chain):
        prior, action = chain
        rng = np.random.default_rng(10)
        pset = sample_particles(prior, 60, rng)
        ctx_a = mismc_context(pset, action, SampleBudget(n1=60), np.random.default_rng(1))
        ctx_b = mismc_context(pset, action, SampleBudget(n1=60), np.random.default_rng(2))
        acc = mismc_update(ctx_a.empty_accumulator(), 30, ctx_a)
        with pytest.raises(ContextMismatchError):
            mismc_update(acc, 30, ctx_b)


class TestParticleNoise:
    @staticmethod
    def window(root, index, per_particle):
        """One index's innovations from its own generator."""
        stride = _uniform_stride(per_particle)
        bit_gen = np.random.Philox(key=np.array(root, dtype=np.uint64))
        bit_gen.advance(index * (stride // _PHILOX_BLOCK))
        uniforms = np.random.Generator(bit_gen).random((1, stride))
        return _box_muller(uniforms)[0, :per_particle]

    @pytest.mark.parametrize(
        "indices",
        [range(0, 5), range(7, 13), range(0, 1), range(7, 8), range(0, 0), range(7, 7)],
    )
    def test_rows_equal_per_index_windows(self, indices):
        root, per_particle = (123, 456), 6
        got = _particle_noise(root, indices.start, len(indices), per_particle)
        assert got.shape == (len(indices), per_particle)
        for row, index in zip(got, indices):
            assert np.array_equal(row, self.window(root, index, per_particle))

