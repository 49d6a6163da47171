import collections
import itertools

import numpy as np
import pytest

from augmi import (
    Action,
    AnalyticMiBackend,
    REWARD_CONSECUTIVE_MI,
    REWARD_INVOLVED_IG,
    SampleBudget,
    SmcMiBackend,
    augmented_mi_analytic,
    compose_actions,
    determine_involved,
    generate_scenario,
    GaussianDensity,
    StateLayout,
    marginalize_gaussian,
    marginalize_particles,
    sample_particles,
    sequential_mi_direct,
    solve,
)
import augmi.planner as planner
from augmi.planner import PlannerError
from conftest import CHAIN_MI, make_chain_1d, random_plan_instance

BACKEND = AnalyticMiBackend()


class TestSolveSingleStep:
    def test_single_action_value_is_its_mi(self, chain):
        prior, action = chain
        result = solve(prior, [action], 1, REWARD_INVOLVED_IG, BACKEND, rng=0)
        assert result.value == pytest.approx(CHAIN_MI, abs=1e-12)
        assert result.best_sequence == ("a",)

    def test_scenario_argmax_matches_analytic(self):
        scenario = generate_scenario(150, 4, seed=42)
        analytic = {
            a.id: augmented_mi_analytic(scenario.prior, a).value
            for a in scenario.actions
        }
        best = max(analytic, key=analytic.get)
        for mode in (REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI):
            result = solve(scenario.prior, list(scenario.actions), 1, mode, BACKEND, rng=0)
            assert result.best_sequence == (best,)
            assert result.value == pytest.approx(analytic[best], abs=1e-9)

    def test_tie_breaks_to_lowest_action_id(self, chain):
        prior, action = chain
        twin_b, twin_a = (
            Action(
                id=twin_id,
                transitions=action.transitions,
                observations=action.observations,
                new_ids=action.new_ids,
            )
            for twin_id in ("b", "a")
        )
        result = solve(prior, [twin_b, twin_a], 1, REWARD_CONSECUTIVE_MI, BACKEND, rng=0)
        assert result.best_sequence == ("a",)


class TestRewardModeEquivalence:
    def test_randomized_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            prior, steps = random_plan_instance(rng, horizon=2)
            ig = solve(prior, steps, 2, REWARD_INVOLVED_IG, BACKEND, rng=1)
            mi = solve(prior, steps, 2, REWARD_CONSECUTIVE_MI, BACKEND, rng=1)
            assert ig.best_sequence == mi.best_sequence
            assert abs(ig.value - mi.value) < 1e-9

    def test_accumulated_rewards_agree_node_by_node(self):
        # Both modes' accumulated_reward is the information gained from the
        # root, so same-path nodes agree under the exact backend.
        rng = np.random.default_rng(2209)
        pairs = 0
        for _ in range(5):
            prior, steps = random_plan_instance(rng, horizon=3)
            ig = solve(prior, steps, 3, REWARD_INVOLVED_IG, BACKEND, rng=1)
            mi = solve(prior, steps, 3, REWARD_CONSECUTIVE_MI, BACKEND, rng=1)

            def walk(ig_node, mi_node):
                nonlocal pairs
                assert set(ig_node.children) == set(mi_node.children)
                assert abs(ig_node.accumulated_reward - mi_node.accumulated_reward) < 1e-9
                pairs += 1
                for action_id, ((_z, ig_child),) in ig_node.children.items():
                    (_z, mi_child), = mi_node.children[action_id]
                    walk(ig_child, mi_child)

            walk(ig.root, mi.root)
        assert pairs >= 5 * (1 + 2 + 4 + 8)

    def test_accumulated_rewards_telescope(self):
        rng = np.random.default_rng(11)
        prior, steps = random_plan_instance(rng, horizon=3)
        result = solve(prior, steps, 3, REWARD_CONSECUTIVE_MI, BACKEND, rng=3)
        node = result.root

        def walk(node):
            for action_id, pairs in node.children.items():
                for _z, child in pairs:
                    edge = BACKEND(
                        node.belief,
                        next(
                            a
                            for a in steps[node.depth]
                            if a.id == action_id
                        ),
                        np.random.default_rng(0),
                    )
                    assert child.accumulated_reward == pytest.approx(
                        node.accumulated_reward + edge, abs=1e-9
                    )
                    walk(child)

        walk(node)


class TestConsecutiveMi:
    def test_chain_step(self, chain):
        prior, action = chain
        value = BACKEND(prior, action, np.random.default_rng(0))
        assert value == pytest.approx(CHAIN_MI, abs=1e-12)

    def test_uninformative_step(self):
        from augmi import Action, LinearGaussianModel, joint_state_observation
        from conftest import gaussian_entropy_ref

        prior, action = make_chain_1d()
        free_obs = LinearGaussianModel(
            inputs=(), output_dim=1, matrix=np.zeros((1, 0)), noise_cov=[[0.4]]
        )
        blind = Action(id="a", transitions=action.transitions, observations=((1, free_obs),))
        value = BACKEND(prior, blind, np.random.default_rng(0))
        joint = joint_state_observation(prior, Action(id="t", transitions=action.transitions))
        h_new_given_x = gaussian_entropy_ref(joint) - gaussian_entropy_ref(prior)
        assert value == pytest.approx(-h_new_given_x, abs=1e-9)

    def test_smc_backend_agrees_with_analytic(self, chain):
        prior, action = chain
        backend = SmcMiBackend(SampleBudget(n1=1500))
        values = np.array(
            [
                backend(prior, action, np.random.default_rng(100 + i))
                for i in range(15)
            ]
        )
        assert abs(values.mean() - CHAIN_MI) < 3.0 * values.std(ddof=1)


class TestSequentialMiDirect:
    def test_single_step_equals_consecutive(self, chain):
        prior, action = chain
        direct = sequential_mi_direct(prior, [action], 1, BACKEND, rng=0)
        assert direct == pytest.approx(CHAIN_MI, abs=1e-12)

    def test_two_step_equals_composed_action(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            prior, steps = random_plan_instance(rng, horizon=2)
            seq = [steps[0][0], steps[1][0]]
            direct = sequential_mi_direct(prior, seq, 2, BACKEND, rng=0)
            composed = compose_actions(seq)
            inv_union = determine_involved(prior.layout, composed).blocks
            oracle = augmented_mi_analytic(
                marginalize_gaussian(prior, inv_union), composed
            ).value
            assert abs(direct - oracle) < 1e-9

    def test_enumeration_matches_solver(self):
        rng = np.random.default_rng(88)
        for _ in range(5):
            prior, steps = random_plan_instance(rng, horizon=2)
            result = solve(prior, steps, 2, REWARD_INVOLVED_IG, BACKEND, rng=4)
            best = -np.inf
            best_seq = None
            for a1 in sorted(steps[0], key=lambda a: a.id):
                for a2 in sorted(steps[1], key=lambda a: a.id):
                    objective = sum(
                        sequential_mi_direct(prior, [a1, a2], t, BACKEND, rng=0)
                        for t in (1, 2)
                    )
                    if objective > best:
                        best, best_seq = objective, (a1.id, a2.id)
            assert result.best_sequence == best_seq
            assert abs(result.value - best) < 1e-9


class TestSampledObservationBranching:
    def test_stochastic_backend_runs_and_is_seeded(self):
        rng = np.random.default_rng(5)
        prior, steps = random_plan_instance(rng, horizon=2)
        backend = SmcMiBackend(SampleBudget(n1=120))
        a = solve(prior, steps, 2, REWARD_CONSECUTIVE_MI, backend, obs_samples=2, rng=9)
        b = solve(prior, steps, 2, REWARD_CONSECUTIVE_MI, backend, obs_samples=2, rng=9)
        assert np.isfinite(a.value)
        assert a.value == b.value
        assert a.best_sequence == b.best_sequence
        # observation branches recorded in the tree
        first = a.root.children[a.best_sequence[0]]
        assert len(first) == 2
        assert first[0][0] is not None

    def test_backend_failure_carries_node_path(self, chain):
        prior, action = chain

        class Broken:
            exact = True

            def __call__(self, belief, act, rng):
                raise RuntimeError("backend exploded")

        with pytest.raises(PlannerError, match="depth 0"):
            solve(prior, [action], 1, REWARD_CONSECUTIVE_MI, Broken(), rng=0)

    def test_backend_failure_is_planner_error_everywhere(self):
        prior, steps = random_plan_instance(np.random.default_rng(3), horizon=2)
        seq = [steps[0][0], steps[1][0]]

        class FailsAtDepthOne:
            exact = True

            def __call__(self, belief, act, rng):
                if act.id == seq[1].id:
                    raise RuntimeError("boom")
                return BACKEND(belief, act, rng)

        message = rf"depth 1 on action '{seq[1].id}' \(path \['{seq[0].id}'\]\): boom"
        with pytest.raises(PlannerError, match=message):
            sequential_mi_direct(prior, seq, 2, FailsAtDepthOne(), rng=0)
        with pytest.raises(PlannerError, match=message):
            solve(prior, [[seq[0]], [seq[1]]], 2, REWARD_CONSECUTIVE_MI, FailsAtDepthOne(), rng=0)


class TestInvolvedIgTree:
    """involved_ig rewards come from the root belief on the composed path,
    so its tree holds prefixes and seeds, not conditioned beliefs."""

    def test_conditions_no_belief_and_composes_pairs(self, monkeypatch):
        prior, steps = random_plan_instance(np.random.default_rng(5), horizon=3)

        def forbidden(*args, **kwargs):
            raise AssertionError("involved_ig must not build or condition a belief")

        composed_lengths = []

        def recording_compose(actions, *args, **kwargs):
            composed_lengths.append(len(actions))
            return compose_actions(actions, *args, **kwargs)

        monkeypatch.setattr(planner, "joint_state_observation", forbidden)
        monkeypatch.setattr(planner, "_condition_on_draw", forbidden)
        monkeypatch.setattr(planner, "compose_actions", recording_compose)
        backend = SmcMiBackend(SampleBudget(n1=80))
        result = solve(prior, steps, 3, REWARD_INVOLVED_IG, backend, obs_samples=2, rng=9)
        assert np.isfinite(result.value)
        assert composed_lengths and set(composed_lengths) == {2}

        def walk(node):
            actions = steps[node.depth] if node.depth < len(steps) else []
            assert set(node.children) == {a.id for a in actions}
            for pairs in node.children.values():
                # One child per action, with no observation and no belief.
                assert len(pairs) == 1
                (z, child), = pairs
                assert z is None and child.belief is None
                walk(child)

        walk(result.root)

    def test_backend_sees_each_composed_prefix(self):
        prior, steps = random_plan_instance(np.random.default_rng(6), horizon=3)
        obs_samples = 2
        smc = SmcMiBackend(SampleBudget(n1=60))
        seen = []
        states = []

        class Recording:
            exact = False

            def __call__(self, belief, action, rng):
                seen.append((belief, action))
                bits = rng.bit_generator.state["state"]
                states.append((bits["state"], bits["inc"]))
                return smc(belief, action, rng)

        solve(prior, steps, 3, REWARD_INVOLVED_IG, Recording(), obs_samples=obs_samples, rng=4)
        expected = {}
        for depth in (1, 2, 3):
            for path in itertools.product(*steps[:depth]):
                # Each composed prefix is estimated obs_samples times.
                expected[compose_actions(path).id] = (path, obs_samples)
        counts = collections.Counter(action.id for _belief, action in seen)
        assert counts == {key: n for key, (_path, n) in expected.items()}
        assert len(set(states)) == len(states)
        assert len({id(belief) for belief, _action in seen}) == 1
        for _belief, action in seen:
            full = compose_actions(expected[action.id][0])
            assert action.new_ids == full.new_ids
            assert [s for s, _m in action.observations] == [s for s, _m in full.observations]
            assert all(a is b for a, b in zip(action.transitions, full.transitions))
            assert all(a is b for (_s, a), (_t, b) in zip(action.observations, full.observations))

    def test_smc_solve_is_seeded(self):
        prior, steps = random_plan_instance(np.random.default_rng(5), horizon=2)
        backend = SmcMiBackend(SampleBudget(n1=120))
        a, b, c = (
            solve(prior, steps, 2, REWARD_INVOLVED_IG, backend, obs_samples=2, rng=seed)
            for seed in (9, 9, 10)
        )
        assert np.isfinite(a.value)
        assert a.value == b.value
        assert a.best_sequence == b.best_sequence
        assert c.value != a.value

    def test_value_is_max_over_paths_of_summed_prefix_means(self):
        prior, steps = random_plan_instance(np.random.default_rng(7), horizon=3)
        smc = SmcMiBackend(SampleBudget(n1=60))
        values = collections.defaultdict(list)

        class Recording:
            exact = False

            def __call__(self, belief, action, rng):
                value = smc(belief, action, rng)
                values[action.id].append(value)
                return value

        result = solve(prior, steps, 3, REWARD_INVOLVED_IG, Recording(), obs_samples=3, rng=2)
        best, best_seq = -np.inf, None
        # Sequences in lexicographic id order, so strict > keeps the lowest-id argmax.
        for seq in itertools.product(*(sorted(step, key=lambda a: a.id) for step in steps)):
            objective = 0.0
            for depth in (1, 2, 3):
                recorded = values[compose_actions(seq[:depth]).id]
                assert len(recorded) == 3
                objective += sum(recorded) / len(recorded)
            if objective > best:
                best, best_seq = objective, tuple(a.id for a in seq)
        assert abs(result.value - best) < 1e-12
        assert result.best_sequence == best_seq


class TestValidation:
    def test_horizon_positive(self, chain):
        prior, action = chain
        with pytest.raises(ValueError, match="horizon"):
            solve(prior, [action], 0, REWARD_CONSECUTIVE_MI, BACKEND, rng=0)

    def test_unknown_mode(self, chain):
        prior, action = chain
        with pytest.raises(ValueError, match="reward mode"):
            solve(prior, [action], 1, "whatever", BACKEND, rng=0)

    def test_action_without_observations_rejected_in_both_modes(self, chain):
        prior, action = chain
        blind = Action(id="t", transitions=action.transitions)
        for mode in (REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI):
            with pytest.raises(ValueError, match="no observations"):
                solve(prior, [action, blind], 1, mode, BACKEND, rng=0)

    def test_flat_candidate_list_needs_horizon_one(self, chain):
        prior, action = chain
        for mode in (REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI):
            with pytest.raises(ValueError, match="pass one candidate list per step"):
                solve(prior, [action], 2, mode, BACKEND, rng=0)

    def test_step_count_must_match_horizon(self, chain):
        prior, action = chain
        with pytest.raises(ValueError, match="horizon"):
            solve(prior, [[action], [action]], 3, REWARD_CONSECUTIVE_MI, BACKEND, rng=0)

    @pytest.mark.parametrize("obs_samples", [0, -3])
    def test_obs_samples_below_one_rejected(self, chain, obs_samples):
        prior, action = chain
        for backend in (BACKEND, SmcMiBackend(SampleBudget(n1=50))):
            with pytest.raises(ValueError, match="obs_samples"):
                solve(
                    prior, [action], 1, REWARD_CONSECUTIVE_MI, backend,
                    obs_samples=obs_samples, rng=0,
                )
            with pytest.raises(ValueError, match="obs_samples"):
                sequential_mi_direct(
                    prior, [action], 1, backend, obs_samples=obs_samples, rng=0
                )

    @pytest.mark.parametrize("obs_samples", [1.5, 2.0, True])
    def test_non_integer_obs_samples_rejected(self, chain, obs_samples):
        prior, action = chain
        for backend in (BACKEND, SmcMiBackend(SampleBudget(n1=50))):
            with pytest.raises(ValueError, match="obs_samples must be an integer"):
                solve(
                    prior, [action], 1, REWARD_INVOLVED_IG, backend,
                    obs_samples=obs_samples, rng=0,
                )
            with pytest.raises(ValueError, match="obs_samples must be an integer"):
                sequential_mi_direct(
                    prior, [action], 1, backend, obs_samples=obs_samples, rng=0
                )

    def test_particle_prior_rejected_where_beliefs_are_conditioned(self, chain):
        prior, action = chain
        pset = sample_particles(prior, 100, 1)
        backend = SmcMiBackend(SampleBudget(n1=100))
        with pytest.raises(TypeError, match="posterior update"):
            solve(pset, [action], 1, REWARD_CONSECUTIVE_MI, backend, rng=0)
        with pytest.raises(TypeError, match="posterior update"):
            sequential_mi_direct(pset, [action], 1, backend, rng=0)

    def test_involved_ig_marginalizes_a_wider_particle_prior(self, chain):
        _prior, action = chain
        layout = StateLayout.from_dims([("x", 1), ("y", 1)])
        wide = GaussianDensity(
            layout=layout, mean=[0.0, 1.0], covariance=[[1.0, 0.5], [0.5, 2.0]]
        )
        pset = sample_particles(wide, 100, 2)
        backend = SmcMiBackend(SampleBudget(n1=100))
        result = solve(pset, [action], 1, REWARD_INVOLVED_IG, backend, obs_samples=2, rng=3)
        reduced = solve(
            marginalize_particles(pset, {"x"}), [action], 1, REWARD_INVOLVED_IG, backend,
            obs_samples=2, rng=3,
        )
        assert result.value == reduced.value
        assert result.root.belief.layout.ids == ("x",)

    def test_numpy_integer_obs_samples_accepted(self, chain):
        prior, action = chain
        backend = SmcMiBackend(SampleBudget(n1=50))
        plain = solve(prior, [action], 1, REWARD_INVOLVED_IG, backend, obs_samples=2, rng=0)
        numpy = solve(
            prior, [action], 1, REWARD_INVOLVED_IG, backend, obs_samples=np.int64(2), rng=0
        )
        assert numpy.value == plain.value
