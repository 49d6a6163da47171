import collections
import itertools
import re
from dataclasses import replace

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
    joint_state_observation,
    LinearGaussianModel,
    StateLayout,
    marginalize_gaussian,
    marginalize_particles,
    sample_particles,
    sequential_mi_direct,
    solve,
)
import augmi.planner as planner
from augmi.analytic import _condition_on_draw
from augmi.planner import PlannerError
from conftest import CHAIN_MI, make_chain_1d, random_plan_instance, scenario_plan_steps

BACKEND = AnalyticMiBackend()


class TestSolveSingleStep:
    def test_single_action_value_is_its_mi(self, chain):
        prior, action = chain
        result = solve(prior, [[action]], 1, REWARD_INVOLVED_IG, BACKEND, rng=0)
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
            result = solve(scenario.prior, [list(scenario.actions)], 1, mode, BACKEND, rng=0)
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
        result = solve(prior, [[twin_b, twin_a]], 1, REWARD_CONSECUTIVE_MI, BACKEND, rng=0)
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
                    ).value
                    assert child.accumulated_reward == pytest.approx(
                        node.accumulated_reward + edge, abs=1e-9
                    )
                    walk(child)

        walk(node)


class TestConsecutiveMi:
    def test_chain_step(self, chain):
        prior, action = chain
        value = BACKEND(prior, action, np.random.default_rng(0)).value
        assert value == pytest.approx(CHAIN_MI, abs=1e-12)

    def test_uninformative_step(self):
        from augmi import Action, LinearGaussianModel, joint_state_observation
        from conftest import gaussian_entropy_ref

        prior, action = make_chain_1d()
        free_obs = LinearGaussianModel(
            inputs=(), output_dim=1, matrix=np.zeros((1, 0)), noise_cov=[[0.4]]
        )
        blind = Action(id="a", transitions=action.transitions, observations=((1, free_obs),))
        value = BACKEND(prior, blind, np.random.default_rng(0)).value
        joint = joint_state_observation(prior, Action(id="t", transitions=action.transitions))
        h_new_given_x = gaussian_entropy_ref(joint) - gaussian_entropy_ref(prior)
        assert value == pytest.approx(-h_new_given_x, abs=1e-9)

    def test_smc_backend_agrees_with_analytic(self, chain):
        prior, action = chain
        backend = SmcMiBackend(SampleBudget(n1=1500))
        values = np.array(
            [
                backend(prior, action, np.random.default_rng(100 + i)).value
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
    """consecutive_mi's observation branches are seeded estimates: a child is
    one belief per action, conditioned at the predictive mean, and its reward
    is the mean of obs_samples seeded one-step estimates."""

    def test_drawn_observation_leaves_every_value_unchanged(self):
        """The premise of one belief per action: for linear-Gaussian models the
        conditioned covariance, and every information value read from it, does
        not depend on the observed z.  A nonlinear observation model (ROADMAP
        item 8) would break this, and observation branches would come back."""
        rng = np.random.default_rng(21)
        for _ in range(5):
            prior, steps = random_plan_instance(rng, horizon=2)
            for action in steps[0]:
                joint = joint_state_observation(prior, action)
                at_z, z = _condition_on_draw(joint, action, rng)
                at_mean, no_z = _condition_on_draw(joint, action, None)
                assert no_z is None and z is not None
                assert not np.array_equal(at_z.mean, at_mean.mean)
                assert np.array_equal(at_z.covariance, at_mean.covariance)
                for nxt in steps[1]:
                    drawn = BACKEND(at_z, nxt, np.random.default_rng(0)).value
                    mean = BACKEND(at_mean, nxt, np.random.default_rng(0)).value
                    assert abs(drawn - mean) < 1e-12

    def test_stochastic_backend_runs_and_is_seeded(self):
        rng = np.random.default_rng(5)
        prior, steps = random_plan_instance(rng, horizon=2)
        backend = SmcMiBackend(SampleBudget(n1=120))
        a, b, c = (
            solve(prior, steps, 2, REWARD_CONSECUTIVE_MI, backend, obs_samples=2, rng=seed)
            for seed in (9, 9, 10)
        )
        assert np.isfinite(a.value)
        assert a.value == b.value
        assert a.best_sequence == b.best_sequence
        assert c.value != a.value
        # one child per action, with no observation
        for pairs in a.root.children.values():
            (z, child), = pairs
            assert z is None and isinstance(child.belief, GaussianDensity)

    def test_value_is_max_over_paths_of_summed_edge_means(self):
        prior, steps = random_plan_instance(np.random.default_rng(7), horizon=3)
        smc = SmcMiBackend(SampleBudget(n1=60))
        obs_samples = 3
        values = collections.defaultdict(list)
        states = []

        class Recording:
            exact = False

            def __call__(self, belief, action, rng):
                bits = rng.bit_generator.state["state"]
                states.append((bits["state"], bits["inc"]))
                estimate = smc(belief, action, rng)
                values[id(belief), action.id].append(estimate.value)
                return estimate

        result = solve(
            prior, steps, 3, REWARD_CONSECUTIVE_MI, Recording(), obs_samples=obs_samples, rng=2
        )
        assert len(set(states)) == len(states)
        edges = 0
        best, best_seq = -np.inf, None

        def walk(node, gained, objective, seq):
            # Paths in lexicographic id order, so strict > keeps the lowest-id argmax.
            nonlocal edges, best, best_seq
            if node.depth == len(steps):
                if objective > best:
                    best, best_seq = objective, seq
                return
            for action_id in sorted(node.children):
                # Each (node, action) is estimated obs_samples times.
                recorded = values[id(node.belief), action_id]
                assert len(recorded) == obs_samples
                edges += 1
                (_z, child), = node.children[action_id]
                child_gained = gained + sum(recorded) / obs_samples
                assert child.accumulated_reward == child_gained
                walk(child, child_gained, objective + child_gained, seq + (action_id,))

        walk(result.root, 0.0, 0.0, ())
        assert len(states) == obs_samples * edges
        assert abs(result.value - best) < 1e-12
        assert result.best_sequence == best_seq

    def test_backend_failure_carries_node_path(self, chain):
        prior, action = chain

        class Broken:
            exact = True

            def __call__(self, belief, act, rng):
                raise RuntimeError("backend exploded")

        with pytest.raises(PlannerError, match="depth 0"):
            solve(prior, [[action]], 1, REWARD_CONSECUTIVE_MI, Broken(), rng=0)

    def test_backend_failure_is_planner_error_everywhere(self):
        prior, steps = random_plan_instance(np.random.default_rng(3), horizon=2)
        seq = [steps[0][0], steps[1][0]]
        # Both modes name the parent node: its depth and its path.  The
        # failing edge's action is the composed prefix in involved_ig mode.
        for mode, failing in (
            (REWARD_INVOLVED_IG, compose_actions(seq).id),
            (REWARD_CONSECUTIVE_MI, seq[1].id),
        ):

            class FailsAtDepthOne:
                exact = True

                def __call__(self, belief, act, rng):
                    if act.id == failing:
                        raise RuntimeError("boom")
                    return BACKEND(belief, act, rng)

            message = (
                rf"depth 1 on action '{re.escape(failing)}' \(path \['{seq[0].id}'\]\): boom"
            )
            with pytest.raises(PlannerError, match=message):
                solve(prior, [[seq[0]], [seq[1]]], 2, mode, FailsAtDepthOne(), rng=0)
        # The direct evaluation fails as consecutive_mi does, the last mode above.
        with pytest.raises(PlannerError, match=message):
            sequential_mi_direct(prior, seq, 2, FailsAtDepthOne(), rng=0)


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
                estimate = smc(belief, action, rng)
                values[action.id].append(estimate.value)
                return estimate

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


class TestHorizonLeaves:
    """A child at the horizon is a leaf worth 0 whose belief nothing reads, so
    in both modes it holds no belief and is built without a joint or a
    conditioning."""

    @pytest.mark.parametrize("horizon", [2, 3])
    def test_one_beliefless_leaf_per_action_at_the_horizon(self, horizon):
        prior, steps = random_plan_instance(np.random.default_rng(5), horizon=horizon)
        backend = SmcMiBackend(SampleBudget(n1=60))
        for mode in (REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI):
            result = solve(prior, steps, horizon, mode, backend, obs_samples=2, rng=9)
            leaves = 0

            def walk(node):
                nonlocal leaves
                if node.depth == horizon:
                    assert node.children == {} and node.belief is None
                    leaves += 1
                    return
                assert set(node.children) == {a.id for a in steps[node.depth]}
                for pairs in node.children.values():
                    # One (None, child) pair per action in both modes.
                    (z, child), = pairs
                    assert z is None
                    if node.depth + 1 == horizon or mode == REWARD_INVOLVED_IG:
                        assert child.belief is None
                    else:
                        assert isinstance(child.belief, GaussianDensity)
                    walk(child)

            walk(result.root)
            assert leaves == np.prod([len(step) for step in steps])

    def test_joints_are_built_below_the_horizon_only(self, monkeypatch):
        slam = generate_scenario(20, 2, correlation_strength=0.3, seed=3)
        steps = scenario_plan_steps(slam, 3)
        built = []

        def counting(belief, action):
            built.append(action.id)
            return joint_state_observation(belief, action)

        monkeypatch.setattr(planner, "joint_state_observation", counting)
        backend = SmcMiBackend(SampleBudget(n1=50))
        solve(slam.prior, steps, 3, REWARD_CONSECUTIVE_MI, backend, obs_samples=2, rng=1)
        # One per action at the root, then one per action for each of the
        # 2 depth-1 beliefs; none for the depth-2 beliefs' children.
        assert len(built) == 2 + 4
        built.clear()
        seq = [step[0] for step in steps]
        sequential_mi_direct(slam.prior, seq, 3, backend, obs_samples=2, rng=1)
        # One at each of the first two steps; the last step's increment
        # needs no conditioning.
        assert built == [seq[0].id, seq[1].id]

    def test_direct_evaluation_replays_the_solver_path(self):
        # On one-candidate steps the solver and the direct evaluation make
        # the same seeded estimates; only the order of summation differs.
        prior, steps = random_plan_instance(np.random.default_rng(8), horizon=3)
        seq = [step[0] for step in steps]
        backend = SmcMiBackend(SampleBudget(n1=60))
        for depth in (1, 2, 3):
            node = solve(
                prior, [[a] for a in seq[:depth]], depth, REWARD_CONSECUTIVE_MI, backend,
                obs_samples=2, rng=4,
            ).root
            for action in seq[:depth]:
                (_z, node), = node.children[action.id]
            direct = sequential_mi_direct(prior, seq, depth, backend, obs_samples=2, rng=4)
            assert direct == pytest.approx(node.accumulated_reward, rel=1e-14, abs=1e-14)


class TestValidation:
    def test_horizon_positive(self, chain):
        prior, action = chain
        with pytest.raises(ValueError, match="horizon"):
            solve(prior, [[action]], 0, REWARD_CONSECUTIVE_MI, BACKEND, rng=0)

    def test_unknown_mode(self, chain):
        prior, action = chain
        with pytest.raises(ValueError, match="reward mode"):
            solve(prior, [[action]], 1, "whatever", BACKEND, rng=0)

    def test_action_without_observations_rejected_in_both_modes(self, chain):
        prior, action = chain
        blind = Action(id="t", transitions=action.transitions)
        for mode in (REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI):
            with pytest.raises(ValueError, match="no observations"):
                solve(prior, [[action, blind]], 1, mode, BACKEND, rng=0)

    def test_step_count_must_match_horizon(self, chain):
        prior, action = chain
        with pytest.raises(ValueError, match="horizon"):
            solve(prior, [[action], [action]], 3, REWARD_CONSECUTIVE_MI, BACKEND, rng=0)

    def test_empty_candidate_list_rejected(self, chain):
        prior, _action = chain
        with pytest.raises(ValueError, match="non-empty candidate action set"):
            solve(prior, [], 1, REWARD_CONSECUTIVE_MI, BACKEND, rng=0)

    def test_empty_step_rejected(self, chain):
        prior, action = chain
        with pytest.raises(ValueError, match="empty candidate action set at step 1"):
            solve(prior, [[action], []], 2, REWARD_CONSECUTIVE_MI, BACKEND, rng=0)

    def test_candidate_ids_are_unique_per_step_in_both_modes(self):
        # A node keys its children by id: a second 'a1' would replace the
        # first's subtree while the value and plan still came from the first.
        slam = generate_scenario(30, 3, seed=3)
        a1, a2, _a3 = slam.actions
        steps = scenario_plan_steps(slam, 2)
        steps[1].append(replace(steps[1][1], id=steps[1][0].id))
        cases = [
            ([[a1, replace(a2, id="a1")]], 1, "two candidate actions at step 0 have id 'a1'"),
            (steps, 2, f"two candidate actions at step 1 have id {steps[1][0].id!r}"),
        ]
        for mode in (REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI):
            for actions, horizon, message in cases:
                with pytest.raises(ValueError, match=re.escape(message)):
                    solve(slam.prior, actions, horizon, mode, BACKEND, rng=0)

    def test_candidates_must_agree_on_new_block_dims(self, chain):
        prior, action = chain
        wide = Action(
            id="w",
            transitions=(
                LinearGaussianModel(
                    inputs=("x",), output_dim=2, matrix=[[1.0], [1.0]], noise_cov=np.eye(2)
                ),
            ),
            observations=(
                (
                    1,
                    LinearGaussianModel(
                        inputs=("a:x1",), output_dim=1, matrix=[[1.0, 0.0]], noise_cov=[[1.0]]
                    ),
                ),
            ),
            new_ids=("a:x1",),
        )
        with pytest.raises(ValueError, match="disagree on dim of new block 'a:x1'"):
            solve(prior, [[action, wide]], 1, REWARD_CONSECUTIVE_MI, BACKEND, rng=0)

    def test_candidates_must_touch_the_prior(self, chain):
        prior, _action = chain
        # z reads only the new block, which no prior block feeds: its
        # involved set is empty, so the union over candidates is never empty
        source = LinearGaussianModel(
            inputs=(), output_dim=1, matrix=np.zeros((1, 0)), noise_cov=[[1.0]]
        )
        sensor = LinearGaussianModel(
            inputs=("f:x1",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
        )
        free = Action(id="f", transitions=(source,), observations=((1, sensor),))
        with pytest.raises(ValueError, match="involved set must be non-empty"):
            solve(prior, [[free]], 1, REWARD_CONSECUTIVE_MI, BACKEND, rng=0)

    @pytest.mark.parametrize(
        ("horizon", "message"),
        [(0, "horizon must be >= 1, got 0"), (2, "horizon must be <= 1, got 2")],
        ids=["0", "2"],
    )
    def test_sequential_mi_direct_horizon_in_range(self, chain, horizon, message):
        prior, action = chain
        with pytest.raises(ValueError, match=re.escape(message)):
            sequential_mi_direct(prior, [action], horizon, BACKEND, rng=0)

    @pytest.mark.parametrize("obs_samples", [0, -3])
    def test_obs_samples_below_one_rejected(self, chain, obs_samples):
        prior, action = chain
        for backend in (BACKEND, SmcMiBackend(SampleBudget(n1=50))):
            with pytest.raises(ValueError, match="obs_samples"):
                solve(
                    prior, [[action]], 1, REWARD_CONSECUTIVE_MI, backend,
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
                    prior, [[action]], 1, REWARD_INVOLVED_IG, backend,
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
            solve(pset, [[action]], 1, REWARD_CONSECUTIVE_MI, backend, rng=0)
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
        result = solve(pset, [[action]], 1, REWARD_INVOLVED_IG, backend, obs_samples=2, rng=3)
        reduced = solve(
            marginalize_particles(pset, {"x"}), [[action]], 1, REWARD_INVOLVED_IG, backend,
            obs_samples=2, rng=3,
        )
        assert result.value == reduced.value
        assert result.root.belief.layout.ids == ("x",)

    def test_numpy_integer_obs_samples_accepted(self, chain):
        prior, action = chain
        backend = SmcMiBackend(SampleBudget(n1=50))
        plain = solve(prior, [[action]], 1, REWARD_INVOLVED_IG, backend, obs_samples=2, rng=0)
        numpy = solve(
            prior, [[action]], 1, REWARD_INVOLVED_IG, backend, obs_samples=np.int64(2), rng=0
        )
        assert numpy.value == plain.value
