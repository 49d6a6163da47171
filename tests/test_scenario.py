import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from augmi import (
    Action,
    augmented_mi_analytic,
    compose_actions,
    determine_involved,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from augmi import scenario as scenario_module
from augmi.cli import main
from augmi.scenario import MIN_MI_SEPARATION, ScenarioError
from conftest import scenario_document


def _saved_text(scenario, path) -> str:
    """The text ``save_scenario`` writes for ``scenario``."""
    save_scenario(scenario, path)
    return path.read_text(encoding="utf-8")


def _load_document(doc: dict, path):
    """Write ``doc`` to ``path`` as JSON and load it."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_scenario(path)


class TestGeneration:
    def test_benchmark_scale_scenario(self):
        scenario = generate_scenario(150, 4, seed=42)
        assert scenario.prior.dim == 150
        assert len(scenario.actions) == 4
        for action in scenario.actions:
            inv = determine_involved(scenario.layout, action)
            assert inv.dim == 4

    def test_dimension_within_one_block(self):
        for target in (10, 25, 51, 100, 149):
            scenario = generate_scenario(target, 1, seed=0)
            assert abs(scenario.prior.dim - target) <= 2

    def test_zero_correlation_block_diagonal(self):
        scenario = generate_scenario(20, 2, correlation_strength=0.0, seed=3)
        cov = scenario.prior.covariance
        for a in scenario.layout.blocks:
            for b in scenario.layout.blocks:
                if a.id != b.id:
                    assert np.all(cov[a.slice, b.slice] == 0.0)
        # the involved-subset reduction stays exact even without correlations
        action = scenario.actions[0]
        inv = determine_involved(scenario.layout, action)
        full = augmented_mi_analytic(scenario.prior, action).value
        reduced = augmented_mi_analytic(scenario.prior, action, inv.blocks).value
        assert abs(full - reduced) < 1e-9

    def test_correlations_are_genuine(self):
        scenario = generate_scenario(30, 1, correlation_strength=0.4, seed=3)
        action = scenario.actions[0]
        inv = determine_involved(scenario.layout, action)
        idx_inv = scenario.layout.indices(inv.blocks)
        others = set(scenario.layout.ids) - inv.blocks
        idx_out = scenario.layout.indices(others)
        cross = scenario.prior.covariance[np.ix_(idx_inv, idx_out)]
        assert np.abs(cross).max() > 1e-3

    def test_analytic_values_strictly_separated(self):
        scenario = generate_scenario(100, 4, seed=9)
        values = sorted(
            augmented_mi_analytic(scenario.prior, a).value for a in scenario.actions
        )
        gaps = np.diff(values)
        assert np.all(gaps >= MIN_MI_SEPARATION)

    def test_oracle_reads_the_involved_blocks_only(self, monkeypatch):
        # each separating value is taken over the action's involved blocks
        calls = []

        def oracle(prior, action, subset=None):
            calls.append((action.id, subset))
            return augmented_mi_analytic(prior, action, subset)

        monkeypatch.setattr(scenario_module, "augmented_mi_analytic", oracle)
        scenario = generate_scenario(100, 4, seed=9)
        # the last four calls separated the actions the scenario holds
        assert calls[-4:] == [
            (a.id, determine_involved(scenario.layout, a).blocks) for a in scenario.actions
        ]

    def test_one_action_calls_no_oracle(self, monkeypatch):
        def oracle(prior, action, subset=None):
            raise AssertionError("one action has nothing to be separated from")

        monkeypatch.setattr(scenario_module, "augmented_mi_analytic", oracle)
        assert [a.id for a in generate_scenario(30, 1, seed=3).actions] == ["a1"]

    def test_inseparable_values_raise(self, monkeypatch):
        # every attempt's values tie, so no noise-scale jiggle separates them
        def oracle(prior, action, subset=None):
            return replace(augmented_mi_analytic(prior, action, subset), value=1.0)

        monkeypatch.setattr(scenario_module, "augmented_mi_analytic", oracle)
        with pytest.raises(ScenarioError, match="could not separate"):
            generate_scenario(30, 2, seed=3)

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ScenarioError, match="target_dim"):
            generate_scenario(4, 1, seed=0)

    def test_rejects_too_many_actions(self):
        with pytest.raises(ScenarioError, match="landmarks"):
            generate_scenario(10, 40, seed=0)

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"n_actions": 0}, "n_actions must be >= 1, got 0"),
            ({"correlation_strength": 1.0}, "correlation_strength must lie in [0, 1), got 1.0"),
            ({"correlation_strength": -0.1}, "correlation_strength must lie in [0, 1), got -0.1"),
        ],
        ids=["no-actions", "correlation-one", "correlation-negative"],
    )
    def test_rejects_bad_parameters(self, kwargs, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            generate_scenario(**{"target_dim": 20, "n_actions": 2, "seed": 0, **kwargs})

    def test_determinism(self, tmp_path):
        a = _saved_text(generate_scenario(80, 3, seed=123), tmp_path / "a.json")
        b = _saved_text(generate_scenario(80, 3, seed=123), tmp_path / "b.json")
        assert a == b
        c = _saved_text(generate_scenario(80, 3, seed=124), tmp_path / "c.json")
        assert a != c


class TestSerialization:
    def test_round_trip_value_exact(self, tmp_path):
        scenario = generate_scenario(40, 2, seed=5)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        np.testing.assert_array_equal(loaded.prior.mean, scenario.prior.mean)
        np.testing.assert_array_equal(loaded.prior.covariance, scenario.prior.covariance)
        assert loaded.layout == scenario.layout
        assert loaded.seed == scenario.seed
        for original, restored in zip(scenario.actions, loaded.actions):
            assert restored.id == original.id
            assert restored.new_ids == original.new_ids
            for m0, m1 in zip(original.transitions, restored.transitions):
                np.testing.assert_array_equal(m0.matrix, m1.matrix)
                np.testing.assert_array_equal(m0.noise_cov, m1.noise_cov)
            for (s0, m0), (s1, m1) in zip(original.observations, restored.observations):
                assert s0 == s1
                np.testing.assert_array_equal(m0.matrix, m1.matrix)

    def test_round_trip_preserves_json_bytes(self, tmp_path):
        scenario = generate_scenario(24, 1, seed=6)
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        reloaded = load_scenario(path)
        assert _saved_text(reloaded, tmp_path / "again.json") == path.read_text(encoding="utf-8")

    def test_a_document_with_the_old_sensing_range_line_reserializes_without_it(self, tmp_path):
        new_text = _saved_text(generate_scenario(16, 2, seed=7), tmp_path / "new.json")
        # the earlier format: the same keys, with "sensing_range" before "seed"
        old_text = new_text.replace('  "seed": 7\n', '  "sensing_range": 25.0,\n  "seed": 7\n')
        assert old_text.count("\n") == new_text.count("\n") + 1
        path = tmp_path / "old.json"
        path.write_text(old_text, encoding="utf-8")
        assert _saved_text(load_scenario(path), tmp_path / "again.json") == new_text

    @pytest.mark.parametrize("seed", ["abc", 3.7, True, None, [3]])
    def test_non_integer_seed_is_malformed(self, tmp_path, seed):
        # int() would read 3.7 as 3 and True as 1, and fail on "abc" outside the check
        doc = scenario_document(generate_scenario(16, 1, seed=7), tmp_path / "s.json")
        doc["seed"] = seed
        message = f"malformed scenario document: seed must be an integer, got {seed!r}"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            _load_document(doc, tmp_path / "doc.json")

    def test_seed_below_the_missing_seed_sentinel_is_malformed(self, tmp_path):
        doc = scenario_document(generate_scenario(16, 1, seed=7), tmp_path / "s.json")
        doc["seed"] = -2
        message = "malformed scenario document: seed must be >= -1, got -2"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            _load_document(doc, tmp_path / "doc.json")

    def test_missing_seed_reads_minus_one(self, tmp_path):
        doc = scenario_document(generate_scenario(16, 1, seed=7), tmp_path / "s.json")
        del doc["seed"]
        assert _load_document(doc, tmp_path / "doc.json").seed == -1

    @pytest.mark.parametrize(
        ("part", "old", "new", "message"),
        [
            ((), "seed", "sed", "document: unknown key 'sed'"),
            (("blocks", 0), None, "offset", "blocks[0]: unknown key 'offset'"),
            (("prior",), None, "extra", "prior: unknown key 'extra'"),
            (("actions", 0), "observations", "observation",
             "actions[0]: unknown key 'observation'"),
            (("actions", 0, "transitions", 0), "noise_cov", "noise",
             "action a1 transition: unknown key 'noise'"),
            (("actions", 0, "observations", 0), None, "weight",
             "action a1 observation: unknown key 'weight'"),
            (("actions", 0, "transitions", 0), None, "step",
             "action a1 transition: unknown key 'step'"),
        ],
        ids=["seed", "block", "prior", "observations", "transition", "observation",
             "transition-step"],
    )
    def test_an_unknown_key_is_named_where_it_sits(self, tmp_path, part, old, new, message):
        # read as a default, a misspelt "observations" loaded a blind action
        # and a misspelt "seed" loaded -1
        doc = scenario_document(generate_scenario(16, 1, seed=7), tmp_path / "s.json")
        target = doc
        for step in part:
            target = target[step]
        target[new] = target.pop(old) if old else 0
        with pytest.raises(ScenarioError, match=re.escape(message)):
            _load_document(doc, tmp_path / "doc.json")

    def test_an_action_without_observations_is_malformed(self, tmp_path):
        doc = scenario_document(generate_scenario(16, 1, seed=7), tmp_path / "s.json")
        del doc["actions"][0]["observations"]
        with pytest.raises(ScenarioError, match="malformed scenario document: 'observations'"):
            _load_document(doc, tmp_path / "doc.json")

    def test_an_action_with_an_empty_observation_list_is_rejected(self, tmp_path):
        # no estimator can score it: the oracle's value would be the negative
        # entropy of the move's noise alone
        doc = scenario_document(generate_scenario(16, 2, seed=7), tmp_path / "s.json")
        doc["actions"][1]["observations"] = []
        message = "actions[1]: action 'a2' has no observations"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            _load_document(doc, tmp_path / "doc.json")

    @pytest.mark.parametrize(
        ("observations", "error"),
        [
            (None, "error: malformed scenario document: 'observations'"),
            ([], re.escape("error: actions[0]: action 'a1' has no observations")),
        ],
        ids=["missing", "empty"],
    )
    def test_bench_actions_exits_2_on_an_action_without_observations(
        self, tmp_path, capsys, observations, error
    ):
        # both are rejected as the file loads, before any trial runs
        doc = scenario_document(generate_scenario(16, 2, seed=7), tmp_path / "s.json")
        if observations is None:
            del doc["actions"][0]["observations"]
        else:
            doc["actions"][0]["observations"] = observations
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rows = tmp_path / "rows.csv"
        code = main(["bench", "actions", "--scenario", str(path),
                     "--methods", "analytic,naive-kde,invmi-kde,mismc", "--particles", "40",
                     "--trials", "1", "--seed", "1", "--out", str(rows)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(f"^{error}$", err, re.M), err
        assert "estimator failure" not in err
        assert not rows.exists()

    def test_malformed_document(self, tmp_path):
        with pytest.raises(ScenarioError, match="malformed"):
            _load_document({"blocks": [{"id": "a", "dim": 2}]}, tmp_path / "doc.json")

    def test_non_integer_dim_or_step_is_malformed(self, tmp_path):
        # Truncated, 2.9 would read as dim 2 and 1.5 as step 1, and load.
        scenario = generate_scenario(16, 1, seed=7)
        bad_dim = scenario_document(scenario, tmp_path / "s.json")
        bad_dim["blocks"][0]["dim"] += 0.9
        bad_step = scenario_document(scenario, tmp_path / "s.json")
        bad_step["actions"][0]["observations"][0]["step"] += 0.5
        for doc in (bad_dim, bad_step):
            with pytest.raises(ScenarioError, match="malformed.*integer"):
                _load_document(doc, tmp_path / "doc.json")

    @pytest.mark.parametrize(
        ("field", "values", "message"),
        [
            ("noise_cov", [1.0, 0.0, 1.0], "noise_cov length 3 is not square"),
            ("matrix", [1.0, 0.0, 1.0], "matrix length 3 does not divide"),
            ("noise_cov", [], "matrix length 4 does not divide"),
        ],
        ids=["noise-not-square", "matrix-length", "no-noise"],
    )
    def test_rejects_model_arrays_that_do_not_fit(self, tmp_path, field, values, message):
        doc = scenario_document(generate_scenario(16, 1, seed=7), tmp_path / "s.json")
        doc["actions"][0]["transitions"][0][field] = values
        with pytest.raises(ScenarioError, match=f"action a1 transition: {message}"):
            _load_document(doc, tmp_path / "doc.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot load"):
            load_scenario(tmp_path / "absent.json")

    def test_loaded_actions_are_usable(self, tmp_path):
        scenario = generate_scenario(36, 2, seed=8)
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        for action in loaded.actions:
            value = augmented_mi_analytic(loaded.prior, action).value
            assert np.isfinite(value)

    def test_unknown_action_lookup(self):
        scenario = generate_scenario(16, 1, seed=2)
        with pytest.raises(ScenarioError, match="no action"):
            scenario.action("zz")

    def test_layout_is_the_priors(self):
        scenario = generate_scenario(16, 1, seed=2)
        assert scenario.layout is scenario.prior.layout
        with pytest.raises(AttributeError):
            scenario.layout = scenario.prior.layout


class TestActionIds:
    """``SlamScenario.action`` returns the first match, so a repeated id
    would hide every later action with it."""

    MESSAGE = "scenario has two actions with id 'a1'"

    def test_a_loaded_document_with_a_repeated_id_is_rejected(self, tmp_path):
        doc = scenario_document(generate_scenario(16, 2, seed=7), tmp_path / "s.json")
        doc["actions"][1]["id"] = "a1"
        with pytest.raises(ScenarioError, match=re.escape(self.MESSAGE)):
            _load_document(doc, tmp_path / "doc.json")

    def test_a_built_scenario_with_a_repeated_id_is_rejected(self):
        scenario = generate_scenario(16, 2, seed=7)
        a1, a2 = scenario.actions
        with pytest.raises(ScenarioError, match=re.escape(self.MESSAGE)):
            replace(scenario, actions=(a1, replace(a2, id="a1")))


def _with_new_ids(action: Action, tag: str) -> Action:
    """``action`` with its new blocks renamed ``<tag>:x<k>``, and every
    model input that reads them."""
    names = {old: f"{tag}:x{k}" for k, old in enumerate(action.new_ids, 1)}

    def rename(model):
        return replace(model, inputs=tuple(names.get(i, i) for i in model.inputs))

    return Action(
        id=action.id,
        transitions=tuple(map(rename, action.transitions)),
        observations=tuple((step, rename(m)) for step, m in action.observations),
        new_ids=tuple(names.values()),
    )


def _assert_round_trips_exactly(scenario, path):
    """Save and load ``scenario``: every array is equal bit for bit, every
    id and step is equal, and re-serializing gives the same text."""
    save_scenario(scenario, path)
    loaded = load_scenario(path)

    def exact(array):
        return array.shape, array.tobytes()

    def steps(action):
        return [(0, m) for m in action.transitions] + list(action.observations)

    assert loaded.layout == scenario.layout
    assert exact(loaded.prior.mean) == exact(scenario.prior.mean)
    assert exact(loaded.prior.covariance) == exact(scenario.prior.covariance)
    assert loaded.seed == scenario.seed
    assert len(loaded.actions) == len(scenario.actions)
    for original, restored in zip(scenario.actions, loaded.actions):
        assert (restored.id, restored.new_ids) == (original.id, original.new_ids)
        assert len(steps(restored)) == len(steps(original))
        for (s0, m0), (s1, m1) in zip(steps(original), steps(restored)):
            assert (s1, m1.inputs, m1.output_dim) == (s0, m0.inputs, m0.output_dim)
            assert exact(m1.matrix) == exact(m0.matrix)
            assert exact(m1.noise_cov) == exact(m0.noise_cov)
    assert _saved_text(loaded, path.with_name("again.json")) == path.read_text(encoding="utf-8")


class TestRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(6, 60),
        n_actions=st.integers(1, 4),
        correlation=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generated_scenarios(self, tmp_path_factory, dim, n_actions, correlation, seed):
        try:
            scenario = generate_scenario(dim, n_actions, correlation, seed)
        except ScenarioError:
            reject()  # too few landmarks for the actions, or no separable noise scales
        _assert_round_trips_exactly(scenario, tmp_path_factory.mktemp("rt") / "s.json")

    def test_multi_step_actions(self, tmp_path):
        base = generate_scenario(40, 3, seed=5)
        a1, a2, a3 = base.actions
        chains = [
            compose_actions([_with_new_ids(a, f"s{k}") for k, a in enumerate(steps, 1)])
            for steps in ((a1, a2), (a3, a1, a2), (a2, a2))
        ]
        scenario = replace(base, actions=tuple(chains))
        assert [len(a.transitions) for a in scenario.actions] == [2, 3, 2]
        _assert_round_trips_exactly(scenario, tmp_path / "s.json")
