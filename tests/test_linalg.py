import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from augmi import (
    REWARD_CONSECUTIVE_MI,
    REWARD_INVOLVED_IG,
    Action,
    AnalyticMiBackend,
    GaussianDensity,
    LinearGaussianModel,
    SampleBudget,
    ScenarioError,
    SmcMiBackend,
    StateLayout,
    augmented_mi_analytic,
    condition_gaussian,
    generate_scenario,
    invmi,
    load_scenario,
    sample_particles,
    solve,
)
from augmi.analytic import entropy_from_cov
from augmi.cli import main
from augmi.involved import CalculatorError
from augmi.linalg import NotPositiveDefiniteError, cholesky_psd, conditional_parts
from augmi.mi import MiEstimate
from augmi.planner import PlannerError
from conftest import gaussian_entropy_ref, scenario_document


class TestJitterPolicy:
    def test_borderline_matrix_raises(self):
        # eigenvalues {1, 0.5, 0.2, -1e-13}: no jitter makes it factor
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        matrix = q @ np.diag([1.0, 0.5, 0.2, -1e-13]) @ q.T
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_psd(matrix)

    def test_indefinite_matrix_raises(self):
        matrix = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_psd(matrix)

    def test_log_det_matches_slogdet(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((6, 8))
        density = GaussianDensity(
            layout=StateLayout.from_dims([("s", 6)]), mean=np.zeros(6),
            covariance=w @ w.T + np.eye(6),
        )
        assert entropy_from_cov(density.covariance) == pytest.approx(
            gaussian_entropy_ref(density), abs=1e-10
        )

    def test_conditioning_on_nothing_is_identity(self):
        # a 0 x 0 conditioning block factors without a special case
        cov = np.array([[2.0, 0.6], [0.6, 0.5]])
        density = GaussianDensity(
            layout=StateLayout.from_dims([("a", 1), ("b", 1)]), mean=[1.0, 2.0], covariance=cov
        )
        conditional = condition_gaussian(density, [], np.zeros(0))
        assert np.array_equal(conditional.mean, density.mean)
        assert np.array_equal(conditional.covariance, cov)

    @settings(max_examples=100, deadline=None)
    @given(
        eigenvalues=st.lists(
            st.one_of(
                st.floats(-1.0, 0.0),
                st.floats(-14.0, 6.0).map(lambda e: 10.0**e),
            ),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factors_to_tolerance_or_raises(self, eigenvalues, seed):
        # Higham's backward error for Cholesky: |L L' - M| <= d (d + 1) eps |M|
        d = len(eigenvalues)
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
        matrix = q @ np.diag(eigenvalues) @ q.T
        matrix = 0.5 * (matrix + matrix.T)
        try:
            factor = cholesky_psd(matrix)
        except NotPositiveDefiniteError:
            return
        assert np.isfinite(factor).all()
        assert np.array_equal(factor, np.tril(factor))
        residual = np.linalg.norm(factor @ factor.T - matrix, 2)
        assert residual <= d * (d + 1) * np.finfo(float).eps * np.linalg.norm(matrix, 2)


class TestSolvePsd:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((5, 7))
        matrix = w @ w.T + 0.5 * np.eye(5)
        cross = rng.standard_normal((3, 5))
        cov = np.block([[np.eye(3) + cross @ cross.T, cross @ matrix], [matrix @ cross.T, matrix]])
        gain, _schur = conditional_parts(cov, np.arange(3), np.arange(3, 8))
        np.testing.assert_allclose(
            gain, np.linalg.solve(matrix, cov[3:, :3]).T, atol=1e-10
        )

    def test_singular_conditioning_block_raises(self):
        # the rank-deficient block [[1, 1], [1, 1]] as the conditioning target
        cov = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            conditional_parts(cov, np.array([0]), np.array([1, 2]))

    @settings(max_examples=100, deadline=None)
    @given(
        keep_dim=st.integers(1, 4),
        given_dim=st.integers(1, 6),
        log_scale=st.floats(-12.0, 6.0),
        log_spread=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gain_matches_cho_solve_to_rounding(
        self, keep_dim, given_dim, log_scale, log_spread, seed
    ):
        # A random SPD joint whose eigenvalues span `log_spread` decades, the
        # given block drawn from its coordinates in random order.  At one
        # given dim the two gains differ by at most five roundings (2.5 eps);
        # above it each solve is within about cond(S_gg) eps of the exact row.
        rng = np.random.default_rng(seed)
        dim = keep_dim + given_dim
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigenvalues = 10.0 ** (log_scale + log_spread * rng.uniform(0.0, 1.0, dim))
        cov = q @ np.diag(eigenvalues) @ q.T
        cov = 0.5 * (cov + cov.T)
        order = rng.permutation(dim)
        keep_idx, given_idx = order[:keep_dim], order[keep_dim:]
        gain, _schur = conditional_parts(cov, keep_idx, given_idx)
        cov_gg = cov[np.ix_(given_idx, given_idx)]
        reference = scipy.linalg.cho_solve(
            (np.linalg.cholesky(cov_gg), True), cov[np.ix_(keep_idx, given_idx)].T
        ).T
        error = np.abs(gain - reference).max(axis=1)
        bound = 4.0 * np.linalg.cond(cov_gg) * np.finfo(float).eps
        assert np.all(error <= bound * np.abs(reference).max(axis=1))

    @pytest.mark.parametrize(
        "given_block",
        [np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), np.array([[1.0, 2.0], [2.0, 1.0]])],
        ids=["negative", "zero", "indefinite"],
    )
    def test_given_block_not_positive_definite_raises(self, given_block):
        cov = np.eye(3)
        cov[1:, 1:] = given_block
        cov[0, 1:] = cov[1:, 0] = 0.1
        with pytest.raises(NotPositiveDefiniteError):
            conditional_parts(cov, np.array([0]), np.array([1, 2]))

    def test_conditional_parts_hand_check(self):
        cov = np.array([[2.0, 0.6], [0.6, 0.5]])
        gain, schur = conditional_parts(cov, np.array([0]), np.array([1]))
        assert gain[0, 0] == pytest.approx(0.6 / 0.5, abs=1e-12)
        assert schur[0, 0] == pytest.approx(2.0 - 0.6**2 / 0.5, abs=1e-12)


# The 1-D reduction of the instance below at eps = 0: x ~ N(0, 1), new = 2x + w,
# z = new + v, so MI = 0.5 log 6 - 0.5 log(2 pi e).
SINGULAR_LIMIT_MI = -0.5230587985906443


def near_singular_instance(eps: float) -> tuple[GaussianDensity, Action]:
    """x and y with covariance [[1, 1], [1, 1 + eps]]; new = x + y + w and
    z = new + v, with unit noises."""
    prior = GaussianDensity(
        layout=StateLayout.from_dims([("x", 1), ("y", 1)]),
        mean=[0.0, 0.0],
        covariance=[[1.0, 1.0], [1.0, 1.0 + eps]],
    )
    transition = LinearGaussianModel(
        inputs=("x", "y"), output_dim=1, matrix=[[1.0, 1.0]], noise_cov=[[1.0]]
    )
    observation = LinearGaussianModel(
        inputs=("a:x1",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
    )
    return prior, Action(id="a", transitions=(transition,), observations=((1, observation),))


SINGULAR_EPS = [0.0, 1e-17, 1e-16]


class TestSingularInputs:
    """A singular covariance or noise raises; it never comes back as a number."""

    @pytest.mark.parametrize("eps", SINGULAR_EPS)
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda prior, action: augmented_mi_analytic(prior, action),
            lambda prior, action: sample_particles(prior, 10, 0),
        ],
        ids=["augmented", "sample_particles"],
    )
    def test_singular_prior_raises(self, eps, evaluate):
        with pytest.raises(NotPositiveDefiniteError):
            evaluate(*near_singular_instance(eps))

    @pytest.mark.parametrize("eps", SINGULAR_EPS)
    @pytest.mark.parametrize(
        "calc",
        [AnalyticMiBackend(), SmcMiBackend(SampleBudget(n1=20))],
        ids=["analytic", "mismc"],
    )
    def test_invmi_raises_with_cause(self, eps, calc):
        with pytest.raises(CalculatorError) as info:
            invmi(*near_singular_instance(eps), calc, 0)
        assert isinstance(info.value.__cause__, NotPositiveDefiniteError)

    @pytest.mark.parametrize("eps", SINGULAR_EPS)
    @pytest.mark.parametrize("reward_mode", [REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI])
    @pytest.mark.parametrize(
        "backend", [AnalyticMiBackend(), SmcMiBackend(SampleBudget(n1=20))],
        ids=["analytic", "smc"],
    )
    def test_planner_raises_with_cause(self, eps, reward_mode, backend):
        prior, action = near_singular_instance(eps)
        with pytest.raises(PlannerError) as info:
            solve(prior, [[action]], 1, reward_mode, backend)
        assert isinstance(info.value.__cause__, NotPositiveDefiniteError)

    @pytest.mark.parametrize("eps", [3e-16, 5e-16, 1e-15, 1e-14, 1e-12])
    def test_superposition_reaches_the_limit(self, eps):
        # The oracle's superposition form reads only H[Z] from the joint; the
        # direct form H[X] - H[X, new | Z] cancels here, 0.20 nats off at 3e-16.
        value = augmented_mi_analytic(*near_singular_instance(eps)).value
        assert value == pytest.approx(SINGULAR_LIMIT_MI, abs=1e-9)

    def test_singular_noise_model_raises_at_construction(self):
        with pytest.raises(NotPositiveDefiniteError):
            LinearGaussianModel(
                inputs=("x",), output_dim=2, matrix=[[1.0], [1.0]],
                noise_cov=[[1.0, 0.0], [0.0, 0.0]],
            )

    @pytest.fixture
    def singular_noise_scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        doc = scenario_document(generate_scenario(12, 1, seed=3), path)
        doc["actions"][0]["observations"][0]["noise_cov"] = [1.0, 0.0, 0.0, 0.0]
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_singular_noise_scenario_is_rejected(self, singular_noise_scenario):
        with pytest.raises(ScenarioError, match="not positive definite"):
            load_scenario(singular_noise_scenario)

    def test_cli_exits_2_on_singular_noise(self, singular_noise_scenario, capsys):
        code = main(["mi", "eval", "--scenario", str(singular_noise_scenario),
                     "--action", "a1", "--method", "analytic", "--seed", "1"])
        assert code == 2
        assert "not positive definite" in capsys.readouterr().err


class TestMiEstimateRecord:
    def test_rejects_nonfinite_value(self):
        with pytest.raises(ValueError, match="finite"):
            MiEstimate(value=float("inf"), method="mismc", elapsed=0.0)

    def test_rejects_negative_elapsed(self):
        with pytest.raises(ValueError, match="elapsed"):
            MiEstimate(value=0.0, method="mismc", elapsed=-1.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            MiEstimate(value=0.0, method="oracle", elapsed=0.0)
