"""Shared fixtures: the 1D chain instance and randomized problem generators."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterable

# One BLAS thread, as CI and the benchmark run: the timed acceptance criteria
# compare wall times, and BLAS threads competing for two cores skew them.
# Set before numpy is first imported, which is when BLAS reads them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from augmi import (
    Action,
    GaussianDensity,
    LinearGaussianModel,
    StateLayout,
    joint_state_observation,
    observation_block_ids,
    save_scenario,
)
from augmi.analytic import entropy_from_cov
from augmi.state import _squared_distances

# Hand Schur-complement oracle for the 1D chain (prior N(0,1), new = x + w
# with unit noise, observation = new + v with unit noise): posterior
# covariance of (x, new) given z is [[2/3, 1/3], [1/3, 2/3]] with det 1/3,
# so MI = 0.5*ln(3) - 0.5*ln(2*pi*e).  Frozen:
CHAIN_MI = -0.8696323888706178

STD_NORMAL_LOGPDF_MODE = -0.9189385332046727  # -0.5*ln(2*pi)
GAUSS_ENTROPY_1D = 1.4189385332046727  # 0.5*ln(2*pi*e)


def gaussian_entropy_ref(density: GaussianDensity) -> float:
    """Reference entropy of a Gaussian belief in nats, from numpy's slogdet."""
    return _entropy_ref(density.covariance)


def _entropy_ref(cov: np.ndarray) -> float:
    sign, log_det = np.linalg.slogdet(cov)
    assert sign > 0
    return 0.5 * (cov.shape[0] * (math.log(2.0 * math.pi) + 1.0) + log_det)


def direct_mi_ref(prior: GaussianDensity, action: Action) -> float:
    """Reference augmented MI in the direct form H[X] - H[X, new | Z]: the
    prior entropy minus the entropy of the Schur complement of the joint's
    observation block, from numpy's solve and slogdet.  The oracle takes the
    superposition form instead, so the two are computed independently."""
    joint = joint_state_observation(prior, action)
    obs = joint.layout.indices(observation_block_ids(action))
    state = np.setdiff1d(np.arange(joint.dim), obs)
    cov = joint.covariance
    cross = cov[np.ix_(state, obs)]
    schur = cov[np.ix_(state, state)] - cross @ np.linalg.solve(cov[np.ix_(obs, obs)], cross.T)
    return gaussian_entropy_ref(prior) - _entropy_ref(schur)


def mi_analytic(
    joint: GaussianDensity, part_a: Iterable[str], part_b: Iterable[str]
) -> float:
    """Mutual information between two disjoint block sets of a joint Gaussian.

    Computed as H[A] + H[B] - H[A, B].
    """
    part_a, part_b = set(part_a), set(part_b)
    if not part_a or not part_b:
        raise ValueError("both parts must be non-empty")
    if part_a & part_b:
        raise ValueError(f"parts overlap on {sorted(part_a & part_b)}")
    cov = joint.covariance
    idx = joint.layout.indices
    h_a = entropy_from_cov(cov[np.ix_(idx(part_a), idx(part_a))])
    h_b = entropy_from_cov(cov[np.ix_(idx(part_b), idx(part_b))])
    h_ab = entropy_from_cov(cov[np.ix_(idx(part_a | part_b), idx(part_a | part_b))])
    return h_a + h_b - h_ab


def log_density_ref(model: LinearGaussianModel, inputs, output) -> float:
    """Reference log N(output; matrix @ inputs, noise_cov), from scipy.stats."""
    mean = model.matrix @ np.asarray(inputs, dtype=float)
    return float(multivariate_normal.logpdf(output, mean, model.noise_cov))


def models_log_density_ref(models, states: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise summed log density of the outputs ``out`` of a
    SequentialTransition's or SequentialObservation's models, given the
    augmented ``states`` rows: each model's residual whitened by its noise
    factor."""
    means = np.empty_like(out)
    for cols, part, matrix_t, _chol_t, _inverse_t in models._models:
        means[:, part] = states[:, cols] @ matrix_t
    white = models._whiten(out - means)
    return -0.5 * np.einsum("ij,ij->i", white, white) - models._log_norm


def transition_log_density_ref(transition, states: np.ndarray) -> np.ndarray:
    """Log density of each augmented row's new blocks given its belief state."""
    return models_log_density_ref(transition, states, states[:, transition.layout.total_dim :])


def observation_log_density_ref(observation, states: np.ndarray, z) -> np.ndarray:
    """Log density of each row of ``z`` given the matching augmented state."""
    return models_log_density_ref(observation, states, np.atleast_2d(np.asarray(z, dtype=float)))


def grid_log_density_ref(evaluator, z: np.ndarray) -> np.ndarray:
    """Pairwise log densities of an ObservationGridEvaluator: entry ``[m, l]``
    is log F_Z(z[m] | batch[l]), the dense grid the kernel sum is checked
    against."""
    observation = evaluator._seq_obs
    sq = _squared_distances(observation._whiten(z), evaluator._centers)
    return -0.5 * sq - observation._log_norm


def log_kernel_sum_ref(queries, centers, weights) -> np.ndarray:
    """``log sum_l w_l exp(-|q_m - c_l|^2 / 2)`` per query row (m x d against
    n x d), a max-shifted log-sum-exp in extended precision
    (``np.longdouble``), whose rounding stays far below the 1e-13 a certified
    kernel-sum row promises."""
    centers = np.asarray(centers, dtype=np.longdouble)
    log_w = np.log(np.asarray(weights, dtype=np.longdouble))
    out = np.empty(len(queries), dtype=np.longdouble)
    for m, query in enumerate(np.asarray(queries, dtype=np.longdouble)):
        terms = log_w - 0.5 * ((query - centers) ** 2).sum(axis=1)
        peak = terms.max()
        out[m] = peak + np.log(np.exp(terms - peak).sum())
    return out


def _philox_stream_normals(key, rows: int, width: int) -> np.ndarray:
    """``rows`` rows of ``width`` standard normals read in order from the
    Philox stream keyed by ``key``, one row at a time: row ``i`` is particle
    ``i``'s noise."""
    stream = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    return np.array([stream.standard_normal(width) for _ in range(rows)])


def smc_estimate_ref(prior: GaussianDensity, action: Action, n1: int, seed: int) -> float:
    """One seeded ``SmcMiBackend(SampleBudget(n1))`` estimate from a Gaussian
    prior, written out plainly: the prior draws, each particle's noise the
    next row of its pass's Philox stream, each model propagated on its own,
    the normalizer's means stored and then whitened model by model, and the
    kernel sum by ``state._log_kernel_sum``."""
    from augmi.state import _log_kernel_sum

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n1, prior.dim)) @ np.linalg.cholesky(prior.covariance).T
    x += prior.mean
    weights = np.full(n1, 1.0 / n1)
    root = [int(v) for v in rng.integers(0, 2**63, size=4)]

    layout = prior.layout.concat(zip(action.new_ids, action.new_dims))
    models = list(action.transitions) + [model for _step, model in action.observations]
    columns = [np.concatenate([layout.indices([b]) for b in m.inputs]) for m in models]
    transitions = list(zip(action.transitions, columns))
    observations = list(zip(models[len(transitions) :], columns[len(transitions) :]))
    new_dim, obs_dim = action.new_dim_total, action.obs_dim_total

    def propagate(noise):
        states = np.empty((n1, prior.dim + new_dim))
        states[:, : prior.dim] = x
        cursor = 0
        for model, cols in transitions:
            part = slice(cursor, cursor + model.output_dim)
            new = slice(prior.dim + part.start, prior.dim + part.stop)
            states[:, new] = states[:, cols] @ model.matrix.T + noise[:, part] @ model.noise_chol.T
            cursor = part.stop
        return states

    def per_observation(fill):
        out, cursor = np.empty((n1, obs_dim)), 0
        for model, cols in observations:
            part = slice(cursor, cursor + model.output_dim)
            out[:, part] = fill(model, cols, part)
            cursor += model.output_dim
        return out

    def whiten(y):
        return per_observation(lambda m, _cols, part: y[:, part] @ np.linalg.inv(m.noise_chol).T)

    # the normalizer pass: the prior's own particles, with the stream root[2:]
    noise = _philox_stream_normals(root[2:], n1, new_dim)
    states = propagate(noise)
    centers = whiten(per_observation(lambda m, cols, _part: states[:, cols] @ m.matrix.T))

    # the outer particles, with the stream root[:2]
    noise = _philox_stream_normals(root[:2], n1, new_dim + obs_dim)
    states = propagate(noise[:, :new_dim])
    obs_noise = noise[:, new_dim:]
    z = per_observation(
        lambda m, cols, part: states[:, cols] @ m.matrix.T + obs_noise[:, part] @ m.noise_chol.T
    )
    log_norm = sum(
        0.5 * m.output_dim * math.log(2.0 * math.pi)
        + float(np.sum(np.log(np.diag(m.noise_chol))))
        for m, _cols in observations
    )
    log_eta = _log_kernel_sum(whiten(z), centers, weights, log_norm)
    noise_entropy = sum(
        0.5 * m.output_dim * math.log(2.0 * math.pi)
        + float(np.sum(np.log(np.diag(m.noise_chol))))
        + 0.5 * m.output_dim
        for m in models
    )
    return -noise_entropy - float(weights @ log_eta)


def make_chain_1d(q: float = 1.0, r: float = 1.0) -> tuple[GaussianDensity, Action]:
    layout = StateLayout.from_dims([("x", 1)])
    prior = GaussianDensity(layout=layout, mean=[0.0], covariance=[[1.0]])
    transition = LinearGaussianModel(
        inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[q]]
    )
    observation = LinearGaussianModel(
        inputs=("a:x1",), output_dim=1, matrix=[[1.0]], noise_cov=[[r]]
    )
    action = Action(id="a", transitions=(transition,), observations=((1, observation),))
    return prior, action


@pytest.fixture
def chain():
    return make_chain_1d()


def random_spd(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    w = rng.standard_normal((dim, dim + 2))
    return scale * (w @ w.T / (dim + 2) + 0.3 * np.eye(dim))


def random_layout(rng: np.random.Generator, total_dim: int) -> StateLayout:
    dims = []
    remaining = total_dim
    while remaining > 0:
        d = int(rng.integers(1, min(3, remaining) + 1))
        dims.append(d)
        remaining -= d
    return StateLayout.from_dims((f"b{i}", d) for i, d in enumerate(dims))


def random_instance(
    rng: np.random.Generator,
    total_dim: int | None = None,
    involved_dim: int | None = None,
    two_steps: bool | None = None,
):
    """A randomized linear-Gaussian problem with a dense-correlation prior.

    Returns (prior, action, involved block-id set); the involved set is the
    exact footprint by construction (every chosen block appears in some
    model input).
    """
    if total_dim is None:
        total_dim = int(rng.integers(10, 151))
    if involved_dim is None:
        involved_dim = int(rng.integers(2, 7))
    layout = random_layout(rng, total_dim)

    # Dense correlations so discarding uninvolved blocks is a real test.
    cov = random_spd(rng, total_dim)
    prior = GaussianDensity(
        layout=layout, mean=rng.standard_normal(total_dim), covariance=cov
    )

    blocks = list(layout.blocks)
    rng.shuffle(blocks)
    involved = []
    used_dim = 0
    for block in blocks:
        if used_dim >= involved_dim:
            break
        involved.append(block)
        used_dim += block.dim
    involved_ids = [b.id for b in involved]

    if two_steps is None:
        two_steps = bool(rng.integers(0, 2))
    split = max(1, int(rng.integers(1, len(involved_ids) + 1)))
    trans_inputs = tuple(involved_ids[:split])
    obs_extra = tuple(involved_ids[split:])

    def model(input_ids: tuple[str, ...], input_dim: int, out_dim: int):
        return LinearGaussianModel(
            inputs=input_ids,
            output_dim=out_dim,
            matrix=rng.standard_normal((out_dim, input_dim)),
            noise_cov=random_spd(rng, out_dim, scale=float(rng.uniform(0.3, 1.2))),
        )

    def dims_of(ids, extra=0):
        return sum(layout.block(i).dim for i in ids if i in layout) + extra

    new1 = int(rng.integers(1, 3))
    transitions = [model(trans_inputs, dims_of(trans_inputs), new1)]
    new_ids = ["n:x1"]
    new_dims = {"n:x1": new1}
    if two_steps:
        step2_inputs = ("n:x1",) + trans_inputs[:1]
        new2 = int(rng.integers(1, 3))
        transitions.append(model(step2_inputs, new1 + dims_of(trans_inputs[:1]), new2))
        new_ids.append("n:x2")
        new_dims["n:x2"] = new2

    last_new = new_ids[-1]
    obs_inputs = (last_new,) + obs_extra
    obs_dim = int(rng.integers(1, 3))
    observations = [
        (
            len(transitions),
            model(obs_inputs, new_dims[last_new] + dims_of(obs_extra), obs_dim),
        )
    ]
    if rng.integers(0, 2):
        extra_inputs = (new_ids[0],) + trans_inputs[-1:]
        observations.append(
            (
                1,
                model(
                    extra_inputs,
                    new_dims[new_ids[0]] + dims_of(trans_inputs[-1:]),
                    int(rng.integers(1, 3)),
                ),
            )
        )

    action = Action(
        id="n",
        transitions=tuple(transitions),
        observations=tuple(observations),
        new_ids=tuple(new_ids),
    )
    action.validate_against(layout)
    return prior, action, set(involved_ids)


def random_plan_instance(rng: np.random.Generator, horizon: int = 2):
    """Small randomized planning instance: per-step candidate action lists.

    Step t actions all create the block ``x<t>`` (dim 1); transitions chain
    from the previous new block (the prior block 'b0' at step 1) and each
    action observes a different prior block with its own noise level.
    """
    total_dim = int(rng.integers(6, 31))
    layout = random_layout(rng, total_dim)
    prior = GaussianDensity(
        layout=layout,
        mean=rng.standard_normal(total_dim),
        covariance=random_spd(rng, total_dim),
    )
    block_ids = list(layout.ids)
    steps = []
    for t in range(1, horizon + 1):
        n_actions = int(rng.integers(2, 4))
        prev = "b0" if t == 1 else f"x{t-1}"
        prev_dim = layout.block("b0").dim if t == 1 else 1
        actions = []
        for k in range(n_actions):
            target = block_ids[int(rng.integers(0, len(block_ids)))]
            target_dim = layout.block(target).dim
            transition = LinearGaussianModel(
                inputs=(prev,),
                output_dim=1,
                matrix=rng.standard_normal((1, prev_dim)),
                noise_cov=[[float(rng.uniform(0.05, 0.5))]],
            )
            observation = LinearGaussianModel(
                inputs=(f"x{t}", target),
                output_dim=1,
                matrix=rng.standard_normal((1, 1 + target_dim)),
                noise_cov=[[float(rng.uniform(0.05, 1.0))]],
            )
            actions.append(
                Action(
                    id=f"s{t}{chr(97 + k)}",
                    transitions=(transition,),
                    observations=((1, observation),),
                    new_ids=(f"x{t}",),
                )
            )
        steps.append(actions)
    return prior, steps


def scenario_plan_steps(slam, horizon: int):
    """Per-step candidates from a scenario's own action models, built as the
    plan-h3 benchmark workload builds them: at step t each candidate moves
    from the previous pose (the scenario's newest pose at t = 1) to ``x<t>``
    with its action's transition noise, then observes its action's landmark
    with its action's sensor."""
    steps = []
    for t in range(1, horizon + 1):
        candidates = []
        for action in slam.actions:
            move = action.transitions[0]
            (_step, sensor), = action.observations
            previous = move.inputs[0] if t == 1 else f"x{t - 1}"
            transition = LinearGaussianModel(
                inputs=(previous,),
                output_dim=move.output_dim,
                matrix=move.matrix,
                noise_cov=move.noise_cov,
            )
            observation = LinearGaussianModel(
                inputs=(f"x{t}", sensor.inputs[1]),
                output_dim=sensor.output_dim,
                matrix=sensor.matrix,
                noise_cov=sensor.noise_cov,
            )
            candidates.append(
                Action(
                    id=f"s{t}{action.id}",
                    transitions=(transition,),
                    observations=((1, observation),),
                    new_ids=(f"x{t}",),
                )
            )
        steps.append(candidates)
    return steps


def scenario_document(scenario, path: Path) -> dict:
    """Save ``scenario`` to ``path`` and return the JSON document written
    there, for a test to edit and write back."""
    save_scenario(scenario, path)
    return json.loads(path.read_text(encoding="utf-8"))
