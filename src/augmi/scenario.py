"""Active-SLAM benchmark scenarios and their JSON serialization.

A scenario is a Gaussian prior over a pose chain plus a 2D landmark map,
and a set of candidate actions, each moving to a new pose and observing one
landmark (relative-position sensor).  Poses and landmarks are 2D position
blocks; the involved subset of every action is {current pose, one landmark},
four dimensions, however large the map is.

Generation is fully deterministic from (parameters, seed), and the analytic
MI values of the candidate actions are forced apart (minimum 0.02 nats, by
construction much more) so the ground-truth action ranking is unambiguous.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import augmented_mi_analytic
from .involved import determine_involved
from .state import Action, GaussianDensity, LinearGaussianModel, StateLayout, _check_count

MIN_MI_SEPARATION = 0.02


class ScenarioError(ValueError):
    """Scenario generation or deserialization failed."""


@dataclass(frozen=True)
class SlamScenario:
    """A generated benchmark instance: a prior and its candidate actions,
    each with its own id."""

    prior: GaussianDensity
    actions: tuple[Action, ...]
    seed: int

    def __post_init__(self):
        seen: set[str] = set()
        for a in self.actions:
            if a.id in seen:
                raise ScenarioError(f"scenario has two actions with id {a.id!r}")
            seen.add(a.id)

    @property
    def layout(self) -> StateLayout:
        return self.prior.layout

    def action(self, action_id: str) -> Action:
        for a in self.actions:
            if a.id == action_id:
                return a
        raise ScenarioError(f"scenario has no action {action_id!r}")


def _pose_landmark_counts(target_dim: int) -> tuple[int, int]:
    n_poses = 3 if target_dim >= 30 else 1
    n_landmarks = int(round((target_dim - 2 * n_poses) / 2))
    return n_poses, n_landmarks


def _check_correlation(value: float) -> None:
    """Raise ``ScenarioError`` unless ``value`` is a real number (an ``int``,
    a ``float`` or a numpy number, not a bool or a string) in [0, 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"correlation_strength must be a real number, got {value!r}")
    if not 0.0 <= value < 1.0:
        raise ScenarioError(f"correlation_strength must lie in [0, 1), got {value}")


def generate_scenario(
    target_dim: int,
    n_actions: int,
    correlation_strength: float = 0.3,
    seed: int = 0,
) -> SlamScenario:
    """Deterministic scenario with ``~target_dim`` state dimensions.

    ``correlation_strength`` in [0, 1) mixes a random low-rank correlation
    structure into the prior, so the uninvolved blocks are genuinely
    correlated with the involved ones; 0 gives a block-diagonal prior.
    Actions target the ``n_actions`` landmarks nearest to the newest pose,
    with per-action noise scales chosen to spread the analytic MI values
    apart.
    """
    _check_count("target_dim", target_dim, ScenarioError, least=6)
    _check_count("n_actions", n_actions, ScenarioError)
    _check_count("seed", seed, ScenarioError, least=0)
    _check_correlation(correlation_strength)

    n_poses, n_landmarks = _pose_landmark_counts(target_dim)
    if n_landmarks < n_actions:
        raise ScenarioError(
            f"target_dim {target_dim} leaves only {n_landmarks} landmarks "
            f"for {n_actions} actions"
        )

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pose_ids = [f"p{t}" for t in range(n_poses)]
    landmark_ids = [f"l{j}" for j in range(n_landmarks)]
    layout = StateLayout.from_dims(
        [(pid, 2) for pid in pose_ids] + [(lid, 2) for lid in landmark_ids]
    )
    dim = layout.total_dim

    # Means: pose chain along x, landmarks on a jittered grid around it.
    mean = np.zeros(dim)
    for t, pid in enumerate(pose_ids):
        mean[layout.block(pid).slice] = (2.0 * t, 0.0)
    grid_cols = int(np.ceil(np.sqrt(n_landmarks)))
    for j, lid in enumerate(landmark_ids):
        gx, gy = j % grid_cols, j // grid_cols
        jitter = rng.uniform(-0.8, 0.8, size=2)
        mean[layout.block(lid).slice] = (
            4.0 * gx - 2.0 * grid_cols + jitter[0],
            3.0 * gy - 4.0 + jitter[1],
        )

    # Per-coordinate standard deviations: pose uncertainty grows along the
    # chain, landmark uncertainty varies so actions are not interchangeable.
    std = np.empty(dim)
    for t, pid in enumerate(pose_ids):
        std[layout.block(pid).slice] = 0.25 + 0.08 * t
    for lid in landmark_ids:
        std[layout.block(lid).slice] = rng.uniform(0.6, 1.5)

    corr = np.eye(dim)
    if correlation_strength > 0.0:
        factors = rng.standard_normal((dim, 6))
        raw = factors @ factors.T + 0.5 * np.eye(dim)
        d_inv = 1.0 / np.sqrt(np.diag(raw))
        corr = (1.0 - correlation_strength) * np.eye(dim) + correlation_strength * (
            raw * np.outer(d_inv, d_inv)
        )
    covariance = corr * np.outer(std, std)
    prior = GaussianDensity(layout=layout, mean=mean, covariance=covariance)

    # Candidate targets: the nearest landmarks to the newest pose.
    pose_xy = mean[layout.block(pose_ids[-1]).slice]
    nearest = sorted(
        (float(np.linalg.norm(mean[layout.block(lid).slice] - pose_xy)), lid)
        for lid in landmark_ids
    )
    targets = [lid for _d, lid in nearest[:n_actions]]

    for attempt in range(50):
        actions = _build_actions(pose_ids[-1], targets, rng, attempt)
        # Each value is taken over the action's involved blocks, where it
        # equals the full-state value at a cost that does not grow with the
        # map; one action has nothing to be separated from and needs none.
        values = [
            augmented_mi_analytic(prior, a, determine_involved(layout, a).blocks).value
            for a in actions
        ] if len(actions) > 1 else []
        if np.all(np.diff(np.sort(values)) >= MIN_MI_SEPARATION):
            return SlamScenario(prior=prior, actions=tuple(actions), seed=int(seed))
    raise ScenarioError(
        "could not separate the candidate actions' analytic MI values; "
        "try another seed"
    )


def _build_actions(
    pose_id: str, targets: list[str], rng: np.random.Generator, attempt: int
) -> list[Action]:
    eye = np.eye(2)
    actions = []
    for k, lid in enumerate(targets):
        # Noise scales spread the analytic values; retries jiggle them.
        wobble = 1.0 if attempt == 0 else float(rng.uniform(0.7, 1.4))
        q = 0.02 * (1.0 + 0.5 * k) * wobble
        r = 0.03 * (1.0 + k) ** 2 * wobble
        aid = f"a{k + 1}"
        transition = LinearGaussianModel(
            inputs=(pose_id,), output_dim=2, matrix=eye, noise_cov=q * eye
        )
        observation = LinearGaussianModel(
            inputs=(f"{aid}:x1", lid),
            output_dim=2,
            matrix=np.concatenate([-eye, eye], axis=1),
            noise_cov=r * eye,
        )
        actions.append(
            Action(id=aid, transitions=(transition,), observations=((1, observation),))
        )
    return actions


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _model_to_dict(model: LinearGaussianModel) -> dict:
    return {
        "inputs": list(model.inputs),
        "matrix": [float(v) for v in model.matrix.reshape(-1)],
        "noise_cov": [float(v) for v in model.noise_cov.reshape(-1)],
    }


def _check_keys(doc: dict, where: str, *known: str) -> None:
    """Raise ``ScenarioError`` naming the first key of ``doc`` not in ``known``."""
    for key in doc:
        if key not in known:
            raise ScenarioError(f"{where}: unknown key {key!r}")


def _model_from_dict(doc: dict, where: str, *extra_keys: str) -> LinearGaussianModel:
    _check_keys(doc, where, "inputs", "matrix", "noise_cov", *extra_keys)
    noise = np.asarray(doc["noise_cov"], dtype=float)
    out_dim = int(round(np.sqrt(noise.size)))
    if out_dim * out_dim != noise.size:
        raise ScenarioError(f"{where}: noise_cov length {noise.size} is not square")
    matrix = np.asarray(doc["matrix"], dtype=float)
    if out_dim == 0 or matrix.size % out_dim != 0:
        raise ScenarioError(f"{where}: matrix length {matrix.size} does not divide")
    return LinearGaussianModel(
        inputs=tuple(doc["inputs"]),
        output_dim=out_dim,
        matrix=matrix.reshape(out_dim, matrix.size // out_dim),
        noise_cov=noise.reshape(out_dim, out_dim),
    )


def save_scenario(scenario: SlamScenario, path: str | Path) -> None:
    """Write ``scenario`` as canonical JSON: identical scenarios write
    byte-identical files, and all finite doubles round-trip exactly."""
    doc = {
        "blocks": [{"id": b.id, "dim": b.dim} for b in scenario.layout.blocks],
        "prior": {
            "mean": [float(v) for v in scenario.prior.mean],
            "covariance": [float(v) for v in scenario.prior.covariance.reshape(-1)],
        },
        "actions": [
            {
                "id": a.id,
                "new_ids": list(a.new_ids),
                "transitions": [_model_to_dict(m) for m in a.transitions],
                "observations": [
                    {"step": step, **_model_to_dict(m)} for step, m in a.observations
                ],
            }
            for a in scenario.actions
        ],
        "seed": int(scenario.seed),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_scenario(path: str | Path) -> SlamScenario:
    """The scenario a file holds.  An unknown key raises ``ScenarioError``,
    as does an action whose ``observations`` list is empty; ``sensing_range``,
    which earlier versions wrote, is ignored, and a missing seed reads -1."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot load scenario from {path}: {exc}") from exc
    try:
        _check_keys(doc, "document", "blocks", "prior", "actions", "seed", "sensing_range")
        for i, b in enumerate(doc["blocks"]):
            _check_keys(b, f"blocks[{i}]", "id", "dim")
        layout = StateLayout.from_dims((b["id"], b["dim"]) for b in doc["blocks"])
        dim = layout.total_dim
        _check_keys(doc["prior"], "prior", "mean", "covariance")
        prior = GaussianDensity(
            layout=layout,
            mean=np.asarray(doc["prior"]["mean"], dtype=float),
            covariance=np.asarray(doc["prior"]["covariance"], dtype=float).reshape(dim, dim),
        )
        actions = []
        for i, a_doc in enumerate(doc["actions"]):
            _check_keys(a_doc, f"actions[{i}]", "id", "new_ids", "transitions", "observations")
            if not a_doc["observations"]:
                # no estimator can score it; fail here, before any trial runs
                raise ScenarioError(f"actions[{i}]: action {a_doc['id']!r} has no observations")
            action = Action(
                id=a_doc["id"],
                transitions=tuple(
                    _model_from_dict(m, f"action {a_doc['id']} transition")
                    for m in a_doc["transitions"]
                ),
                observations=tuple(
                    (m["step"], _model_from_dict(m, f"action {a_doc['id']} observation", "step"))
                    for m in a_doc["observations"]
                ),
                new_ids=tuple(a_doc["new_ids"]) if "new_ids" in a_doc else None,
            )
            action.validate_against(layout)
            actions.append(action)
        seed = doc.get("seed", -1)
        _check_count("seed", seed, least=-1)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario document: {exc}") from exc
    return SlamScenario(prior=prior, actions=tuple(actions), seed=int(seed))
