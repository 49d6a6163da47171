"""State layouts, beliefs, and linear-Gaussian models.

A flat state vector is partitioned into named blocks (poses, landmarks, ...)
by a :class:`StateLayout`.  Beliefs over it come in two flavors: a weighted
particle set and a Gaussian density.  Transition and observation models are
linear maps with additive Gaussian noise; each declares the block ids it
reads, which is the dependency footprint everything downstream exploits.

All containers are immutable after construction and every stochastic
operation takes an explicit seeded generator, so everything here is safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .linalg import cholesky_psd

LOG_TWO_PI = math.log(2.0 * math.pi)

# Pairwise-likelihood grids are reduced in blocks of this many cells; small
# enough that a block stays cache-resident through its matmul, exponential,
# and weight reduction (the grid pass is memory-bound otherwise).
_MIXTURE_CHUNK_CELLS = 250_000


class UnknownBlockError(KeyError):
    """A block id does not resolve against the layout in scope."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def ensure_rng(rng: np.random.Generator | int) -> tuple[np.random.Generator, int]:
    """Accept a Generator or an integer seed.

    Returns the generator plus a seed label for provenance records (-1 when
    the caller handed us an already-constructed generator).
    """
    if isinstance(rng, np.random.Generator):
        return rng, -1
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng)), int(rng)
    raise TypeError(f"expected numpy Generator or int seed, got {type(rng).__name__}")


@dataclass(frozen=True)
class VariableBlock:
    """One named block of a flat state vector."""

    id: str
    offset: int
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"block {self.id!r}: dim must be >= 1, got {self.dim}")
        if self.offset < 0:
            raise ValueError(f"block {self.id!r}: negative offset {self.offset}")

    @property
    def slice(self) -> slice:
        return slice(self.offset, self.offset + self.dim)


@dataclass(frozen=True)
class StateLayout:
    """Ordered, contiguous, non-overlapping blocks covering ``[0, D)``."""

    blocks: tuple[VariableBlock, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("layout needs at least one block")
        expected = 0
        seen: set[str] = set()
        for block in self.blocks:
            if block.id in seen:
                raise ValueError(f"duplicate block id {block.id!r}")
            seen.add(block.id)
            if block.offset != expected:
                raise ValueError(
                    f"block {block.id!r} at offset {block.offset}, expected {expected}: "
                    "blocks must be contiguous and non-overlapping"
                )
            expected += block.dim

    @staticmethod
    def from_dims(pairs: Iterable[tuple[str, int]]) -> "StateLayout":
        """Build a layout from ``(id, dim)`` pairs, offsets assigned in order."""
        blocks = []
        offset = 0
        for block_id, dim in pairs:
            blocks.append(VariableBlock(block_id, offset, dim))
            offset += dim
        return StateLayout(tuple(blocks))

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.blocks)

    def __contains__(self, block_id: str) -> bool:
        return any(b.id == block_id for b in self.blocks)

    def block(self, block_id: str) -> VariableBlock:
        for b in self.blocks:
            if b.id == block_id:
                return b
        raise UnknownBlockError(f"unknown block id {block_id!r}")

    def indices(self, keep: Iterable[str]) -> np.ndarray:
        """Flat indices of the given blocks, in layout order."""
        keep = set(keep)
        unknown = keep - set(self.ids)
        if unknown:
            raise UnknownBlockError(f"unknown block ids {sorted(unknown)}")
        cols = [np.arange(b.offset, b.offset + b.dim) for b in self.blocks if b.id in keep]
        return np.concatenate(cols) if cols else np.empty(0, dtype=int)

    def sublayout(self, keep: Iterable[str]) -> "StateLayout":
        """Layout over the kept blocks, preserving their original order."""
        keep = set(keep)
        if not keep:
            raise ValueError("keep set must be non-empty")
        unknown = keep - set(self.ids)
        if unknown:
            raise UnknownBlockError(f"unknown block ids {sorted(unknown)}")
        return StateLayout.from_dims((b.id, b.dim) for b in self.blocks if b.id in keep)

    def concat(self, pairs: Iterable[tuple[str, int]]) -> "StateLayout":
        """Layout extended by new trailing blocks."""
        dims = [(b.id, b.dim) for b in self.blocks]
        dims.extend(pairs)
        return StateLayout.from_dims(dims)


@dataclass(frozen=True)
class WeightedParticleSet:
    """Non-parametric belief: N particles of dim D with normalized weights."""

    layout: StateLayout
    particles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        particles = np.atleast_2d(np.asarray(self.particles, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if particles.shape[0] < 1:
            raise ValueError("particle set needs at least one particle")
        if particles.shape[1] != self.layout.total_dim:
            raise ValueError(
                f"particles have dim {particles.shape[1]}, layout expects "
                f"{self.layout.total_dim}"
            )
        if weights.shape[0] != particles.shape[0]:
            raise ValueError("one weight per particle required")
        if np.any(weights < 0.0):
            raise ValueError("weights must be non-negative")
        total = weights.sum()
        if not total > 0.0:
            raise ValueError("weights must have positive sum")
        if abs(total - 1.0) > 1e-12:  # keep already-normalized weights bit-identical
            weights = weights / total
        object.__setattr__(self, "particles", _frozen_array(particles))
        object.__setattr__(self, "weights", _frozen_array(weights))

    @property
    def n(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian belief with a block layout.

    The covariance must be symmetric to 1e-10 relative tolerance; positive
    definiteness is enforced lazily by the jitter policy when a
    factorization is actually needed.
    """

    layout: StateLayout
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.asarray(self.covariance, dtype=float)
        dim = self.layout.total_dim
        if mean.shape != (dim,):
            raise ValueError(f"mean has shape {mean.shape}, expected ({dim},)")
        if cov.shape != (dim, dim):
            raise ValueError(f"covariance has shape {cov.shape}, expected ({dim}, {dim})")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-10 * scale:
            raise ValueError("covariance is not symmetric (relative tolerance 1e-10)")
        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "covariance", _frozen_array(0.5 * (cov + cov.T)))

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @cached_property
    def _chol(self) -> np.ndarray:
        return cholesky_psd(self.covariance)


@dataclass(frozen=True)
class LinearGaussianModel:
    """Linear map plus additive Gaussian noise, with a declared footprint.

    The model reads the blocks named in ``inputs`` (matrix columns follow
    that declaration order) and emits ``output_dim`` coordinates.  Used both
    as a transition model (output becomes a new state block) and as an
    observation model (output is a measurement).
    """

    inputs: tuple[str, ...]
    output_dim: int
    matrix: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        noise = np.atleast_2d(np.asarray(self.noise_cov, dtype=float))
        if self.output_dim < 1:
            raise ValueError("output_dim must be >= 1")
        if matrix.shape[0] != self.output_dim:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows, expected output_dim={self.output_dim}"
            )
        if noise.shape != (self.output_dim, self.output_dim):
            raise ValueError("noise_cov shape must be (output_dim, output_dim)")
        if np.abs(noise - noise.T).max() > 1e-10 * max(1.0, float(np.abs(noise).max())):
            raise ValueError("noise_cov is not symmetric")
        object.__setattr__(self, "matrix", _frozen_array(matrix))
        object.__setattr__(self, "noise_cov", _frozen_array(0.5 * (noise + noise.T)))

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def noise_chol(self) -> np.ndarray:
        return cholesky_psd(self.noise_cov)

    @cached_property
    def _log_norm(self) -> float:
        # -log of the normalization constant: 0.5*k*log(2pi) + log det L
        return 0.5 * self.output_dim * LOG_TWO_PI + float(
            np.sum(np.log(np.diag(self.noise_chol)))
        )


@dataclass(frozen=True)
class Action:
    """A candidate action: transition steps plus observations.

    Transition step ``k`` (1-based) creates a new state block whose id is
    ``new_ids[k-1]`` (default ``"<action id>:x<k>"``).  An observation is a
    pair ``(step, model)`` taken after transition ``step``; its inputs may
    reference prior blocks and new blocks from steps ``<= step``.  Transition
    inputs may reference prior blocks and new blocks from earlier steps.
    """

    id: str
    transitions: tuple[LinearGaussianModel, ...]
    observations: tuple[tuple[int, LinearGaussianModel], ...] = ()
    new_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(
            self, "observations", tuple((int(s), m) for s, m in self.observations)
        )
        if not self.transitions:
            raise ValueError(f"action {self.id!r} needs at least one transition")
        if self.new_ids is None:
            ids = tuple(f"{self.id}:x{k}" for k in range(1, len(self.transitions) + 1))
            object.__setattr__(self, "new_ids", ids)
        else:
            object.__setattr__(self, "new_ids", tuple(self.new_ids))
        if len(self.new_ids) != len(self.transitions):
            raise ValueError("need one new block id per transition")
        if len(set(self.new_ids)) != len(self.new_ids):
            raise ValueError(f"action {self.id!r}: new block ids must be unique")
        for step, _model in self.observations:
            if not 1 <= step <= len(self.transitions):
                raise ValueError(
                    f"action {self.id!r}: observation step {step} out of range "
                    f"1..{len(self.transitions)}"
                )

    @property
    def new_dims(self) -> tuple[int, ...]:
        return tuple(m.output_dim for m in self.transitions)

    @property
    def new_dim_total(self) -> int:
        return sum(self.new_dims)

    @property
    def obs_dim_total(self) -> int:
        return sum(m.output_dim for _s, m in self.observations)

    def validate_against(self, layout: StateLayout) -> None:
        """Check that every model input resolves and dims line up."""
        known: dict[str, int] = {b.id: b.dim for b in layout.blocks}
        for new_id in self.new_ids:
            if new_id in known:
                raise ValueError(
                    f"action {self.id!r}: new block id {new_id!r} collides with the layout"
                )
        available = dict(known)
        for step, (new_id, model) in enumerate(zip(self.new_ids, self.transitions), 1):
            _check_model_inputs(self.id, f"transition {step}", model, available)
            available[new_id] = model.output_dim
        visible: dict[str, int] = dict(known)
        for step, (new_id, model) in enumerate(zip(self.new_ids, self.transitions), 1):
            visible[new_id] = model.output_dim
            for obs_step, obs_model in self.observations:
                if obs_step == step:
                    _check_model_inputs(self.id, f"observation@{obs_step}", obs_model, visible)


def _check_model_inputs(
    action_id: str, where: str, model: LinearGaussianModel, available: dict[str, int]
) -> None:
    total = 0
    for block_id in model.inputs:
        if block_id not in available:
            raise UnknownBlockError(
                f"action {action_id!r} {where}: input block {block_id!r} does not "
                "resolve to a prior block or an earlier new block"
            )
        total += available[block_id]
    if total != model.input_dim:
        raise ValueError(
            f"action {action_id!r} {where}: matrix has {model.input_dim} columns "
            f"but inputs {model.inputs} total dim {total}"
        )


def prior_footprint(layout: StateLayout, action: Action) -> frozenset[str]:
    """Prior blocks read by any transition or observation of the action."""
    action.validate_against(layout)
    prior_ids = set(layout.ids)
    used: set[str] = set()
    for model in action.transitions:
        used.update(model.inputs)
    for _step, model in action.observations:
        used.update(model.inputs)
    return frozenset(used & prior_ids)


def compose_actions(actions: Sequence[Action], composed_id: str | None = None) -> Action:
    """Concatenate a sequence of actions into one multi-step action.

    Observation step indices are offset by the transitions of the earlier
    actions; block references are by id, so later steps keep seeing the new
    blocks created by earlier ones.
    """
    if not actions:
        raise ValueError("need at least one action to compose")
    transitions: list[LinearGaussianModel] = []
    new_ids: list[str] = []
    observations: list[tuple[int, LinearGaussianModel]] = []
    for action in actions:
        base = len(transitions)
        transitions.extend(action.transitions)
        new_ids.extend(action.new_ids)
        observations.extend((base + step, model) for step, model in action.observations)
    if len(set(new_ids)) != len(new_ids):
        raise ValueError("composed actions must create distinct new block ids")
    return Action(
        id=composed_id if composed_id is not None else "+".join(a.id for a in actions),
        transitions=tuple(transitions),
        observations=tuple(observations),
        new_ids=tuple(new_ids),
    )


# ---------------------------------------------------------------------------
# Operations on beliefs
# ---------------------------------------------------------------------------


def marginalize_particles(
    belief: WeightedParticleSet, keep: Iterable[str]
) -> WeightedParticleSet:
    """Project a particle set onto the kept blocks; weights are untouched."""
    keep = set(keep)
    if not keep:
        raise ValueError("keep set must be non-empty")
    idx = belief.layout.indices(keep)
    return WeightedParticleSet(
        layout=belief.layout.sublayout(keep),
        particles=belief.particles[:, idx],
        weights=belief.weights,
    )


def marginalize_gaussian(density: GaussianDensity, keep: Iterable[str]) -> GaussianDensity:
    """Gaussian marginal over the kept blocks (sub-vector and sub-matrix)."""
    keep = set(keep)
    if not keep:
        raise ValueError("keep set must be non-empty")
    idx = density.layout.indices(keep)
    return GaussianDensity(
        layout=density.layout.sublayout(keep),
        mean=density.mean[idx],
        covariance=density.covariance[np.ix_(idx, idx)],
    )


def sample_particles(
    density: GaussianDensity, n: int, rng: np.random.Generator | int
) -> WeightedParticleSet:
    """Draw ``n`` i.i.d. samples with uniform weights ``1/n``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng, _ = ensure_rng(rng)
    normals = rng.standard_normal((n, density.dim))
    particles = density.mean + normals @ density._chol.T
    return WeightedParticleSet(
        layout=density.layout,
        particles=particles,
        weights=np.full(n, 1.0 / n),
    )


def log_density(
    model: LinearGaussianModel, inputs: np.ndarray, output: np.ndarray
) -> float:
    """log N(output; matrix @ inputs, noise_cov)."""
    inputs = np.asarray(inputs, dtype=float).ravel()
    output = np.asarray(output, dtype=float).ravel()
    if inputs.shape != (model.input_dim,):
        raise ValueError(
            f"inputs have shape {inputs.shape}, model expects ({model.input_dim},)"
        )
    if output.shape != (model.output_dim,):
        raise ValueError(
            f"output has shape {output.shape}, model expects ({model.output_dim},)"
        )
    residual = output - model.matrix @ inputs
    white = scipy.linalg.solve_triangular(model.noise_chol, residual, lower=True)
    return -0.5 * float(white @ white) - model._log_norm


# ---------------------------------------------------------------------------
# Vectorized sequential models
# ---------------------------------------------------------------------------


class _BoundModel:
    """A model with its input columns resolved against an extended layout."""

    __slots__ = ("model", "cols", "out_slice")

    def __init__(self, model: LinearGaussianModel, cols: np.ndarray, out_slice: slice):
        self.model = model
        self.cols = cols
        self.out_slice = out_slice


def _bind_columns(
    layout: StateLayout, action: Action, inputs: tuple[str, ...], upto_step: int
) -> np.ndarray:
    """Column indices (declaration order) into [layout coords | new coords]."""
    base = layout.total_dim
    new_offsets: dict[str, tuple[int, int]] = {}
    cursor = 0
    for new_id, dim in zip(action.new_ids[:upto_step], action.new_dims[:upto_step]):
        new_offsets[new_id] = (base + cursor, dim)
        cursor += dim
    cols: list[np.ndarray] = []
    for block_id in inputs:
        if block_id in new_offsets:
            start, dim = new_offsets[block_id]
            cols.append(np.arange(start, start + dim))
        else:
            block = layout.block(block_id)
            cols.append(np.arange(block.offset, block.offset + block.dim))
    return np.concatenate(cols) if cols else np.empty(0, dtype=int)


class _SequentialModels:
    """An action's transition or observation models, bound to a belief layout.

    Each model reads columns of a work array whose rows are
    ``[belief state | stacked new blocks]`` and fills its own slice of an
    output array; the two subclasses differ only in where that output lives.
    """

    def __init__(
        self,
        layout: StateLayout,
        action: Action,
        models: Iterable[tuple[int, LinearGaussianModel]],
    ):
        action.validate_against(layout)
        self.layout = layout
        self.action = action
        self._models: list[_BoundModel] = []
        cursor = 0
        for upto_step, model in models:
            cols = _bind_columns(layout, action, model.inputs, upto_step=upto_step)
            out = slice(cursor, cursor + model.output_dim)
            self._models.append(_BoundModel(model, cols, out))
            cursor += model.output_dim

    def _work(self, x: np.ndarray, new: np.ndarray | None = None) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        base = self.layout.total_dim
        work = np.empty((x.shape[0], base + self.action.new_dim_total))
        work[:, :base] = x
        if new is not None:
            work[:, base:] = new
        return work

    def _sample(self, work: np.ndarray, noise: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill each model's slice of ``out`` from standard-normal innovations;
        returns the summed log density of each row's samples."""
        logpdf = np.zeros(work.shape[0])
        for bound in self._models:
            mean = work[:, bound.cols] @ bound.model.matrix.T
            eps = noise[:, bound.out_slice]
            out[:, bound.out_slice] = mean + eps @ bound.model.noise_chol.T
            logpdf -= 0.5 * np.einsum("ij,ij->i", eps, eps) + bound.model._log_norm
        return logpdf

    def _log_density(self, work: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Row-wise summed log density of the model outputs in ``out``."""
        logpdf = np.zeros(work.shape[0])
        for bound in self._models:
            mean = work[:, bound.cols] @ bound.model.matrix.T
            resid = out[:, bound.out_slice] - mean
            white = scipy.linalg.solve_triangular(
                bound.model.noise_chol, resid.T, lower=True
            )
            logpdf -= 0.5 * np.einsum("ij,ij->j", white, white) + bound.model._log_norm
        return logpdf


class SequentialTransition(_SequentialModels):
    """The product of an action's transition models, bound to a belief layout.

    Vectorized over particle batches: rows of ``x`` are belief states, rows
    of ``new`` are the stacked new blocks created by the action's steps.
    Step ``k`` writes its new block into the work array, where later steps
    read it.
    """

    def __init__(self, layout: StateLayout, action: Action):
        super().__init__(layout, action, enumerate(action.transitions))
        self.new_dim = action.new_dim_total

    def sample_with_noise(
        self, x: np.ndarray, noise: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Propagate given standard-normal innovations.

        Returns ``(new, logpdf)`` where ``logpdf[i]`` is the summed log
        transition density of row ``i``'s own samples.
        """
        work = self._work(x)
        new = work[:, self.layout.total_dim :]
        logpdf = self._sample(work, noise, new)
        return new.copy(), logpdf

    def sample(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one new-block stack per row of ``x``; returns ``(new, logpdf)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        noise = rng.standard_normal((x.shape[0], self.new_dim))
        return self.sample_with_noise(x, noise)

    def log_density(self, x: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Row-wise summed log density of ``new`` given ``x``."""
        work = self._work(x, new)
        return self._log_density(work, work[:, self.layout.total_dim :])


class SequentialObservation(_SequentialModels):
    """The product of an action's observation models, bound to a belief layout."""

    def __init__(self, layout: StateLayout, action: Action):
        super().__init__(layout, action, action.observations)
        self.obs_dim = action.obs_dim_total

    def sample_with_noise(
        self, x: np.ndarray, new: np.ndarray, noise: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate observations from given innovations; returns ``(z, logpdf)``."""
        work = self._work(x, new)
        z = np.empty((work.shape[0], self.obs_dim))
        logpdf = self._sample(work, noise, z)
        return z, logpdf

    def sample(
        self, x: np.ndarray, new: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        noise = rng.standard_normal((x.shape[0], self.obs_dim))
        return self.sample_with_noise(x, new, noise)

    def log_density(self, x: np.ndarray, new: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Row-wise summed log density of ``z`` given ``(x, new)``."""
        work = self._work(x, new)
        return self._log_density(work, np.atleast_2d(np.asarray(z, dtype=float)))

    def grid_evaluator(self, x: np.ndarray, new: np.ndarray) -> "ObservationGridEvaluator":
        """Precompute whitened model means for repeated pairwise evaluation
        against the fixed batch ``(x, new)``."""
        return ObservationGridEvaluator(self, x, new)

    def log_density_grid(
        self, x: np.ndarray, new: np.ndarray, z: np.ndarray
    ) -> np.ndarray:
        """Pairwise log densities: entry ``[m, l]`` is log F_Z(z[m] | x[l], new[l])."""
        return self.grid_evaluator(x, new).log_density_grid(z)


class ObservationGridEvaluator:
    """Pairwise observation likelihoods against a fixed propagated batch.

    This is the hot loop of the marginal-likelihood estimate, so the batch
    side (per-model whitened means, their squared norms) is computed once,
    and the grid math runs through whitened Gram products with in-place
    accumulation.  Means are centered per model to keep exponent magnitudes
    small, which does not change any distance.
    """

    def __init__(self, seq_obs: SequentialObservation, x: np.ndarray, new: np.ndarray):
        work = seq_obs._work(x, new)
        self.count = work.shape[0]
        self.obs_dim = seq_obs.obs_dim
        self._parts = []
        self.col_total = np.zeros(self.count)
        self._log_norm_total = 0.0
        for bound in seq_obs._models:
            mean = work[:, bound.cols] @ bound.model.matrix.T
            mean_w = scipy.linalg.solve_triangular(
                bound.model.noise_chol, mean.T, lower=True
            ).T
            center = mean_w.mean(axis=0)
            mean_c = mean_w - center
            col = 0.5 * np.einsum("ij,ij->i", mean_c, mean_c)
            self.col_total += col
            self._log_norm_total += bound.model._log_norm
            self._parts.append((bound, center, mean_c))

    def _cross_and_row(
        self, z: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Accumulated Gram matrix and per-row terms for a query block:
        summed log density == cross - row[:, None] - col_total[None, :].

        ``out``, when given, receives the Gram matrix (buffer reuse: fresh
        multi-megabyte allocations per block dominate the runtime
        otherwise).
        """
        cross = out
        row = np.full(z.shape[0], self._log_norm_total)
        for k, (bound, center, mean_c) in enumerate(self._parts):
            z_w = scipy.linalg.solve_triangular(
                bound.model.noise_chol, z[:, bound.out_slice].T, lower=True
            ).T
            z_c = z_w - center
            row += 0.5 * np.einsum("ij,ij->i", z_c, z_c)
            if k == 0:
                cross = np.matmul(z_c, mean_c.T, out=cross)
            else:
                cross += z_c @ mean_c.T
        if cross is None:
            cross = np.zeros((z.shape[0], self.count))
        return cross, row

    def log_density_grid(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        grid, row = self._cross_and_row(z)
        grid -= row[:, None]
        grid -= self.col_total[None, :]
        return grid

    def mixture_likelihood(self, z: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``sum_l w_l exp(log F_Z(z_m | batch_l))`` per query row.

        When all exponents are provably small the per-row and per-column
        terms are factored out of the exponential (saves two full passes
        over the grid); otherwise falls back to exponentiating the full log
        grid, whose entries never exceed the kernel peak.
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = np.empty(z.shape[0])
        max_col = float(self.col_total.max()) if self.count else 0.0
        chunk = min(max(1, _MIXTURE_CHUNK_CELLS // max(1, self.count)), max(1, z.shape[0]))
        buffer = np.empty((chunk, self.count))
        w_scaled = None
        for start in range(0, z.shape[0], chunk):
            block = z[start : start + chunk]
            cross, row = self._cross_and_row(block, out=buffer[: block.shape[0]])
            max_row = float(np.abs(row).max()) if row.size else 0.0
            if max_row + max_col < 600.0:
                if w_scaled is None:
                    w_scaled = weights * np.exp(-self.col_total)
                np.exp(cross, out=cross)
                np.multiply(cross @ w_scaled, np.exp(-row), out=out[start : start + chunk])
            else:
                cross -= row[:, None]
                cross -= self.col_total[None, :]
                np.exp(cross, out=cross)
                out[start : start + chunk] = cross @ weights
        return out
