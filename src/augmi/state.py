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
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .linalg import cholesky_psd

LOG_TWO_PI = math.log(2.0 * math.pi)

# Kernel-sum grids are reduced in blocks of this many cells; small enough
# that a block stays cache-resident through its matmul, exponential, and
# weight reduction (the grid pass is memory-bound otherwise).
_CHUNK_CELLS = 250_000

# The 1-D kernel sum's Hermite expansion: boxes sqrt(2) wide in whitened
# units (1 wide in units of the kernel's sqrt(2) length), the expansion order
# per box, the distance, in the same units, within which a query sums a box,
# and the most boxes that distance reaches.
_HERMITE_BOX = math.sqrt(2.0)
_HERMITE_ORDER = 24
_HERMITE_CUTOFF = 7.0
_HERMITE_WINDOW = 2 * int(_HERMITE_CUTOFF) + 1
# A row keeps its expansion when the certified error is at most this share
# of its value.
_HERMITE_REL_BOUND = 1e-13
# (row, box) pairs per query chunk: the temporaries stay a few hundred kB.
_HERMITE_PAIRS = 16_384
# Cramer's inequality: |H_n(u)| exp(-u^2 / 2) <= 1.0865 sqrt(2^n n!).
_CRAMER = 1.0865
_EPS = float(np.finfo(float).eps)


class UnknownBlockError(KeyError):
    """A block id does not resolve against the layout in scope."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_rng(rng) -> None:
    """Raise ``TypeError`` unless ``rng`` is a numpy Generator or an integer
    seed, and ``ValueError`` for a negative seed, as numpy does."""
    if not isinstance(rng, (np.random.Generator, int, np.integer)):
        raise TypeError(f"expected numpy Generator or int seed, got {type(rng).__name__}")
    if not isinstance(rng, np.random.Generator) and rng < 0:
        raise ValueError(f"expected non-negative integer seed, got {rng}")


def ensure_rng(rng: np.random.Generator | int) -> np.random.Generator:
    """A Generator as given, or ``np.random.default_rng(seed)`` for an integer seed."""
    _check_rng(rng)
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(int(rng))


def _is_count(value) -> bool:
    """Whether ``value`` is an integer count: an ``int`` or numpy integer, not a bool."""
    # type() first: layouts check two counts per block, nearly always plain ints
    return type(value) is int or (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    )


def _check_count(name: str, value, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is an integer count of at least 1."""
    if not _is_count(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise error(f"{name} must be >= 1, got {value}")


def _derived_rng(root: Sequence[int], spawn_key: tuple[int, ...]) -> np.random.Generator:
    """The generator of one keyed child stream of an entropy root."""
    ss = np.random.SeedSequence(entropy=list(root), spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


def _span_indices(spans: Iterable[tuple[int, int]]) -> np.ndarray:
    """The flat indices of ``(start, dim)`` spans, in order."""
    return np.array([i for start, dim in spans for i in range(start, start + dim)], dtype=int)


@dataclass(frozen=True)
class VariableBlock:
    """One named block of a flat state vector."""

    id: str
    offset: int
    dim: int

    def __post_init__(self):
        _check_count(f"block {self.id!r}: dim", self.dim)
        if not _is_count(self.offset) or self.offset < 0:
            raise ValueError(
                f"block {self.id!r}: offset must be a non-negative integer, got {self.offset!r}"
            )

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

    @cached_property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.blocks)

    def __contains__(self, block_id: str) -> bool:
        return any(b.id == block_id for b in self.blocks)

    def block(self, block_id: str) -> VariableBlock:
        for b in self.blocks:
            if b.id == block_id:
                return b
        raise UnknownBlockError(f"unknown block id {block_id!r}")

    def _known(self, keep: Iterable[str]) -> set[str]:
        """``keep`` as a set; an id the layout lacks raises ``UnknownBlockError``."""
        keep = set(keep)
        unknown = keep - set(self.ids)
        if unknown:
            raise UnknownBlockError(f"unknown block ids {sorted(unknown)}")
        return keep

    def indices(self, keep: Iterable[str]) -> np.ndarray:
        """Flat indices of the given blocks, in layout order."""
        keep = self._known(keep)
        return _span_indices((b.offset, b.dim) for b in self.blocks if b.id in keep)

    def sublayout(self, keep: Iterable[str]) -> "StateLayout":
        """Layout over the kept blocks, preserving their original order."""
        keep = self._known(keep)
        if not keep:
            raise ValueError("keep set must be non-empty")
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
        if not np.isfinite(particles).all():
            raise ValueError("particle set has non-finite particles")
        if not np.isfinite(weights).all():
            raise ValueError("particle set has non-finite weights")
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

    The mean and covariance must be finite and the covariance symmetric to
    1e-10 relative tolerance.  The covariance is factored lazily, the first
    time a draw needs it; a covariance that is not positive definite raises
    :class:`~augmi.linalg.NotPositiveDefiniteError` there.
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
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        object.__setattr__(self, "mean", _frozen_array(mean))
        if cov.shape != (dim, dim):
            raise ValueError(f"covariance has shape {cov.shape}, expected ({dim}, {dim})")
        object.__setattr__(self, "covariance", _checked_symmetric(cov, "covariance"))

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @cached_property
    def _chol(self) -> np.ndarray:
        return cholesky_psd(self.covariance)


def _checked_symmetric(matrix: np.ndarray, name: str) -> np.ndarray:
    """A frozen symmetrized copy of a square matrix that must be finite and
    symmetric to 1e-10 relative tolerance."""
    scale = float(np.abs(matrix).max())
    if not math.isfinite(scale):
        raise ValueError(f"{name} must be finite")
    if np.abs(matrix - matrix.T).max() > 1e-10 * max(1.0, scale):
        raise ValueError(f"{name} is not symmetric (relative tolerance 1e-10)")
    return _frozen_array(0.5 * (matrix + matrix.T))


@dataclass(frozen=True)
class LinearGaussianModel:
    """Linear map plus additive Gaussian noise, with a declared footprint.

    The model reads the blocks named in ``inputs`` (matrix columns follow
    that declaration order) and emits ``output_dim`` coordinates.  Used both
    as a transition model (output becomes a new state block) and as an
    observation model (output is a measurement).  ``noise_cov`` must be
    positive definite; its lower Cholesky factor is ``noise_chol``.
    """

    inputs: tuple[str, ...]
    output_dim: int
    matrix: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        noise = np.atleast_2d(np.asarray(self.noise_cov, dtype=float))
        _check_count("output_dim", self.output_dim)
        if matrix.shape[0] != self.output_dim:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows, expected output_dim={self.output_dim}"
            )
        if noise.shape != (self.output_dim, self.output_dim):
            raise ValueError("noise_cov shape must be (output_dim, output_dim)")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix must be finite")
        object.__setattr__(self, "noise_cov", _checked_symmetric(noise, "noise_cov"))
        object.__setattr__(self, "matrix", _frozen_array(matrix))
        # raises NotPositiveDefiniteError: singular noise has no density
        object.__setattr__(self, "noise_chol", cholesky_psd(self.noise_cov))

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]

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
        observations = tuple(self.observations)
        if not all(_is_count(step) for step, _model in observations):
            raise ValueError(f"action {self.id!r}: observation steps must be integers")
        object.__setattr__(self, "observations", tuple((int(s), m) for s, m in observations))
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

    @property
    def _noise_entropy(self) -> float:
        """Summed entropy of every model's additive noise, in nats.  The
        noise does not depend on the state, so this is H[new | prior] +
        H[obs | prior, new] whatever the prior belief."""
        models = self.transitions + tuple(m for _s, m in self.observations)
        return sum(m._log_norm + 0.5 * m.output_dim for m in models)

    def validate_against(self, layout: StateLayout) -> None:
        """Check that every model input resolves and dims line up."""
        _bind_inputs(layout, self)


# each model of an action with its input columns, as _bind_inputs returns them
_Bound = list[tuple[LinearGaussianModel, np.ndarray]]


def _bind_inputs(layout: StateLayout, action: Action) -> _Bound:
    """Each transition's model, then each observation's, in declaration
    order, with its input columns into ``[layout coords | new coords]``.

    A transition reads prior blocks and the new blocks of earlier steps; an
    observation also reads its own step's.  Every transition is checked
    before any observation, and observations in step order.
    """
    spans = {b.id: (b.offset, b.dim) for b in layout.blocks}
    new_spans: dict[str, tuple[int, int, int]] = {}
    cursor = layout.total_dim
    for step, (new_id, model) in enumerate(zip(action.new_ids, action.transitions), 1):
        if new_id in spans:
            raise ValueError(
                f"action {action.id!r}: new block id {new_id!r} collides with the layout"
            )
        new_spans[new_id] = (step, cursor, model.output_dim)
        cursor += model.output_dim

    def columns(where: str, model: LinearGaussianModel, steps_done: int) -> np.ndarray:
        found = []
        for block_id in model.inputs:
            if block_id in spans:
                found.append(spans[block_id])
            elif block_id in new_spans and new_spans[block_id][0] <= steps_done:
                found.append(new_spans[block_id][1:])
            else:
                raise UnknownBlockError(
                    f"action {action.id!r} {where}: input block {block_id!r} does not "
                    "resolve to a prior block or an earlier new block"
                )
        total = sum(dim for _start, dim in found)
        if total != model.input_dim:
            raise ValueError(
                f"action {action.id!r} {where}: matrix has {model.input_dim} columns "
                f"but inputs {model.inputs} total dim {total}"
            )
        return _span_indices(found)

    bound = [
        (model, columns(f"transition {step}", model, step - 1))
        for step, model in enumerate(action.transitions, 1)
    ]
    observed = {}
    for j, (step, model) in sorted(enumerate(action.observations), key=lambda o: o[1][0]):
        observed[j] = (model, columns(f"observation@{step}", model, step))
    return bound + [observed[j] for j in range(len(observed))]


def _prior_footprint(layout: StateLayout, action: Action) -> frozenset[str]:
    """Prior blocks read by any transition or observation of the action."""
    action.validate_against(layout)
    prior_ids = set(layout.ids)
    used: set[str] = set()
    for model in action.transitions:
        used.update(model.inputs)
    for _step, model in action.observations:
        used.update(model.inputs)
    return frozenset(used & prior_ids)


def compose_actions(actions: Sequence[Action]) -> Action:
    """Concatenate a sequence of actions into one multi-step action, whose id
    joins theirs with ``"+"``.

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
        id="+".join(a.id for a in actions),
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
    idx = belief.layout.indices(keep)
    return WeightedParticleSet(
        layout=belief.layout.sublayout(keep),
        particles=belief.particles[:, idx],
        weights=belief.weights,
    )


def marginalize_gaussian(density: GaussianDensity, keep: Iterable[str]) -> GaussianDensity:
    """Gaussian marginal over the kept blocks (sub-vector and sub-matrix)."""
    keep = set(keep)
    idx = density.layout.indices(keep)
    return GaussianDensity(
        layout=density.layout.sublayout(keep),
        mean=density.mean[idx],
        covariance=density.covariance[np.ix_(idx, idx)],
    )


def _marginalize(belief: WeightedParticleSet | GaussianDensity, keep: Iterable[str]):
    """The belief's marginal over the kept blocks, by the belief's type."""
    gaussian = isinstance(belief, GaussianDensity)
    return (marginalize_gaussian if gaussian else marginalize_particles)(belief, keep)


def sample_particles(
    density: GaussianDensity, n: int, rng: np.random.Generator | int
) -> WeightedParticleSet:
    """Draw ``n`` i.i.d. samples with uniform weights ``1/n``."""
    _check_count("n", n)
    rng = ensure_rng(rng)
    return WeightedParticleSet(
        layout=density.layout,
        particles=_draws(density, n, rng),
        weights=np.full(n, 1.0 / n),
    )


def _draws(density: GaussianDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` i.i.d. draws from ``density``, one per row."""
    return density.mean + rng.standard_normal((n, density.dim)) @ density._chol.T


# ---------------------------------------------------------------------------
# Vectorized sequential models
# ---------------------------------------------------------------------------


class _SequentialModels:
    """An action's transition or observation models, bound to a belief layout.

    Every model reads columns of an augmented state array whose rows are
    ``[belief state | stacked new blocks]``, which the transition builds
    once and the observation reads as given, and fills its own slice of an
    output array; the two subclasses differ only in where that output lives.
    A caller that builds both passes them one ``bound``, the action's
    :func:`_bind_inputs`.
    """

    def __init__(self, layout: StateLayout, action: Action, bound: _Bound | None, own: slice):
        self.layout = layout
        bound = _bind_inputs(layout, action) if bound is None else bound
        # (model, input columns, output slice, whitening solve) per model; the solve
        # is the LAPACK trtrs call of solve_triangular(noise_chol, b, lower=True),
        # which passes a factor that is not F-ordered transposed, as an upper one
        self._models: list[tuple[LinearGaussianModel, np.ndarray, slice, tuple]] = []
        cursor = 0
        for model, cols in bound[own]:
            chol = model.noise_chol
            flip = not chol.flags.f_contiguous
            trtrs, = scipy.linalg.get_lapack_funcs(("trtrs",), (chol,))
            solve = (trtrs, chol.T if flip else chol, not flip, flip)
            self._models.append((model, cols, slice(cursor, cursor + model.output_dim), solve))
            cursor += model.output_dim
        self._log_norm = sum(model._log_norm for model, *_rest in self._models)

    def _sample(self, states: np.ndarray, noise: np.ndarray, out: np.ndarray) -> None:
        """Fill each model's slice of ``out`` from standard-normal innovations."""
        for model, cols, part, _solve in self._models:
            out[:, part] = states[:, cols] @ model.matrix.T + noise[:, part] @ model.noise_chol.T

    def _means(self, states: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill each model's slice of ``out`` with its mean given ``states``."""
        for model, cols, part, _solve in self._models:
            out[:, part] = states[:, cols] @ model.matrix.T
        return out

    def _whiten(self, y: np.ndarray) -> np.ndarray:
        """Each model's slice of ``y`` in units of its noise factor."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if not np.isfinite(y).all():
            raise ValueError("cannot whiten non-finite values")
        out = np.empty_like(y)
        for _model, _cols, part, (trtrs, factor, lower, trans) in self._models:
            # a Cholesky factor has a nonzero diagonal, so trtrs cannot fail
            white, _info = trtrs(factor, y[:, part].T, lower=lower, trans=trans)
            out[:, part] = white.T
        return out


class SequentialTransition(_SequentialModels):
    """The product of an action's transition models, bound to a belief layout.

    Vectorized over particle batches: rows of ``x`` are belief states.  Step
    ``k`` writes its new block into the augmented state row, where later
    steps read it.
    """

    def __init__(self, layout: StateLayout, action: Action, bound: _Bound | None = None):
        super().__init__(layout, action, bound, slice(len(action.transitions)))
        self.new_dim = action.new_dim_total

    def sample_with_noise(self, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Propagate given standard-normal innovations; returns the augmented
        rows ``[x | new blocks]``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        base = self.layout.total_dim
        states = np.empty((x.shape[0], base + self.new_dim))
        states[:, :base] = x
        self._sample(states, noise, states[:, base:])
        return states


class SequentialObservation(_SequentialModels):
    """The product of an action's observation models, bound to a belief
    layout; it reads the augmented states a transition returns."""

    def __init__(self, layout: StateLayout, action: Action, bound: _Bound | None = None):
        super().__init__(layout, action, bound, slice(len(action.transitions), None))
        self.obs_dim = action.obs_dim_total

    def sample_with_noise(self, states: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Generate observations ``z`` from given innovations."""
        z = np.empty((states.shape[0], self.obs_dim))
        self._sample(states, noise, z)
        return z

    def grid_evaluator(self, states: np.ndarray) -> "ObservationGridEvaluator":
        """Precompute whitened model means for repeated pairwise evaluation
        against the fixed batch of augmented states."""
        return ObservationGridEvaluator(self, states)


class ObservationGridEvaluator:
    """Pairwise observation likelihoods against a fixed propagated batch.

    This is the hot loop of the marginal-likelihood estimate, so the batch
    side (every model's mean, whitened by its noise factor and laid side by
    side) is computed once; queries are whitened the same way and summed by
    :func:`_log_kernel_sum`.  A 1-D observation takes its Hermite expansion,
    which costs a bounded amount per query however many particles the batch
    has; wider observations sum the dense query-by-batch grid.
    """

    def __init__(self, seq_obs: SequentialObservation, states: np.ndarray):
        self.count = states.shape[0]
        self.obs_dim = seq_obs.obs_dim
        self._seq_obs = seq_obs
        means = seq_obs._means(states, np.empty((self.count, self.obs_dim)))
        self._centers = seq_obs._whiten(means)

    def mixture_likelihood(self, z: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Log marginal likelihood ``log sum_l w_l F_Z(z_m | batch_l)`` per
        query row."""
        z_w = self._seq_obs._whiten(z)
        return _log_kernel_sum(z_w, self._centers, weights, self._seq_obs._log_norm)


def _squared_distances(
    queries: np.ndarray,
    centers: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``|q_m - c_l|^2`` from direct differences, exact to rounding at any
    scale (a Gram product cancels catastrophically for a query close to a
    center when both are far from the origin)."""
    out = np.subtract.outer(queries[:, 0], centers[:, 0], out=out)
    out *= out
    for k in range(1, queries.shape[1]):
        out += np.subtract.outer(queries[:, k], centers[:, k]) ** 2
    return out


def _log_kernel_sum(
    queries: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
    log_norm: float,
) -> np.ndarray:
    """``log sum_l w_l exp(-|q_m - c_l|^2 / 2) - log_norm`` per query row.

    Queries (m x d) and centers (n x d) are whitened; zero weights drop
    their centers.

    At d = 1 each row takes a Hermite expansion (:func:`_hermite_kernel_sum`)
    over at most 15 boxes of centers, and keeps it when its certified error
    is at most 1e-13 of its value; other rows take the log-sum-exp below.
    Each row's arithmetic is its own, so a row gives the same bits alone or
    in any batch.

    At d >= 2 both sides are centered on the centers' mean, which changes no
    distance.  A query row whose terms ``|q|^2 / 2`` and
    ``row = |q|^2 / 2 + log_norm``, with the centers' largest
    ``col = |c|^2 / 2``, keep every exponent below 600 in magnitude takes
    the factored linear path ``exp(-row_m) sum_l exp(q_m . c_l) w_l
    exp(-col_l)``.  Other rows, and rows whose sum underflows 1e-300, take
    a max-shifted log-sum-exp over direct differences
    (:func:`_log_sum_exp_rows`), exact to rounding at any scale.  That costs
    5x to 18x as much as the factored path on 300 x 300 grids at d = 2 to
    150.
    """
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    n_queries = queries.shape[0]
    rows = min(max(1, _CHUNK_CELLS // centers.shape[0]), max(1, n_queries))
    if centers.shape[1] == 1:
        out, exact = _hermite_kernel_sum(queries[:, 0], centers[:, 0], weights)
        out -= log_norm
        if exact.any():
            rows = min(rows, int(np.count_nonzero(exact)))
            buffer = np.empty((rows, centers.shape[0]))
            out[exact] = _log_sum_exp_rows(queries[exact], centers, log_w, log_norm, buffer)
        return out
    shift = centers.mean(axis=0)
    centers = centers - shift
    col = 0.5 * np.einsum("ij,ij->i", centers, centers)
    max_col = float(col.max())
    w_scaled = weights * np.exp(-col)
    out = np.empty(n_queries)
    buffer = np.empty((rows, centers.shape[0]))
    for start in range(0, n_queries, rows):
        block = queries[start : start + rows] - shift
        vals = out[start : start + rows]
        half_sq = 0.5 * np.einsum("ij,ij->i", block, block)
        row = half_sq + log_norm
        # |q . c| <= |q|^2 / 2 + |c|^2 / 2, so no exponential below overflows
        fast = np.maximum(np.abs(row), half_sq) + max_col < 600.0
        slow = ~fast
        if fast.any():
            grid = np.matmul(block[fast], centers.T, out=buffer[: np.count_nonzero(fast)])
            np.exp(grid, out=grid)
            total = grid @ w_scaled
            linear = total * np.exp(-row[fast])
            with np.errstate(divide="ignore"):
                vals[fast] = np.log(linear)
            slow[fast] = (total < 1e-300) | (linear < 1e-300)
        if slow.any():
            vals[slow] = _log_sum_exp_rows(block[slow], centers, log_w, log_norm, buffer)
    return out


def _log_sum_exp_rows(
    queries: np.ndarray,
    centers: np.ndarray,
    log_w: np.ndarray,
    log_norm: float,
    buffer: np.ndarray,
) -> np.ndarray:
    """The kernel sum by max-shifted log-sum-exp over direct differences,
    in blocks of ``buffer``'s rows."""
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], buffer.shape[0]):
        block = queries[start : start + buffer.shape[0]]
        grid = _squared_distances(block, centers, out=buffer[: block.shape[0]])
        grid *= -0.5
        grid += log_w
        peak = grid.max(axis=1)
        grid -= peak[:, None]
        # terms below exp(-700) of the peak add nothing to the sum, and
        # exp is several times slower on inputs that underflow
        np.maximum(grid, -700.0, out=grid)
        np.exp(grid, out=grid)
        out[start : start + block.shape[0]] = np.log(grid.sum(axis=1)) + peak - log_norm
    return out


def _hermite_kernel_sum(
    queries: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``log sum_l w_l exp(-(q_m - c_l)^2 / 2)`` per 1-D query by Hermite
    expansion (the fast Gauss transform, Greengard & Strain 1991), and a
    mask of the rows whose result must be recomputed exactly.

    In units ``t = x / sqrt(2)`` the kernel is ``exp(-(t - s)^2)``.  Centers
    are binned in boxes 1 wide, so each lies within 1/2 of its box center
    ``a``, and ``exp(-(t - s)^2) = sum_n (s - a)^n / n! h_n(t - a)`` with
    ``h_n(u) = H_n(u) exp(-u^2)``.  Each box keeps its first
    ``_HERMITE_ORDER`` moments; a query sums the boxes whose centers lie
    within ``_HERMITE_CUTOFF`` of it.  A row's certified error adds the
    truncation bound from Cramer's inequality over those boxes, the dropped
    boxes' weight times ``exp(-(cutoff - 1/2)^2)``, and ``order * eps`` times
    the sum of the terms' magnitudes.  A row is kept when that is at most
    ``_HERMITE_REL_BOUND`` of its sum and the sum is at least 1e-300.
    """
    keep = weights > 0
    labels, box = np.unique(np.rint(centers[keep] / _HERMITE_BOX), return_inverse=True)
    n_boxes = labels.size
    # box centers in whitened units, then an empty box that pads the windows
    box_x = np.append(labels * _HERMITE_BOX, 0.0)
    # differences first: they are exact near the box center at any scale
    offset = (centers[keep] - box_x[box]) / _HERMITE_BOX
    moments = np.zeros((_HERMITE_ORDER, n_boxes + 1))
    power = weights[keep]
    for n in range(_HERMITE_ORDER):
        moments[n, :n_boxes] = np.bincount(box, weights=power)
        power = power * offset / (n + 1)
    box_w = moments[0]
    total_w = float(box_w.sum())
    # a center's terms from order p on add up to at most
    # _CRAMER exp(-u^2 / 2) sum_{n >= p} rho^n / sqrt(n!), rho = sqrt(2) |s - a|;
    # the largest rho is 1 / sqrt(2) up to rounding
    rho = math.sqrt(2.0) * float(np.abs(offset).max(initial=0.0))
    p = _HERMITE_ORDER
    trunc = (
        _CRAMER * rho**p / math.sqrt(math.factorial(p)) / (1.0 - rho / math.sqrt(p + 1))
        if rho < 1.0
        else math.inf
    )
    drop = math.exp(-((_HERMITE_CUTOFF - 0.5) ** 2))
    first = np.searchsorted(box_x[:n_boxes], queries - _HERMITE_CUTOFF * _HERMITE_BOX)
    # fewer boxes than a window holds all fit in one from any first box
    slots = np.arange(max(1, min(_HERMITE_WINDOW, n_boxes)))[:, None]
    total = np.empty(queries.shape[0])
    bound = np.empty(queries.shape[0])
    rows = _HERMITE_PAIRS // slots.size
    for start in range(0, queries.shape[0], rows):
        stop = start + rows
        # (slot, row) arrays; slots past the last box read the empty one
        idx = np.minimum(first[start:stop] + slots, n_boxes)
        u = (queries[start:stop] - box_x[idx]) / _HERMITE_BOX
        outside = ~(np.abs(u) <= _HERMITE_CUTOFF)
        idx[outside] = n_boxes
        u[outside] = 0.0
        g = np.exp(-0.5 * u * u)
        two_u = 2.0 * u
        h, h_prev = g * g, np.zeros_like(u)
        acc, mag = np.zeros_like(u), np.zeros_like(u)
        for n in range(p):
            term = np.take(moments[n], idx)
            term *= h
            acc += term
            mag += np.abs(term, out=term)
            # h_{n+1} = 2u h_n - 2n h_{n-1}
            h_prev *= -2.0 * n
            h_prev += two_u * h
            h, h_prev = h_prev, h
        w_in = np.take(box_w, idx)
        # slots are summed one at a time, so a row's bits do not depend on
        # how many rows share its chunk
        total[start:stop] = reduce(np.add, acc)
        bound[start:stop] = (
            trunc * reduce(np.add, w_in * g)
            + drop * np.maximum(total_w - reduce(np.add, w_in), 0.0)
            + p * _EPS * reduce(np.add, mag)
        )
    exact = ~((bound <= _HERMITE_REL_BOUND * total) & (total >= 1e-300))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(total), exact
