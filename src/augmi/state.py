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
from functools import cache, cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from .linalg import cholesky_psd

LOG_TWO_PI = math.log(2.0 * math.pi)

# Kernel-sum grids are reduced in blocks of about this many cells; small
# enough that a block stays cache-resident through its matmul, exponential,
# and weight reduction (the grid pass is memory-bound otherwise): at d = 150
# a 300 x 300 grid took 15% less time in chunks of 2 x 64 rows than whole,
# on a 2-core Xeon with one BLAS thread.
_CHUNK_CELLS = 40_000

# The 1-D kernel sum's fast Gauss transform: a lattice of boxes 1.25
# whitened units wide, whose points j * 1.25 and their differences are exact
# below 2^50; the boxes on each side of a row's own box that it sums; the
# largest |t - box point| a row may have, in units of the kernel's sqrt(2)
# length (half a box is 0.442); the Hermite order per box; and the Taylor
# order per target box of the translation.
_FGT_BOX = 1.25
_FGT_REACH = 8
_FGT_RADIUS = 0.45
_HERMITE_ORDER = 24
_TAYLOR_ORDER = 32
# A row keeps its expansion when the certified error is at most this share
# of its value.
_FGT_REL_BOUND = 1e-13
# (row, box) pairs per query chunk of the direct sum: the temporaries stay a
# few hundred kB.
_FGT_PAIRS = 16_384
# Cramer's inequality: |H_n(u)| exp(-u^2 / 2) <= 1.0865 sqrt(2^n n!).
_CRAMER = 1.0865
_EPS = float(np.finfo(float).eps)
# The translation pays once the centers number at least this many, with at
# least this many per target box: on 10^4 uniform centers and queries it
# costs as much as the direct sum at 4 to 6 centers per box, and on
# chain-like ones at about 1000 centers.
_TAYLOR_MIN_CENTERS = 1_000
_TAYLOR_DENSITY = 8

# The kernel sum at d >= 2 evaluates its Gram rows in blocks of this many
# query rows, each block one product of a fixed shape: BLAS gives a row
# different bits at different shapes, and here a row's bits do not depend on
# the batch.  Against 300 centers on a 2-core Xeon with one BLAS thread, 16
# rows cost 10-25% less than 64 on batches of 1 to 10 rows at d = 2 and 6,
# the same on 300-row batches, and 10% less at d = 150.
_GRAM_ROWS = 16
# A row leaves the Gram path when (|q| + |c|)^2 / 2, over the centers that
# carry its sum, may exceed this: its cells round at about eps times that.
_GRAM_GUARD = 3000.0
# The cells of a chunk of blocks that may reach below _GRAM_REACH are
# clamped at _GRAM_CLAMP (exp is many times slower on inputs that
# underflow); a row keeps its Gram sum when the clamped cells add less than
# e^-40 of it.
_GRAM_REACH = 690.0
_GRAM_CLAMP = -700.0


class UnknownBlockError(KeyError):
    """A block id does not resolve against the layout in scope."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_rng(rng) -> None:
    """Raise ``TypeError`` unless ``rng`` is a numpy Generator or an integer
    seed (not a bool), and ``ValueError`` for a negative seed, as numpy does."""
    if isinstance(rng, np.random.Generator):
        return
    if not _is_count(rng):
        raise TypeError(f"expected numpy Generator or int seed, got {type(rng).__name__}")
    if rng < 0:
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


def _check_count(name: str, value, error: type[Exception] = ValueError, least: int = 1) -> None:
    """Raise ``error`` unless ``value`` is an integer count of at least ``least``."""
    if not _is_count(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")


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
        _check_count(f"block {self.id!r}: offset", self.offset, least=0)

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
        index: dict[str, VariableBlock] = {}  # each block by its id
        for block in self.blocks:
            if block.id in index:
                raise ValueError(f"duplicate block id {block.id!r}")
            index[block.id] = block
            if block.offset != expected:
                raise ValueError(
                    f"block {block.id!r} at offset {block.offset}, expected {expected}: "
                    "blocks must be contiguous and non-overlapping"
                )
            expected += block.dim
        object.__setattr__(self, "_index", index)

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
        return block_id in self._index

    def block(self, block_id: str) -> VariableBlock:
        block = self._index.get(block_id)
        if block is None:
            raise UnknownBlockError(f"unknown block id {block_id!r}")
        return block

    def _known(self, keep: Iterable[str]) -> set[str]:
        """``keep`` as a set; an id the layout lacks raises ``UnknownBlockError``."""
        keep = set(keep)
        unknown = keep.difference(self._index)
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
        if (weights < 0.0).any():
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

    @cached_property
    def _noise_inverse(self) -> np.ndarray:
        """The inverse of ``noise_chol``, which whitens this model's outputs."""
        return _frozen_array(np.linalg.inv(self.noise_chol))

    @cached_property
    def _transposes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``matrix``, ``noise_chol`` and ``_noise_inverse`` transposed: the
        right-hand factors of the row-wise products, taken once per model."""
        return self.matrix.T, self.noise_chol.T, self._noise_inverse.T


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

    @cached_property
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
    index = layout._index
    new_spans: dict[str, tuple[int, int, int]] = {}
    cursor = layout.total_dim
    for step, (new_id, model) in enumerate(zip(action.new_ids, action.transitions), 1):
        if new_id in index:
            raise ValueError(
                f"action {action.id!r}: new block id {new_id!r} collides with the layout"
            )
        new_spans[new_id] = (step, cursor, model.output_dim)
        cursor += model.output_dim

    def columns(where: str, model: LinearGaussianModel, steps_done: int) -> np.ndarray:
        found: list[int] = []
        for block_id in model.inputs:
            block = index.get(block_id)
            if block is not None:
                start, dim = block.offset, block.dim
            elif block_id in new_spans and new_spans[block_id][0] <= steps_done:
                _step, start, dim = new_spans[block_id]
            else:
                raise UnknownBlockError(
                    f"action {action.id!r} {where}: input block {block_id!r} does not "
                    "resolve to a prior block or an earlier new block"
                )
            found.extend(range(start, start + dim))
        if len(found) != model.input_dim:
            raise ValueError(
                f"action {action.id!r} {where}: matrix has {model.input_dim} columns "
                f"but inputs {model.inputs} total dim {len(found)}"
            )
        return np.array(found, dtype=int)

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
    used: set[str] = set()
    for model in action.transitions:
        used.update(model.inputs)
    for _step, model in action.observations:
        used.update(model.inputs)
    return frozenset(used.intersection(layout._index))


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
    observations: list[tuple[int, LinearGaussianModel]] = []
    for action in actions:
        base = len(transitions)
        transitions.extend(action.transitions)
        observations.extend((base + step, model) for step, model in action.observations)
    return Action(
        id="+".join(a.id for a in actions),
        transitions=tuple(transitions),
        observations=tuple(observations),
        new_ids=tuple(new_id for a in actions for new_id in a.new_ids),
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
    particles = _draws(density, n, rng)
    if not np.isfinite(particles).all():
        raise ValueError("particle set has non-finite particles")
    # Both arrays are made here and held nowhere else, so they are frozen in
    # place rather than copied and checked again as a caller's would be;
    # n copies of 1/n sum to 1 far inside the set's renormalizing tolerance.
    pset = object.__new__(WeightedParticleSet)
    object.__setattr__(pset, "layout", density.layout)
    for name, value in (("particles", particles), ("weights", np.full(n, 1.0 / n))):
        value.setflags(write=False)
        object.__setattr__(pset, name, value)
    return pset


def _draws(density: GaussianDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` i.i.d. draws from ``density``, one per row."""
    draws = np.dot(rng.standard_normal((n, density.dim)), density._chol.T)
    draws += density.mean
    return draws


# ---------------------------------------------------------------------------
# Vectorized sequential models
# ---------------------------------------------------------------------------


class _SequentialModels:
    """An action's transition or observation models, bound to a belief layout.

    Every model reads columns of an augmented state array whose rows are
    ``[belief state | stacked new blocks]``, which the transition builds
    once and the observation reads as given, and fills its own slice of an
    output array; the two subclasses differ only in where that output lives.
    Per model it holds the input columns, the output slice and the model's
    :attr:`~LinearGaussianModel._transposes`, which each model derives once,
    so a product reads its factor as it is.  A caller that builds both passes
    them one ``bound``, the action's :func:`_bind_inputs`.
    """

    def __init__(self, layout: StateLayout, action: Action, bound: _Bound | None, own: slice):
        self.layout = layout
        bound = _bind_inputs(layout, action) if bound is None else bound
        # (input columns, output slice, matrix.T, noise_chol.T, inverse.T) per model
        self._models: list[tuple[np.ndarray, slice, np.ndarray, np.ndarray, np.ndarray]] = []
        self._log_norm = 0.0
        cursor = 0
        for model, cols in bound[own]:
            part = slice(cursor, cursor + model.output_dim)
            self._models.append((cols, part, *model._transposes))
            self._log_norm += model._log_norm
            cursor += model.output_dim

    def _sample(self, states: np.ndarray, noise: np.ndarray, out: np.ndarray) -> None:
        """Fill each model's slice of ``out`` from standard-normal innovations."""
        for cols, part, matrix_t, chol_t, _inverse_t in self._models:
            out[:, part] = np.dot(states[:, cols], matrix_t) + np.dot(noise[:, part], chol_t)

    def _whitened_means(self, states: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill each model's slice of ``out`` with its mean given ``states``,
        in units of its noise factor, in one pass."""
        for cols, part, matrix_t, _chol_t, inverse_t in self._models:
            out[:, part] = np.dot(np.dot(states[:, cols], matrix_t), inverse_t)
        if not np.isfinite(out).all():
            raise ValueError("cannot whiten non-finite values")
        return out

    def _whiten(self, y: np.ndarray) -> np.ndarray:
        """Each model's slice of ``y`` in units of its noise factor."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if not np.isfinite(y).all():
            raise ValueError("cannot whiten non-finite values")
        out = np.empty_like(y)
        for _cols, part, _matrix_t, _chol_t, inverse_t in self._models:
            out[:, part] = np.dot(y[:, part], inverse_t)
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

    def grid_evaluator(self, states: np.ndarray, weights: np.ndarray) -> ObservationGridEvaluator:
        """The weighted mixture over a fixed batch of augmented states, one
        weight per row, precomputed for repeated evaluation."""
        return ObservationGridEvaluator(self, states, weights)


class ObservationGridEvaluator:
    """The weighted Gaussian mixture ``eta(z) = sum_l w_l F_Z(z | batch_l)``
    over one propagated batch, scored against batches of queries.

    This is the hot loop of the marginal-likelihood estimate, so the batch
    side is built once: ``_centers`` holds every model's mean, whitened by
    its noise factor and laid side by side, from one pass over the models
    that never stores the plain means, and ``_weights`` the batch's weights
    beside them.  Queries are whitened the same way and summed by
    :func:`_log_kernel_sum`.
    """

    def __init__(self, seq_obs: SequentialObservation, states: np.ndarray, weights: np.ndarray):
        self._seq_obs = seq_obs
        self._centers = seq_obs._whitened_means(states, np.empty((len(states), seq_obs.obs_dim)))
        self._weights = weights

    @property
    def count(self) -> int:
        """The number of mixture components, one per batch row."""
        return self._centers.shape[0]

    def mixture_likelihood(self, z: np.ndarray) -> np.ndarray:
        """Log marginal likelihood ``log eta(z_m)`` per query row."""
        z_w = self._seq_obs._whiten(z)
        return _log_kernel_sum(z_w, self._centers, self._weights, self._seq_obs._log_norm)


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
    scratch = np.empty_like(out) if queries.shape[1] > 1 else None
    for k in range(1, queries.shape[1]):
        np.subtract.outer(queries[:, k], centers[:, k], out=scratch)
        scratch *= scratch
        out += scratch
    return out


def _log_kernel_sum(
    queries: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
    log_norm: float,
) -> np.ndarray:
    """``log sum_l w_l exp(-|q_m - c_l|^2 / 2) - log_norm`` per query row.

    Queries (m x d) and centers (n x d) are whitened; zero weights drop
    their centers.  The tier, :func:`_fast_gauss_transform` at d = 1 and
    :func:`_gram_sum` at d >= 2, returns its log sums and the rows it does
    not certify; those rows, and only those, go once to
    :func:`_log_sum_exp_rows`, and ``log_norm`` is subtracted from every row
    after.  Nothing else alters a row, and each tier gives a row the same
    bits alone or in any batch.
    """
    tier = _fast_gauss_transform if centers.shape[1] == 1 else _gram_sum
    out, rejected = tier(queries, centers, weights)
    if rejected.any():
        todo = rejected.nonzero()[0]
        out[todo] = _log_sum_exp_rows(queries[todo], centers, weights)
    out -= log_norm
    return out


def _gram_sum(
    queries: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``log sum_l w_l exp(-|q_m - c_l|^2 / 2)`` per query row at d >= 2,
    and a mask of the rows it does not certify.

    Both sides are centered on the centers' mean, which changes no
    distance, and one product of ``[q | 1 | |q|^2 / 2]`` with ``[c | -|c|^2
    / 2 | -1]`` gives every cell's exponent ``-|q - c|^2 / 2``, so no
    exponential overflows; the weights are summed in one matrix-vector
    product.  The rows are padded to whole blocks of 16 and every block is
    one product of the same shape, so a row's bits do not depend on the
    batch.  Where a chunk of blocks may reach below -690 its cells are
    clamped at -700, which changes no row whose own cells cannot.  A cell
    rounds at about eps times ``(|q| + |c|)^2 / 2``.  The centers that carry
    all but ``e^-40`` of a row's sum lie within ``sqrt(2 depth)`` of it,
    where ``depth = 40 - log(sum / sum_l w_l)``, so a row is certified when
    ``(2 |q| + sqrt(2 depth))^2 / 2 <= 3000`` (eps times 3000 is 6.7e-13)
    and its sum is at least ``e^-660`` times the weights' sum, so that the
    clamped cells cannot show in it (and at least 1e-300).
    """
    n_queries, n_centers = queries.shape[0], centers.shape[0]
    d = centers.shape[1]
    # the centers' mean, as ndarray.mean takes it, without its wrapper
    shift = np.add.reduce(centers, axis=0) / n_centers
    # [q | 1 | |q|^2 / 2] against the columns [c; -|c|^2 / 2; -1]: one
    # product gives -|q - c|^2 / 2 per cell
    gram = np.empty((d + 2, n_centers))
    np.subtract(centers.T, shift[:, None], out=gram[:d])
    np.einsum("ij,ij->j", gram[:d], gram[:d], out=gram[d])
    gram[d] *= -0.5
    gram[d + 1] = -1.0
    max_col = -float(gram[d].min())
    n_blocks = -(-n_queries // _GRAM_ROWS)
    padded = np.zeros((n_blocks * _GRAM_ROWS, d + 2))
    rows = padded[:n_queries]
    np.subtract(queries, shift, out=rows[:, :d])
    rows[:, d] = 1.0
    half = np.einsum("ij,ij->i", rows[:, :d], rows[:, :d])
    half *= 0.5
    rows[:, d + 1] = half
    # the precision bound below is at least (2 |q|)^2 / 2
    rejected = 4.0 * half > _GRAM_GUARD
    if rejected.any():
        # a row left to log-sum-exp is a zero row here, which clamps nothing
        rows[rejected] = 0.0
    blocks = padded.reshape(n_blocks, _GRAM_ROWS, d + 2)
    per_chunk = max(1, _CHUNK_CELLS // (_GRAM_ROWS * n_centers))
    buffer = np.empty((min(per_chunk, n_blocks), _GRAM_ROWS, n_centers))
    total = np.empty((n_blocks, _GRAM_ROWS))
    for start in range(0, n_blocks, per_chunk):
        chunk = blocks[start : start + per_chunk]
        grid = np.matmul(chunk, gram, out=buffer[: chunk.shape[0]])
        # |q - c|^2 / 2 <= (|q| + |c|)^2 / 2 bounds how deep a row's cells reach
        reach = float(chunk[:, :, d + 1].max())
        if reach + max_col + 2.0 * math.sqrt(reach * max_col) > _GRAM_REACH:
            np.maximum(grid, _GRAM_CLAMP, out=grid)
        np.exp(grid, out=grid)
        np.matmul(grid, weights, out=total[start : start + per_chunk])
    total = total.reshape(-1)[:n_queries]
    weight = float(weights.sum())
    floor = max(1e-300, math.exp(_GRAM_CLAMP + 40.0) * weight)
    # a row below the floor is rejected whatever its log, which the floor
    # keeps finite
    out = np.log(np.maximum(total, floor))
    # The cells that carry all but e^-40 of a row's sum lie within
    # sqrt(2 depth) of q, so their |c| is at most |q| + sqrt(2 depth) and
    # they round at about eps times (2 |q| + sqrt(2 depth))^2 / 2 (weights
    # that sum below 1e-300 send every row below the floor).
    depth = (40.0 + math.log(max(weight, 1e-300))) - out
    bound = np.sqrt(half, out=half)
    bound *= 2.0
    bound += np.sqrt(depth, out=depth)
    bound *= bound
    kept = bound <= _GRAM_GUARD
    kept &= total >= floor
    rejected |= ~kept
    return out, rejected


def _log_sum_exp_rows(
    queries: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """The kernel sum by max-shifted log-sum-exp over direct differences,
    in blocks of about ``_CHUNK_CELLS`` cells."""
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    out = np.empty(queries.shape[0])
    rows = min(max(1, _CHUNK_CELLS // centers.shape[0]), queries.shape[0])
    buffer = np.empty((rows, centers.shape[0]))
    for start in range(0, queries.shape[0], rows):
        block = queries[start : start + rows]
        grid = _squared_distances(block, centers, out=buffer[: block.shape[0]])
        grid *= -0.5
        grid += log_w
        peak = grid.max(axis=1)
        grid -= peak[:, None]
        # terms below exp(-700) of the peak add nothing to the sum, and
        # exp is several times slower on inputs that underflow
        np.maximum(grid, -700.0, out=grid)
        np.exp(grid, out=grid)
        out[start : start + block.shape[0]] = np.log(grid.sum(axis=1)) + peak
    return out


def _series_tail(rho: float, order: int) -> float:
    """A bound on ``sum_{n >= order} rho^n / sqrt(n!)`` by a geometric
    series, or inf unless ``rho < 1``."""
    if not rho < 1.0:
        return math.inf
    return rho**order / math.sqrt(math.factorial(order)) / (1.0 - rho / math.sqrt(order + 1))


@cache
def _taylor_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constants of the translation in :func:`_fast_gauss_transform`,
    built at first use.

    Window slot ``i`` of a target box reads the box ``d_i = (reach - i)
    ell`` kernel lengths before it, ``ell = 1.25 / sqrt(2)``.  Per slot: the
    translation ``T_i[n, k] = (-1)^k h_{n+k}(d_i) / (n! k!)`` of the raw
    moments ``sum w (s - a)^n`` (in extended precision); the certified
    error per unit of their magnitudes that does not depend on the centers;
    and the Hermite truncation's factor ``exp(-max(|d_i| - radius, 0)^2 /
    2)``.
    """
    p, q, reach = _HERMITE_ORDER, _TAYLOR_ORDER, _FGT_REACH
    ell = np.longdouble(_FGT_BOX) / np.sqrt(np.longdouble(2.0))
    d = np.arange(reach, -reach - 1, -1) * ell
    h = np.empty((p + q - 1, d.size), dtype=np.longdouble)
    h[0] = np.exp(-d * d)
    h[1] = 2.0 * d * h[0]
    for m in range(1, p + q - 2):
        h[m + 1] = 2.0 * d * h[m] - 2.0 * m * h[m - 1]
    factorial = np.array([math.factorial(m) for m in range(p + q)], dtype=np.longdouble)
    k = np.arange(q)
    sign = np.where(k % 2, -1.0, 1.0)
    table = np.stack(
        [h[n : n + q].T * sign / (factorial[n] * factorial[:q]) for n in range(p)], axis=1
    ).astype(float)
    d = d.astype(float)
    # rounding: (p + q) eps times the terms' magnitudes at |v| = radius;
    # Taylor truncation: 1.0865 exp(-d^2 / 2) 2^n / sqrt(n!) tail(2 radius, q)
    growth = (2.0 ** np.arange(p) / np.sqrt(factorial[:p])).astype(float)
    error = (p + q) * _EPS * (np.abs(table) @ _FGT_RADIUS ** k.astype(float)) + (
        _CRAMER
        * _series_tail(2.0 * _FGT_RADIUS, q)
        * np.exp(-0.5 * d * d)[:, None]
        * growth
    )
    hermite_decay = np.exp(-0.5 * np.maximum(np.abs(d) - _FGT_RADIUS, 0.0) ** 2)
    return _frozen_array(table), _frozen_array(error), _frozen_array(hermite_decay)


def _certified(total: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Rows whose certified error is at most 1e-13 of a sum of at least
    1e-300."""
    return (bound <= _FGT_REL_BOUND * total) & (total >= 1e-300)


def _fast_gauss_transform(
    queries: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``log sum_l w_l exp(-(q_m - c_l)^2 / 2)`` per query row at d = 1 by
    the fast Gauss transform (Greengard & Strain 1991), and a mask of the
    rows it does not certify.

    In units ``t = x / sqrt(2)`` the kernel is ``exp(-(t - s)^2)``.  The
    positive-weight centers are binned once on the lattice ``j * 1.25``
    (whitened), within ``ell / 2 = 0.442`` of their box's point ``a``
    (``ell = 1.25 / sqrt(2)``), and each occupied box keeps the raw moments
    ``M_n = sum w (s - a)^n``, ``n < 24``, so that ``sum w exp(-(t - s)^2)
    = sum_n M_n / n! h_n(t - a)`` with ``h_n(u) = H_n(u) exp(-u^2)``.  A row
    reads the boxes in its reach, 8 on each side of its own, in one of two
    ways:

    - the translation, when there are at least 1000 centers and at least 8
      per target box (a box within the reach of an occupied one): each
      target box turns the moments in its reach into one 32-term polynomial
      in ``v = t - c`` about its point ``c``, by ``h_n(d + v) = sum_k (-1)^k
      h_{n+k}(d) v^k / k!``, and a row is one Horner pass over its box's;
    - the direct Hermite sum over the occupied boxes of the row's window,
      for the rows the translation does not certify, or every row when it
      does not run.

    A row's certified error adds the Hermite truncation (Cramer's inequality
    with ``delta = max |s - a|``), the weight past the reach times
    ``exp(-((reach + 1) ell - radius - delta)^2)``, and the rounding of its
    terms; the translation adds its Taylor truncation (the same inequality
    with ``(n + k)! <= 2^(n+k) n! k!``) and reads the Hermite truncation and
    the terms' magnitudes at ``|v| = radius``.  A row is kept when
    :func:`_certified` and ``|v| <= radius``.  Lattice indices past 2^50
    leave every row uncertified.  Which way a row takes depends on the
    centers and the row alone, and each row's arithmetic is its own, so a
    row gives the same bits in any batch.
    """
    queries, centers = queries[:, 0], centers[:, 0]
    n_queries = queries.shape[0]
    keep = weights > 0
    # the positive-weight centers in box order, and where each box starts
    box_of = np.rint(centers[keep] / _FGT_BOX)
    order = np.argsort(box_of)
    box_of = box_of[order]
    starts = np.flatnonzero(np.diff(box_of, prepend=-np.inf))
    labels = box_of[starts]
    n_boxes = labels.size
    if not (n_boxes and max(-labels[0], labels[-1]) < 2.0**50):
        return np.full(n_queries, -np.inf), np.ones(n_queries, dtype=bool)
    p, reach = _HERMITE_ORDER, _FGT_REACH
    offset = (centers[keep][order] - box_of * _FGT_BOX) / math.sqrt(2.0)
    # moments[j, n] = sum over occupied box j of w (s - a)^n, summed pairwise
    # over the box's centers, so their rounding grows with the log of its count
    moments = np.empty((n_boxes, p))
    power = weights[keep][order]
    for n in range(p):
        moments[:, n] = np.add.reduceat(power, starts)
        power *= offset
    delta = float(np.abs(offset).max())
    trunc = _CRAMER * _series_tail(math.sqrt(2.0) * delta, p)
    ell = _FGT_BOX / math.sqrt(2.0)
    drop = math.exp(-(((reach + 1) * ell - _FGT_RADIUS - delta) ** 2))
    total_w = float(moments[:, 0].sum())

    lattice = np.rint(queries / _FGT_BOX)
    v = (queries - lattice * _FGT_BOX) / math.sqrt(2.0)
    far = ~(np.abs(v) <= _FGT_RADIUS)
    todo = np.arange(n_queries)
    total, bound = np.zeros(n_queries), np.empty(n_queries)
    # target box b is lattice box base + b; dense row r is box base - reach + r
    base = labels[0] - reach
    n_targets = int(labels[-1] - labels[0]) + 2 * reach + 1
    if box_of.size >= max(_TAYLOR_MIN_CENTERS, _TAYLOR_DENSITY * n_targets):
        q = _TAYLOR_ORDER
        table, error, hermite_decay = _taylor_tables()
        error = error.copy()
        error[:, 0] += trunc * hermite_decay
        dense = np.zeros((n_targets + 2 * reach, p))
        dense[(labels - base).astype(np.intp) + reach] = moments
        # coef[k, b] is the v^k coefficient of target box b
        coef = np.zeros((q, n_targets))
        box_bound = np.zeros(n_targets)
        near_w = np.zeros(n_targets)
        for i in range(2 * reach + 1):
            window = dense[i : i + n_targets]
            coef += table[i].T @ window.T
            box_bound += np.abs(window) @ error[i]
            near_w += window[:, 0]
        box_bound += drop * np.maximum(total_w - near_w, 0.0)
        target = np.clip(lattice - base, -1.0, n_targets)
        outside = far | (target < 0) | (target >= n_targets)
        target[outside] = 0.0
        target = target.astype(np.intp)
        v_in = np.where(outside, 0.0, v)
        total = np.take(coef[q - 1], target)
        for k in range(q - 2, -1, -1):
            total *= v_in
            total += np.take(coef[k], target)
        bound = np.take(box_bound, target)
        bound[outside] = np.inf
        todo = np.flatnonzero(~_certified(total, bound))

    if todo.size:
        # the moments M_n / n! per order, then an empty box that pads the windows
        factorial = np.array([math.factorial(n) for n in range(p)], dtype=float)
        scaled = np.zeros((p, n_boxes + 1))
        scaled[:, :n_boxes] = moments.T / factorial[:, None]
        points = np.append(labels * _FGT_BOX, np.inf)
        first = np.searchsorted(labels, lattice[todo] - reach)
        # fewer boxes than a window holds all fit in one from any first box
        slots = np.arange(min(2 * reach + 1, n_boxes))[:, None]
        rows = _FGT_PAIRS // slots.size
        for start in range(0, todo.size, rows):
            chunk = todo[start : start + rows]
            # (slot, row) arrays; slots past the row's reach read the empty box
            idx = np.minimum(first[start : start + rows] + slots, n_boxes)
            point = np.take(points, idx)
            outside = point > (lattice[chunk] + reach) * _FGT_BOX
            idx[outside] = n_boxes
            u = (queries[chunk] - point) / math.sqrt(2.0)
            u[outside] = 0.0
            g = np.exp(-0.5 * u * u)
            two_u = 2.0 * u
            h, h_prev = g * g, np.zeros_like(u)
            acc, mag = np.zeros_like(u), np.zeros_like(u)
            for n in range(p):
                term = np.take(scaled[n], idx)
                term *= h
                acc += term
                mag += np.abs(term, out=term)
                # h_{n+1} = 2u h_n - 2n h_{n-1}
                h_prev *= -2.0 * n
                h_prev += two_u * h
                h, h_prev = h_prev, h
            w_in = np.take(scaled[0], idx)
            # slots are summed one at a time, so a row's bits do not depend on
            # how many rows share its chunk
            total[chunk] = reduce(np.add, acc)
            bound[chunk] = (
                trunc * reduce(np.add, w_in * g)
                + drop * np.maximum(total_w - reduce(np.add, w_in), 0.0)
                + p * _EPS * reduce(np.add, mag)
            )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(total), far | ~_certified(total, bound)
