"""Sequential Monte Carlo estimation of augmented mutual information.

The estimator never reconstructs a posterior belief surface.  It works from
the superposition form

    MI = -H[new | state] - H[obs | state, new] + H[obs]

Every model is linear with additive Gaussian noise whose covariance does not
depend on the state, so the first two terms are the summed entropies of the
action's noise, known in closed form whatever the belief.  Only H[obs] is
estimated: prior particles are propagated through the transition and
observation models, and each sampled observation z contributes log eta(z),
its marginal likelihood under the prior, estimated from a second particle
pass that :class:`MismcContext` draws once per run.  The estimate is

    -(noise entropy) - weights x log eta

This holds only for that noise model: a noise covariance that depends on the
state makes the first two terms expectations over the belief, which this
estimator does not take.  log eta is computed in log space, so it stays
accurate however far in the tail a sampled z lands; rows where eta is below
1e-300 are counted as ``eta_floor_events``.

Determinism contract: every outer particle draws its noise from a
counter-based stream keyed by (run root, particle index), so an incremental
run that consumes the particles in installments draws exactly the noise of a
single batch run.  Each particle's log eta is computed by arithmetic that
does not depend on the installment: the normalizer's kernel sum gives a row
the same bits alone or in any batch (see :func:`state._log_kernel_sum`).
The accumulator keeps each particle's log eta in index order and every
update sums them once over all particles consumed, so any installment
schedule reproduces the batch estimate bit for bit.

Cost: the noise draws and the propagation through every model scale with
n1 + n4, and the normalizer's kernel sum with n1 x n4 cells at d >= 2 (with
about n1 + n4 at d = 1, where the fast Gauss transform sums boxes).  The
rest is paid once per call, whatever n1 and n4 are: binding each model's
input columns, keying two Philox streams, and a few dozen small array
operations per model and per kernel sum.  Each model's transposed factors
and each action's noise entropy are derived once, not per call.  On the
planner workload's steps (2-core Xeon, one BLAS thread) a call costs about
190 us at depth 1 and 240 us at depth 3 with n1 = n4 = 16, against 480 and
710 us with n1 = n4 = 300.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .mi import METHOD_MISMC, MiEstimate
from .state import (
    Action,
    SequentialObservation,
    SequentialTransition,
    WeightedParticleSet,
    _bind_inputs,
    _check_count,
    _derived_rng,
    ensure_rng,
)

# Log marginal likelihoods below this count as floor events: the sampled z
# landed where the prior-predictive mass is numerically zero.  The values are
# kept as computed; the count is reported, not hidden.
_LOG_ETA_FLOOR = math.log(1e-300)

_NORMALIZER_KEY = 0

# The counter-based generator emits 4 uint64 words per counter step.
_PHILOX_BLOCK = 4


class BudgetError(ValueError):
    """Sample budget inconsistent with the prior particle set."""


class ContextMismatchError(ValueError):
    """Accumulator and context come from different estimator runs."""


@dataclass(frozen=True)
class SampleBudget:
    """Sample counts of the estimator.

    ``n1`` outer prior particles, each propagated once through the action's
    transitions and observations, and ``n4`` prior particles in the
    normalizer pass that estimates log eta (``n1`` when not given).
    """

    n1: int
    n4: int | None = None

    def __post_init__(self):
        if self.n4 is None:
            object.__setattr__(self, "n4", self.n1)
        for name in ("n1", "n4"):
            _check_count(name, getattr(self, name), BudgetError)


@dataclass(frozen=True)
class MismcAccumulator:
    """Running state of an (anytime) estimator pass.

    ``terms`` holds each consumed particle's log eta, in index order, and
    ``estimate`` is the action's noise entropy, negated, minus the prior
    weights' dot product with ``terms``, at every checkpoint; feeding more
    particles through :func:`mismc_update` refines it without restarting.
    """

    estimate: float = 0.0
    consumed: int = 0
    rng_state: tuple[int, ...] = ()
    eta_floor_events: int = 0
    elapsed_ns: int = 0
    terms: np.ndarray = field(default_factory=lambda: np.empty(0), compare=False)


class MismcContext:
    """Everything an estimator run needs: prior, compiled models, budget,
    the run's RNG root, the normalizer pass, and ``elapsed_ns``, the time
    the build took.

    The normalizer pass is the second particle set that log eta(z) is
    averaged over, drawn once per run and reused for every sampled
    observation, as a particle filter would reuse its weighted set:
    ``normalizer`` holds its propagated batch and ``normalizer_weights`` its
    weights.  When ``n4`` equals the prior size the set is the prior itself
    with its weights; otherwise ``n4`` particles are drawn
    weight-proportionally and averaged uniformly.  Set member ``i`` is
    propagated once, with the noise of counter window ``i`` of the
    normalizer stream.
    """

    def __init__(
        self,
        prior: WeightedParticleSet,
        action: Action,
        budget: SampleBudget,
        rng: np.random.Generator | int,
    ):
        start_ns = time.perf_counter_ns()
        rng = ensure_rng(rng)
        if budget.n1 != prior.n:
            raise BudgetError(
                f"budget n1={budget.n1} must equal the prior particle count {prior.n}; "
                "sample the prior at the budget size"
            )
        self.prior = prior
        self.action = action
        self.budget = budget
        bound = _bind_inputs(prior.layout, action)
        self.transition = SequentialTransition(prior.layout, action, bound)
        self.observation = SequentialObservation(prior.layout, action, bound)
        if not action.observations:
            raise ValueError(f"action {action.id!r} has no observations")
        # Two independent stream keys: outer-particle noise and normalizer.
        self.root = tuple(rng.integers(0, 2**63, size=4).tolist())
        norm_root = self.root[2:]
        n4 = budget.n4
        if n4 == prior.n:
            x, w = prior.particles, prior.weights
        else:
            sel_rng = _derived_rng(norm_root, (_NORMALIZER_KEY,))
            sel = sel_rng.choice(prior.n, size=n4, p=prior.weights)
            x, w = prior.particles[sel], np.full(n4, 1.0 / n4)
        noise = _particle_noise(norm_root, 0, n4, self.transition.new_dim)
        states = self.transition.sample_with_noise(x, noise)
        self.normalizer = self.observation.grid_evaluator(states)
        self.normalizer_weights = w
        self.elapsed_ns = time.perf_counter_ns() - start_ns

    def empty_accumulator(self) -> MismcAccumulator:
        return MismcAccumulator(rng_state=self.root)

    def result(self, acc: MismcAccumulator) -> MiEstimate:
        """Package a finished (or partial) accumulation as an estimate; its
        elapsed time is the context build plus every update so far."""
        counts: Mapping[str, int] = {
            "n1": acc.consumed,
            "n4": self.budget.n4,
            "eta_floor_events": acc.eta_floor_events,
        }
        return MiEstimate(
            value=acc.estimate,
            method=METHOD_MISMC,
            elapsed=(self.elapsed_ns + acc.elapsed_ns) / 1e9,
            sample_counts=counts,
        )


class _StreamKey(np.random.bit_generator.ISeedSequence):
    """The key of a Philox stream as a seed sequence: Philox takes its key
    from ``generate_state(2, uint64)``, so it is keyed exactly as by
    ``key=``, without the entropy-drawn seed sequence it builds alongside a
    key (about 6 of 10 us per stream on a 2-core Xeon)."""

    def __init__(self, words: tuple[int, ...]):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.array(self.words, dtype=dtype)


def _uniform_stride(per_particle: int) -> int:
    """Uniform draws reserved per particle, padded to whole counter blocks."""
    blocks = (per_particle + _PHILOX_BLOCK - 1) // _PHILOX_BLOCK
    return max(1, blocks) * _PHILOX_BLOCK


def _box_muller(uniforms: np.ndarray, width: int) -> np.ndarray:
    """``width`` standard normals per row from its leading uniform pairs
    (fixed consumption per normal); at an odd width the last pair's sine,
    which the row would drop, is not taken."""
    pairs = uniforms[:, : 2 * ((width + 1) // 2)]
    u1 = np.maximum(pairs[:, 0::2], 1e-300)
    angle = (2.0 * np.pi) * pairs[:, 1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.empty((uniforms.shape[0], width))
    out[:, 0::2] = radius * np.cos(angle)
    half = width // 2
    out[:, 1::2] = radius[:, :half] * np.sin(angle[:, :half])
    return out


def _particle_noise(
    root: tuple[int, ...], start: int, count: int, per_particle: int
) -> np.ndarray:
    """Standard-normal innovations for particle indices ``start`` to
    ``start + count - 1``, one row each.

    Each index owns a fixed counter window of the keyed Philox stream, so a
    row's draws depend only on (root, index) and batch splits cannot change
    them.  Normals come from uniform pairs via Box-Muller because uniform
    generation consumes a fixed word count, which keeps the per-index
    windows aligned; only the pairs a row uses are transformed.
    """
    stride = _uniform_stride(per_particle)
    bit_gen = np.random.Philox(_StreamKey(root), counter=int(start) * (stride // _PHILOX_BLOCK))
    uniforms = np.random.Generator(bit_gen).random((count, stride))
    return _box_muller(uniforms, per_particle)


def mismc_context(
    prior: WeightedParticleSet,
    action: Action,
    budget: SampleBudget,
    rng: np.random.Generator | int,
) -> MismcContext:
    """Prepare an anytime estimator run (see :class:`MismcContext`)."""
    return MismcContext(prior, action, budget, rng)


def mismc_update(
    acc: MismcAccumulator, additional_n1: int, context: MismcContext
) -> MismcAccumulator:
    """Consume the next ``additional_n1`` prior particles.

    The returned accumulator's ``estimate`` is bit for bit what a batch run
    over all particles consumed so far would produce: each particle's noise
    comes from its own (root, index) stream, its log eta is appended to
    ``terms``, and the sum is taken once over all of them in index order.
    """
    _check_count("additional_n1", additional_n1, BudgetError, least=0)
    if acc.rng_state != context.root:
        raise ContextMismatchError(
            "accumulator was started under a different context (RNG root differs)"
        )
    if additional_n1 == 0:
        return acc
    if acc.consumed + additional_n1 > context.prior.n:
        raise BudgetError(
            f"cannot consume {additional_n1} more particles: "
            f"{acc.consumed} of {context.prior.n} already used"
        )
    start_ns = time.perf_counter_ns()
    trans, obs = context.transition, context.observation
    lo, hi = acc.consumed, acc.consumed + additional_n1

    x = context.prior.particles[lo:hi]
    noise = _particle_noise(context.root[:2], lo, additional_n1, trans.new_dim + obs.obs_dim)
    states = trans.sample_with_noise(x, noise[:, : trans.new_dim])
    z = obs.sample_with_noise(states, noise[:, trans.new_dim :])

    log_eta = context.normalizer.mixture_likelihood(z, context.normalizer_weights)
    floors = int(np.count_nonzero(log_eta < _LOG_ETA_FLOOR))

    terms = np.concatenate((acc.terms, log_eta)) if lo else log_eta
    return MismcAccumulator(
        estimate=-context.action._noise_entropy - float(context.prior.weights[:hi] @ terms),
        consumed=hi,
        rng_state=acc.rng_state,
        eta_floor_events=acc.eta_floor_events + floors,
        elapsed_ns=acc.elapsed_ns + (time.perf_counter_ns() - start_ns),
        terms=terms,
    )


def mismc_estimate(
    prior: WeightedParticleSet,
    action: Action,
    budget: SampleBudget,
    rng: np.random.Generator | int,
) -> MiEstimate:
    """Batch run of the estimator over the whole budget.

    ``prior`` should be the involved-marginal belief; the full belief works
    too, the models simply ignore coordinates outside their footprints.
    """
    context = mismc_context(prior, action, budget, rng)
    return context.result(mismc_update(context.empty_accumulator(), budget.n1, context))
