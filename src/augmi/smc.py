"""Sequential Monte Carlo estimation of augmented mutual information.

The estimator never reconstructs a posterior belief surface.  It works from
the superposition form

    MI = -H[new | state] - H[obs | state, new] + H[obs]

Every model is linear with additive Gaussian noise whose covariance does not
depend on the state, so the first two terms are the summed entropies of the
action's noise, known in closed form whatever the belief.  Only H[obs] is
estimated: prior particles are propagated through the transition and
observation models, and each sampled observation z contributes log eta(z),
its marginal likelihood under the prior.  eta is one object: the weighted
Gaussian mixture over a second particle pass that :class:`MismcContext`
draws and propagates once per run, holding that pass's weights beside its
centers (:class:`state.ObservationGridEvaluator`).  The estimate is

    -(noise entropy) - weights x log eta

This holds only for that noise model: a noise covariance that depends on the
state makes the first two terms expectations over the belief, which this
estimator does not take.  log eta is computed in log space, so it stays
accurate however far in the tail a sampled z lands; the entries of the
accumulator's log-eta row below log(1e-300) are counted as
``eta_floor_events``, a count read from that row and stored nowhere else.

Determinism contract: each of a run's two keyed Philox streams, one for the
outer particles and one for the normalizer pass, is read in order, one row
of standard normals per particle, so particle ``i``'s noise is row ``i`` of
its stream.  :class:`MismcContext` draws both passes' rows once, when it is
built, and propagates and observes every particle of both passes there,
once: an installment reads the sampled observations of the particles it
consumes and runs no model, so any installment schedule uses exactly the
observations of a single batch run.  Each particle's log eta is computed by
arithmetic that does not depend on the installment: the normalizer's
kernel sum gives a row the same bits alone or in any batch (see
:func:`state._log_kernel_sum`).  The accumulator keeps each particle's log
eta in index order and every update sums them once over all particles
consumed, so any installment schedule reproduces the batch estimate bit for
bit.

Cost: the noise draws and the propagation through every model scale with
n1 + n4 and are paid once per run, in the context; the normalizer's kernel
sum scales with n1 x n4 cells at d >= 2 (with about n1 + n4 at d = 1, where
the fast Gauss transform sums boxes) and is all an installment pays.  The
rest is paid once per call, whatever n1 and n4 are: binding each model's
input columns, keying two Philox streams, and a few dozen small array
operations per model and per kernel sum.  Each model's transposed factors
and each action's noise entropy are derived once, not per call.  On the
planner workload's steps (2-core Xeon, one BLAS thread) one
``SmcMiBackend`` call on a Gaussian involved marginal, its prior draws
included, costs about 185 us at depth 1 and 215 us at depth 3 with
n1 = n4 = 16, against 400 and 605 us with n1 = n4 = 300.
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
    ``rng_state`` is the run root the accumulator was started under, which
    ties it to its context, the holder of every noise row.  The
    counts are read from ``terms``, which holds them: ``consumed`` is its
    length and ``eta_floor_events`` the number of its entries below
    ``log(1e-300)``.
    """

    estimate: float = 0.0
    rng_state: tuple[int, ...] = ()
    elapsed_ns: int = 0
    terms: np.ndarray = field(default_factory=lambda: np.empty(0), compare=False)

    @property
    def consumed(self) -> int:
        return len(self.terms)

    @property
    def eta_floor_events(self) -> int:
        return int(np.count_nonzero(self.terms < _LOG_ETA_FLOOR))


class MismcContext:
    """Everything an estimator run needs: prior, action, budget, the run's
    RNG root, the outer particles' observations, the normalizer pass, and
    ``elapsed_ns``, the time the build took.

    ``z`` holds one observation per prior particle, sampled here, the only
    place the action's models run: particle ``i`` is propagated and observed
    once, with row ``i`` of the outer stream's standard normals, whichever
    installment consumes it.

    The normalizer pass is the second particle set that log eta(z) is
    averaged over, drawn once per run and reused for every sampled
    observation, as a particle filter would reuse its weighted set:
    ``normalizer`` is eta itself, the weighted mixture over the set's
    propagated batch, which holds the set's weights beside its centers.
    When ``n4`` equals the prior size the set is the prior itself with its
    weights; otherwise ``n4`` particles are drawn weight-proportionally and
    averaged uniformly.  Set member ``i`` is propagated once, with row ``i``
    of the normalizer stream's noise.
    """

    def __init__(
        self,
        prior: WeightedParticleSet,
        action: Action,
        budget: SampleBudget,
        rng: np.random.Generator | int,
    ):
        start_ns = time.perf_counter_ns()
        if not action.observations:
            raise ValueError(f"action {action.id!r} has no observations")
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
        transition = SequentialTransition(prior.layout, action, bound)
        observation = SequentialObservation(prior.layout, action, bound)
        # Two independent stream keys: outer-particle noise and normalizer.
        # Four raw words shifted right one bit are the words
        # rng.integers(0, 2**63, size=4) gives from any 64-bit bit generator
        # (all of numpy's but MT19937), since at a power-of-two range
        # Lemire's method is a shift, without its per-call overhead.
        self.root = tuple((rng.bit_generator.random_raw(4) >> 1).tolist())
        norm_root = self.root[2:]
        n4 = budget.n4
        if n4 == prior.n:
            x, w = prior.particles, prior.weights
        else:
            sel_rng = _derived_rng(norm_root, (_NORMALIZER_KEY,))
            sel = sel_rng.choice(prior.n, size=n4, p=prior.weights)
            x, w = prior.particles[sel], np.full(n4, 1.0 / n4)
        new_dim = transition.new_dim
        width = new_dim + observation.obs_dim
        noise = _noise_stream(self.root[:2]).standard_normal((prior.n, width))
        norm_noise = _noise_stream(norm_root).standard_normal((n4, new_dim))
        # an output that overflows raises "cannot whiten non-finite values", not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            states = transition.sample_with_noise(prior.particles, noise[:, :new_dim])
            self.z = observation.sample_with_noise(states, noise[:, new_dim:])
            states = transition.sample_with_noise(x, norm_noise)
        self.normalizer = observation.grid_evaluator(states, w)
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


def _noise_stream(key: tuple[int, ...]) -> np.random.Generator:
    """The Philox stream keyed by ``key``, at its start."""
    return np.random.Generator(np.random.Philox(_StreamKey(key)))


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

    An installment is one kernel sum, over the particles' rows of the
    context's ``z``.  The returned accumulator's ``estimate`` is bit for bit
    what a batch run over all particles consumed so far would produce: their
    log eta are appended to ``terms`` and summed once in index order.
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
    lo, hi = acc.consumed, acc.consumed + additional_n1
    log_eta = context.normalizer.mixture_likelihood(context.z[lo:hi])
    terms = np.concatenate((acc.terms, log_eta)) if lo else log_eta
    return MismcAccumulator(
        estimate=-context.action._noise_entropy - float(context.prior.weights[:hi] @ terms),
        rng_state=acc.rng_state,
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
