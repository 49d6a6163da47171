"""Augmented mutual information over involved state subsets.

Estimate the expected information an action's observations carry about a
high-dimensional state, working only on the low-dimensional subset of
variables the action's models actually touch.  Ships a sequential Monte
Carlo estimator that never reconstructs posterior belief surfaces, two
KDE re-substitution baselines, a closed-form linear-Gaussian oracle for
verification, an open-loop belief-tree solver, and an active-SLAM
benchmark harness with a CLI.
"""

from .analytic import (
    AugmentedMiResult,
    FootprintError,
    augmented_mi_analytic,
    condition_gaussian,
    joint_state_observation,
    mi_analytic,
    observation_block_ids,
    superposition_mi_analytic,
)
from .bench import (
    CSV_HEADER,
    ResultRow,
    emit_csv,
    evaluate_method,
    read_csv,
    run_actions_experiment,
    run_dimension_sweep,
)
from .involved import (
    InvolvedSet,
    analytic_calculator,
    determine_involved,
    invmi,
    kde_calculator,
    mismc_calculator,
)
from .kde import (
    BandwidthError,
    KdeConfig,
    invmi_kde_augmented_mi,
    naive_kde_augmented_mi,
    resubstitution_entropy,
)
from .mi import (
    ALL_METHODS,
    METHOD_ANALYTIC,
    METHOD_INVMI_KDE,
    METHOD_MISMC,
    METHOD_NAIVE_KDE,
    MiEstimate,
)
from .planner import (
    AnalyticMiBackend,
    BeliefNode,
    ObjectiveValue,
    REWARD_CONSECUTIVE_MI,
    REWARD_INVOLVED_IG,
    SmcMiBackend,
    sequential_mi_direct,
    solve,
)
from .scenario import (
    ScenarioError,
    SlamScenario,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
)
from .smc import (
    BudgetError,
    MismcAccumulator,
    MismcContext,
    SampleBudget,
    mismc_context,
    mismc_estimate,
    mismc_update,
)
from .state import (
    Action,
    GaussianDensity,
    LinearGaussianModel,
    SequentialObservation,
    SequentialTransition,
    StateLayout,
    UnknownBlockError,
    VariableBlock,
    WeightedParticleSet,
    compose_actions,
    marginalize_gaussian,
    marginalize_particles,
    sample_particles,
)

__version__ = "0.1.0"
