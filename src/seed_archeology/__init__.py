"""Uniform attachment trees, seed recovery, and a validation harness.

Grow recursive trees from path, star, random-recursive, or custom seeds;
rank vertices by anti-centrality (largest branch left after deletion);
run the centrality-based seed finders on label-scrambled shapes; and
validate the exact expectation formulas and tail bounds behind them with
a reproducible Monte Carlo harness.
"""

from .centrality import (
    CentralityProfile,
    anti_centrality,
    branch_sizes_at,
    select_most_central,
)
from .experiment import (
    VALIDATION_SUITES,
    ExperimentConfig,
    MetricSummary,
    Summary,
    TrialArtifacts,
    TrialRecord,
    config_from_dict,
    load_config,
    run_experiment,
    run_trial_artifacts,
    validate_formulas,
)
from .finders import (
    EstimateKind,
    FinderKind,
    FinderParams,
    SeedEstimate,
    find_path_seed,
    find_star_seed,
    find_urrt_seed,
    guarantee_threshold,
)
from .rng import DEFAULT_MASTER_SEED, SEED_ENV_VAR, RngHandle
from .stats import (
    CamouflageReport,
    CollisionProbability,
    DescendantHistogram,
    TailCheckResult,
    count_camouflaging,
    deep_tail_check,
    descendant_histogram,
    mcdiarmid_tail_check,
    path_collision_frequency,
    path_collision_probability,
    polya_fraction_samples,
    rooted_subtree_sizes,
    singleton_parents,
    star_collision_frequency,
    star_collision_probability,
)
from .trees import (
    ArrivalTree,
    SeedKind,
    SeedSpec,
    ShapeView,
    build_seed,
    grow,
    identity_view,
    scramble,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalTree",
    "CamouflageReport",
    "CentralityProfile",
    "CollisionProbability",
    "DEFAULT_MASTER_SEED",
    "DescendantHistogram",
    "EstimateKind",
    "ExperimentConfig",
    "FinderKind",
    "FinderParams",
    "MetricSummary",
    "RngHandle",
    "SEED_ENV_VAR",
    "SeedEstimate",
    "SeedKind",
    "SeedSpec",
    "ShapeView",
    "Summary",
    "TailCheckResult",
    "TrialArtifacts",
    "TrialRecord",
    "VALIDATION_SUITES",
    "anti_centrality",
    "branch_sizes_at",
    "build_seed",
    "config_from_dict",
    "count_camouflaging",
    "deep_tail_check",
    "descendant_histogram",
    "find_path_seed",
    "find_star_seed",
    "find_urrt_seed",
    "grow",
    "guarantee_threshold",
    "identity_view",
    "load_config",
    "mcdiarmid_tail_check",
    "path_collision_frequency",
    "path_collision_probability",
    "polya_fraction_samples",
    "rooted_subtree_sizes",
    "run_experiment",
    "run_trial_artifacts",
    "scramble",
    "select_most_central",
    "singleton_parents",
    "star_collision_frequency",
    "star_collision_probability",
    "validate_formulas",
]
