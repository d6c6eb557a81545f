"""Structure learning toolkit for walk-summable Gaussian graphical models.

The package covers the full experimental loop: graph generation and local
vertex separation (:mod:`ggmlearn.graph`), model synthesis and walk-sum
analysis (:mod:`ggmlearn.model`), reproducible sampling
(:mod:`ggmlearn.sampler`), structure estimation by conditional-statistic
thresholding (:mod:`ggmlearn.estimator`), Gaussian belief propagation
(:mod:`ggmlearn.lbp`), information-theoretic sample-size bounds
(:mod:`ggmlearn.bounds`), and a sweep harness with a CLI
(:mod:`ggmlearn.harness`, :mod:`ggmlearn.cli`).
"""

__version__ = "0.1.0"

from .errors import (
    GenerationFailed,
    GgmError,
    InvalidParameter,
    NotPositiveDefinite,
    NumericFailure,
    SynthesisFailed,
)
from .graph import (
    EnsembleConfig,
    Graph,
    SeparationProfile,
    ball,
    chain_graph,
    cycle_graph,
    edit_distance,
    gamma_subgraph,
    generate_er,
    generate_regular,
    generate_smallworld,
    girth,
    is_locally_treelike,
    local_separator,
    separation_profile,
    torus_grid,
)
from .model import (
    AssumptionReport,
    GaussianModel,
    check_assumptions,
    conditional_covariance_exact,
    edge_coupling_norms,
    exact_covariance,
    partial_correlation_matrix,
    synthesize_model,
    truncated_walksum_covariance,
    walk_summability_alpha,
)
from .sampler import SampleSet, empirical_covariance, sample
from .estimator import (
    EstimationResult,
    EstimatorConfig,
    OracleGap,
    PairDecision,
    cmit,
    default_threshold,
    min_conditional_statistic,
    oracle_gap,
)
from .lbp import LbpResult, lbp_run, lbp_variance_error
from .bounds import (
    BoundsConfig,
    BoundsReport,
    DistortionBound,
    FanoBound,
    TypicalSet,
    atypical_probability_bound,
    binary_entropy,
    bounds_report,
    fano_lower_bound,
    fano_lower_bound_distortion,
    rate_function,
    typical_set,
)
from .harness import (
    ConfigSummary,
    SweepResult,
    SweepRow,
    TrialConfig,
    TrialOutcome,
    lane_seed,
    run_config,
    run_manifest,
    run_trial,
    sweep,
    trial_seed,
)
