"""Matrix logarithmic norms and incremental-stability certification.

The toolkit computes matrix measures under L1/L2/Linf/weighted norms, uses
them to certify (on sampled domains) that a nonlinear system contracts all
trajectory pairs exponentially, checks whether unbounded perturbations still
let every solution reach the origin, and verifies the resulting bounds on
simulated trajectories.
"""

from .certify import (
    ContractionCertificate,
    ConvergenceReport,
    DemidovichReport,
    Domain,
    IncrementalBoundReport,
    OriginConvergenceReport,
    RateIntegralReport,
    SamplingPlan,
    check_demidovich,
    check_forcing_ratio,
    classify_rate_integral,
    estimate_contraction_rate,
    verify_incremental_bound,
    verify_origin_convergence,
)
from .errors import (
    ConditioningError,
    ConfigError,
    DimensionError,
    DivergedError,
    EvaluationError,
    InvalidInputError,
    InvalidNormError,
    InvalidRateError,
    LogstabError,
    SymmetryError,
)
from .integrate import (
    FundamentalTrajectory,
    IntegratorConfig,
    Trajectory,
    TransitionBoundReport,
    check_transition_bounds,
    integrate,
    integrate_fundamental,
)
from .linalg import (
    NormKind,
    induced_matrix_norm,
    sym_eig,
    sym_eig_max,
    vec_norm,
)
from .lognorm import (
    LogNormResult,
    log_norm,
    log_norm_all_routes,
    log_norm_limit_estimate,
    log_norm_limit_table,
    log_norm_pair,
    log_norm_quadratic_form,
)
from .system import (
    QuadratureRule,
    SystemSpec,
    averaged_jacobian,
    averaged_jacobian_residual,
    eval_rhs,
    jacobian,
)

__version__ = "0.1.0"

__all__ = [
    "ContractionCertificate",
    "ConvergenceReport",
    "DemidovichReport",
    "Domain",
    "IncrementalBoundReport",
    "OriginConvergenceReport",
    "RateIntegralReport",
    "SamplingPlan",
    "check_demidovich",
    "check_forcing_ratio",
    "classify_rate_integral",
    "estimate_contraction_rate",
    "verify_incremental_bound",
    "verify_origin_convergence",
    "ConditioningError",
    "ConfigError",
    "DimensionError",
    "DivergedError",
    "EvaluationError",
    "InvalidInputError",
    "InvalidNormError",
    "InvalidRateError",
    "LogstabError",
    "SymmetryError",
    "FundamentalTrajectory",
    "IntegratorConfig",
    "Trajectory",
    "TransitionBoundReport",
    "check_transition_bounds",
    "integrate",
    "integrate_fundamental",
    "NormKind",
    "induced_matrix_norm",
    "sym_eig",
    "sym_eig_max",
    "vec_norm",
    "LogNormResult",
    "log_norm",
    "log_norm_all_routes",
    "log_norm_limit_estimate",
    "log_norm_limit_table",
    "log_norm_pair",
    "log_norm_quadratic_form",
    "QuadratureRule",
    "SystemSpec",
    "averaged_jacobian",
    "averaged_jacobian_residual",
    "eval_rhs",
    "jacobian",
]
