"""Multiplicative binomial model for sums of exchangeable dependent
Bernoulli variables: exact log-domain pmf/cdf/moments/sampling, limit
regimes, a Gaussian-approximation diagnostic, the K-difference
factorization scans, and majority-vote ensemble accuracy with MLE
fitting.
"""

__version__ = "0.1.0"

from .asymptotics import (
    LimitRegime,
    LimitReport,
    convergence_report,
    limit_distribution,
    limit_moments,
    tau_limit,
    total_variation,
)
from .core import (
    ModelParams,
    MomentSummary,
    PmfTable,
    cdf,
    conditional_cpr,
    joint_log_prob,
    log_k,
    marginal_pi,
    moments,
    pmf,
    sample,
    tau,
)
from .ensemble import (
    ComparisonReport,
    CountSample,
    EnsembleSpec,
    FitResult,
    ModelReport,
    beta_binomial_accuracy,
    binomial_accuracy,
    ensemble_accuracy,
    fit_mle,
    majority_threshold,
    model_comparison,
)
from .factorization import (
    GridSpec,
    RegionGrid,
    Theorem2Report,
    d_n,
    delta,
    delta_grid,
    is_singular,
    tau1_region_grid,
    theorem2_check,
)
from .gauss import CltScanRow, clt_scan, standardized_ks_distance

__all__ = [
    "__version__",
    # core
    "ModelParams", "PmfTable", "MomentSummary",
    "log_k", "tau", "pmf", "cdf", "moments", "marginal_pi",
    "joint_log_prob", "conditional_cpr", "sample",
    # asymptotics
    "LimitRegime", "LimitReport", "tau_limit", "limit_moments",
    "limit_distribution", "convergence_report", "total_variation",
    # gauss
    "CltScanRow", "standardized_ks_distance", "clt_scan",
    # factorization
    "GridSpec", "RegionGrid", "Theorem2Report", "d_n", "delta",
    "is_singular", "delta_grid", "tau1_region_grid", "theorem2_check",
    # ensemble
    "EnsembleSpec", "CountSample", "FitResult", "ModelReport",
    "ComparisonReport", "majority_threshold", "ensemble_accuracy",
    "binomial_accuracy", "beta_binomial_accuracy", "fit_mle",
    "model_comparison",
]
