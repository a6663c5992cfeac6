"""splitavg: split-and-average distributed estimation and its accuracy theory.

Simulation engine for one-shot averaging of per-machine M-estimators, exact
second-order bias/MSE expansions for OLS and ridge, high-dimensional residual
equations, Monte-Carlo verification oracles, and machine-count planning.
"""

from .errors import (
    ConfigError,
    DegenerateLossError,
    DivisibilityError,
    InfeasiblePlanError,
    MachineFitError,
    NonDifferentiableError,
    NumericalError,
    ProxFailureError,
    RankError,
    SingularHessianError,
    SolverFailureError,
    SplitAvgError,
    UnsupportedDerivativeError,
)
from .estimator import (
    FitReport,
    ModelSpec,
    fit_closed,
    fit_closed_stacked,
    fit_erm,
    fit_erm_stacked,
    population_target,
    ridge_population_target,
    sandwich_covariance,
)
from .fixed_p import GammaSet, bias2, lam_kl, m2_excess, m2_parallel, ols_gammas, ridge_gammas
from .highdim import (
    PerturbCoeffs,
    QuadratureSpec,
    RcSolution,
    absolute_series,
    expect_xi,
    mse_ratio_exact,
    mse_ratio_first_order,
    perturb_coeffs,
    solve_rc,
)
from .losses import LossSpec, loss_derivative, prox_eval
from .model import (
    Dataset,
    GenerativeConfig,
    NoiseDist,
    sample_dataset,
    split_uniform,
)
from .oracles import (
    ALL_IDENTITY_IDS,
    MomentFitResult,
    WishartCheckResult,
    WishartIdentity,
    mc_moment_fit,
    wishart_check,
    wishart_closed_form,
)
from .parallel import (
    ExperimentConfig,
    ReplicationResult,
    Summary,
    average_estimate,
    run_experiment,
    run_replication,
    summarize,
)
from .planner import (
    FixedPRegime,
    HighDimRegime,
    PlannerProblem,
    PlannerResult,
    choose_m,
    predicted_error,
)

__version__ = "0.1.0"
