"""Split-and-average protocol and the seeded replication engine.

A replication samples N i.i.d. points, hands machine j the rows
j n ... (j + 1) n - 1, fits each shard, averages, and fits the centralized
estimator.  OLS/ridge solve the centre first, from the sums of the shards'
normal statistics.  Newton models fit the shards first and start the centre
at their average, within O(1/n) of it; that fit falls back to the default
start if it fails, and after a shard failure the centre is fitted from the
default start and its failure raised first.  The rows are exchangeable, so
these blocks are a uniformly random split in law.
Per-replication seeds derive from (base_seed, rep) alone, so summaries are
invariant to execution order and to any parallel schedule.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MachineFitError, SingularHessianError, SplitAvgError
from .estimator import FitReport, ModelSpec, _normal_stats, _solve_normal, fit_erm
from .estimator import fit_erm_stacked, population_target
from .model import Dataset, GenerativeConfig, error_ratio, sample_dataset
from .estimator import fit_closed  # unused here; bench/tracing.py wraps parallel.fit_closed
from .model import split_uniform  # unused here; bench/tracing.py wraps parallel.split_uniform

# 1e-6 keeps the risk gap ~ |grad|^2 ~ 1e-12 far inside the o(1/n) margin of
# an approximate minimizer while staying reachable in double precision for the
# non-quadratic links, whose line search stalls once improvements drop below
# the ULP of the risk (the floor scales with the noise variance).
_NEWTON_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A replicated split-and-average experiment: N samples over m machines."""

    gen: GenerativeConfig
    model: ModelSpec
    N: int
    m: int
    replications: int
    base_seed: int = 0
    _target: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.N < 1 or self.m < 1:
            raise ConfigError("N and m must be >= 1")
        if self.N % self.m != 0:
            raise ConfigError(f"m = {self.m} must divide N = {self.N}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        target = population_target(self.gen, self.model)  # rejects a model fit to another link
        target.setflags(write=False)
        object.__setattr__(self, "_target", target)

    @property
    def n(self) -> int:
        return self.N // self.m

    def theta_star(self) -> np.ndarray:
        """Population target, computed once at construction and read-only: the ridge
        shrinkage point, else theta0."""
        return self._target


@dataclass(frozen=True, eq=False)
class ReplicationResult:
    theta_bar: np.ndarray
    theta_central: np.ndarray
    err_bar: float
    err_central: float
    per_coordinate_bias_sample: np.ndarray


@dataclass(frozen=True)
class McStandardErrors:
    median_ratio: float
    mse_bar: float
    mse_central: float


@dataclass(frozen=True, eq=False)
class Summary:
    median_ratio: float
    mad_ratio: float
    mean_bias: np.ndarray
    mse_bar: float
    mse_central: float
    mc_standard_errors: McStandardErrors
    replications: int


def average_estimate(thetas) -> np.ndarray:
    """Coordinatewise arithmetic mean of the machine estimates."""
    if len(thetas) == 0:
        raise ConfigError("cannot average an empty list of estimates")
    arr = np.asarray(thetas, dtype=float)
    if arr.ndim != 2:
        raise ConfigError("estimates must be equal-length vectors")
    return arr.mean(axis=0)


def _unconverged(report: FitReport) -> SplitAvgError:
    return SplitAvgError(f"fit did not converge (grad norm {report.grad_norm:.2e})")


def _central_fit(d: Dataset, cfg: ExperimentConfig, init: np.ndarray | None = None):
    """The Newton fit to all N points.  A fit from ``init`` that raises or does not converge
    is retried once from the default start, and only the retry's failure is raised."""
    if init is not None:
        try:
            report = fit_erm(d, cfg.model, init=init, tol=_NEWTON_TOL)
            if report.converged:
                return report.theta_hat
        except SplitAvgError:
            pass  # retried from the default start below
    report = fit_erm(d, cfg.model, tol=_NEWTON_TOL)
    if not report.converged:
        raise _unconverged(report)
    return report.theta_hat


def _shard_fits(d: Dataset, cfg: ExperimentConfig, stats=None) -> np.ndarray:
    """The (m, p) shard estimates, all shards fitted in one stacked call.

    Shard j is rows j n ... (j + 1) n - 1 of d, taken as (m, n, p) and (m, n)
    views.  OLS/ridge shards solve the views' (X'X, X'y), ``stats`` if given.
    A failed fit raises ``MachineFitError`` for the lowest shard whose fit
    raised or did not converge, where a one-by-one loop would stop.
    """
    model = cfg.model
    X, y = d.X.reshape(cfg.m, cfg.n, d.p), d.y.reshape(cfg.m, cfg.n)
    try:
        if model.is_closed_form:
            return _solve_normal(*(stats or _normal_stats(X, y)), cfg.n, model.penalty)
        reports, j, cause = fit_erm_stacked(X, y, model, tol=_NEWTON_TOL), None, None
    except SingularHessianError as exc:  # the lowest singular shard and the fits below it
        reports, j, cause = exc.reports, exc.index, exc
    for i, report in enumerate(reports):
        if not report.converged:
            j, cause = i, _unconverged(report)
            break
    if cause is None:
        return np.array([report.theta_hat for report in reports])
    raise MachineFitError(f"machine {j} failed: {cause}", machine_index=j) from cause


def _rep_seed(base_seed: int, rep: int) -> int:
    return int(np.random.SeedSequence(entropy=(base_seed, rep)).generate_state(1, np.uint64)[0])


def run_replication(cfg: ExperimentConfig, rep: int) -> ReplicationResult:
    """One seeded replication; bit-identical for a given (cfg, rep)."""
    if not 0 <= rep < cfg.replications:
        raise ConfigError(f"rep must be in [0, {cfg.replications})")
    d = sample_dataset(cfg.gen, cfg.N, _rep_seed(cfg.base_seed, rep))
    if cfg.model.is_closed_form:  # the centre solves the sums of the shards' statistics first
        stats = _normal_stats(d.X.reshape(cfg.m, cfg.n, d.p), d.y.reshape(cfg.m, cfg.n))
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite sums fail in the solve
            G, b = stats[0].sum(0), stats[1].sum(0)
        theta_central = _solve_normal(G, b, cfg.N, cfg.model.penalty)
        theta_bar = average_estimate(_shard_fits(d, cfg, stats))
    elif cfg.m == 1:  # the single shard is the full dataset, already fitted
        theta_central = _central_fit(d, cfg)
        theta_bar = average_estimate([theta_central])
    else:
        # Newton: the shards first, then the centre from their average, which
        # lies within O(1/n) of it.  After a shard failure the centre is fitted
        # from its default start, and its own failure is raised first.
        try:
            theta_bar = average_estimate(_shard_fits(d, cfg))
        except MachineFitError:
            _central_fit(d, cfg)
            raise
        theta_central = _central_fit(d, cfg, init=theta_bar)
    target = cfg.theta_star()
    return ReplicationResult(
        theta_bar=theta_bar,
        theta_central=theta_central,
        err_bar=float(np.linalg.norm(theta_bar - target)),
        err_central=float(np.linalg.norm(theta_central - target)),
        per_coordinate_bias_sample=theta_bar - target,
    )


def run_experiment(cfg: ExperimentConfig, threads: int | None = None):
    """All replications, optionally on a thread pool; results ordered by rep."""
    reps = range(cfg.replications)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda r: run_replication(cfg, r), reps))
    return [run_replication(cfg, r) for r in reps]


def _std_error(x: np.ndarray) -> float:
    """Standard error of the mean of x >= 0.

    The standard deviation is taken of x scaled by a power of two, which is
    exact, so squaring entries near the float maximum cannot overflow.
    """
    if np.isinf(x.max()):
        return np.inf
    k = np.frexp(x.max())[1]
    return float(np.ldexp(np.ldexp(x, -k).std(ddof=1), k) / np.sqrt(x.size))


def summarize(results) -> Summary:
    """Median/MAD of the error ratios plus bias and MSE summaries with MC SEs.

    The MAD is reported raw (no normal-consistency factor); the median's
    standard error uses the asymptotic normal approximation with a
    MAD-based scale estimate.
    """
    if len(results) < 2:
        raise ConfigError("summarize needs >= 2 replications")
    reps = len(results)
    ratios = np.array([error_ratio(r.err_bar, r.err_central) for r in results])
    with np.errstate(over="ignore"):  # a huge error squares to inf, which the MSE carries
        err_bar_sq = np.array([r.err_bar for r in results]) ** 2
        err_central_sq = np.array([r.err_central for r in results]) ** 2
    bias = np.array([r.per_coordinate_bias_sample for r in results])
    med = float(np.median(ratios))
    # ratios equal to the median deviate by 0, also when both are inf
    dev = np.zeros_like(ratios)
    off = ratios != med
    dev[off] = np.abs(ratios[off] - med)
    mad = float(np.median(dev))
    # sigma_hat = 1.4826 MAD; SE(median) ~ 1.2533 sigma_hat / sqrt(reps)
    med_se = 1.2533 * 1.4826 * mad / np.sqrt(reps)
    return Summary(
        median_ratio=med,
        mad_ratio=mad,
        mean_bias=bias.mean(axis=0),
        mse_bar=float(err_bar_sq.mean()),
        mse_central=float(err_central_sq.mean()),
        mc_standard_errors=McStandardErrors(
            median_ratio=float(med_se),
            mse_bar=_std_error(err_bar_sq),
            mse_central=_std_error(err_central_sq),
        ),
        replications=reps,
    )
