"""Split-and-average protocol and the seeded replication engine.

A replication samples N points, fits the centralized estimator, splits the
data uniformly at random over m machines, fits each shard, and averages.
Per-replication seeds derive from (base_seed, rep) alone, so summaries are
invariant to execution order and to any parallel schedule.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MachineFitError, SingularHessianError, SplitAvgError
from .estimator import FitReport, ModelSpec, fit_closed, fit_closed_stacked, fit_erm
from .estimator import fit_erm_stacked, population_target
from .model import Dataset, GenerativeConfig, error_ratio, sample_dataset, split_rows
from .model import split_uniform  # unused here; bench/tracing.py wraps parallel.split_uniform

# 1e-6 keeps the risk gap ~ |grad|^2 ~ 1e-12 far inside the o(1/n) margin of
# an approximate minimizer while staying reachable in double precision for the
# non-quadratic links, whose line search stalls once improvements drop below
# the ULP of the risk (the floor scales with the noise variance).
_NEWTON_TOL = 1e-6

# Each thread's shard stacks (``_gather``), reused while (m, n, p) holds.
_stacks = threading.local()


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


def _fit_one(d: Dataset, model: ModelSpec) -> np.ndarray:
    if model.is_closed_form:
        return fit_closed(d, model.penalty)
    report = fit_erm(d, model, tol=_NEWTON_TOL)
    if not report.converged:
        raise _unconverged(report)
    return report.theta_hat


def _gather(d: Dataset, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shards' (m, n, p) designs and (m, n) responses, written into this thread's stacks.

    The stacks live as long as the thread and are reused while the shape
    holds, so a replication allocates no N(p + 1) floats of its own: freshly
    allocated, those lift glibc's heap over its trim threshold, and every
    replication gave them back to the kernel and faulted them in again.  A
    new shape replaces them.  The caller must not keep them past its fit.
    """
    shape = (*rows.shape, d.p)
    if getattr(_stacks, "X", None) is None or _stacks.X.shape != shape:
        _stacks.X = _stacks.y = None  # free the old stacks before the new ones are made
        _stacks.X, _stacks.y = np.empty(shape), np.empty(rows.shape)
    # rows is a permutation, so "clip" never clips; with out=, the default
    # mode="raise" would gather into a temporary copy first
    np.take(d.X, rows, axis=0, out=_stacks.X, mode="clip")
    np.take(d.y, rows, out=_stacks.y, mode="clip")
    return _stacks.X, _stacks.y


def _shard_fits(d: Dataset, cfg: ExperimentConfig, split_seed: int) -> np.ndarray:
    """The (m, p) shard estimates, all shards fitted in one stacked call.

    The shards are gathered into this thread's (m, n, p) stack from the rows
    of ``split_rows``, so each equals its ``split_uniform`` shard bitwise.  A
    failed fit raises ``MachineFitError`` for the lowest shard whose fit
    raised or did not converge, the shard a one-by-one loop would stop at.
    """
    model = cfg.model
    X, y = _gather(d, split_rows(d.n, cfg.m, split_seed))
    try:
        if model.is_closed_form:
            return fit_closed_stacked(X, y, model.penalty)
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


def _rep_seeds(base_seed: int, rep: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(entropy=(base_seed, rep))
    a, b = ss.generate_state(2, dtype=np.uint64)
    return int(a), int(b)


def run_replication(cfg: ExperimentConfig, rep: int) -> ReplicationResult:
    """One seeded replication; bit-identical for a given (cfg, rep)."""
    if not 0 <= rep < cfg.replications:
        raise ConfigError(f"rep must be in [0, {cfg.replications})")
    sample_seed, split_seed = _rep_seeds(cfg.base_seed, rep)
    d = sample_dataset(cfg.gen, cfg.N, sample_seed)
    theta_central = _fit_one(d, cfg.model)
    # m = 1: the single shard is the full dataset, already fitted, so
    # theta_bar is bitwise equal to theta_central.
    theta_bar = average_estimate([theta_central] if cfg.m == 1
                                 else _shard_fits(d, cfg, split_seed))
    target = cfg.theta_star()
    return ReplicationResult(
        theta_bar=theta_bar,
        theta_central=theta_central,
        err_bar=float(np.linalg.norm(theta_bar - target)),
        err_central=float(np.linalg.norm(theta_central - target)),
        per_coordinate_bias_sample=theta_bar - target,
    )


def run_experiment(cfg: ExperimentConfig, threads: int | None = None):
    """All replications, optionally on a thread pool; results ordered by rep.

    Each thread that runs replications gathers their shards into stacks of
    its own, N(p + 1) floats (3.4 MB at p = 20, N = 20000), and keeps them
    for the next replication of the same (m, n, p).  The calling thread keeps
    its stacks after the run; the pool threads' go when the pool ends.
    """
    reps = range(cfg.replications)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda r: run_replication(cfg, r), reps))
    return [run_replication(cfg, r) for r in reps]


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
    err_bar_sq = np.array([r.err_bar ** 2 for r in results])
    err_central_sq = np.array([r.err_central ** 2 for r in results])
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
            mse_bar=float(err_bar_sq.std(ddof=1) / np.sqrt(reps)),
            mse_central=float(err_central_sq.std(ddof=1) / np.sqrt(reps)),
        ),
        replications=reps,
    )
