"""Brute-force verifiers: Monte-Carlo Wishart identities and moment-coefficient fits.

These are deliberately independent of the closed forms they check.  The
Wishart expressions are evaluated from raw Gaussian draws (each S_i is the
rank-one x_i x_i'), and the moment fit recovers the 1/n and 1/n^2 error
coefficients of an estimator purely from simulation.  ``wishart_check`` gives
each of its two streams one thread: a worker draws x1 a block ahead while the
calling thread draws the block's x2, if the identity reads x2, and sums the
block.  For OLS and ridge under Gaussian noise the moment fit draws
each replication's exact (X'X, X'y) from Bartlett factors
(``model._gram_draw``) instead of an n x p design: the same law, sampled
without any of the expansions it checks.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .estimator import (ModelSpec, _solve_normal, fit_closed_stacked, fit_erm_stacked,
                        population_target)
from .estimator import fit_erm  # unused here; bench/tracing.py wraps oracles.fit_erm
from .model import (GenerativeConfig, _covariance, _draw, _gaussian, _gram_draw, _rng,
                    sample_dataset)

FIRST_KIND_IDS = ("E_S", "E_SBS", "E_SBS2BS")
SECOND_KIND_IDS = (
    "E_SS2BSS2",
    "E_SS2BS",
    "E_SS2BS2S",
    "E_S2BS",
    "E_SS2S_BS2",
    "E_SS22BS",
)
ALL_IDENTITY_IDS = FIRST_KIND_IDS + SECOND_KIND_IDS
X1_ONLY_IDS = ("E_S", "E_SBS", "E_S2BS")  # expressions of S_1 alone: no x2 is drawn
_CHUNK = 5e5  # elements of one draw array per pass of the moment fit: bounds its memory
_BLOCK = 2 ** 15  # elements of one block of wishart_check's x1 (256 kB): its unit of work


@dataclass(frozen=True, eq=False)
class WishartIdentity:
    """One moment identity for S_i = x_i x_i' with x_i ~ N(0, Sigma).

    The second-kind identities (products mixing S_1 and S_2 beyond one B)
    hold only for Sigma = I and are rejected otherwise.
    """

    id: str
    sigma: np.ndarray  # a covariance spec, as for GenerativeConfig; kept as the matrix
    B: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, default=None)  # None: Sigma = I

    def __post_init__(self):
        if self.id not in ALL_IDENTITY_IDS:
            raise ConfigError(f"unknown identity {self.id!r}")
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] < 1:
            raise ConfigError("B must be square with p >= 1")
        if not np.allclose(B, B.T, atol=1e-12 * (1 + np.abs(B).max())):
            raise ConfigError("B must be symmetric")
        sigma, chol = _covariance(self.sigma, B.shape[0])
        if self.id in SECOND_KIND_IDS and not np.allclose(sigma, np.eye(B.shape[0])):
            raise ConfigError(f"{self.id} requires Sigma = I")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)

    @property
    def p(self) -> int:
        return self.B.shape[0]


def wishart_closed_form(w: WishartIdentity) -> np.ndarray:
    sig, B, p = w.sigma, w.B, w.p
    eye = np.eye(p)
    tr_b = float(np.trace(B))
    if w.id == "E_S":
        return sig.copy()
    if w.id == "E_SBS":
        return 2.0 * sig @ B @ sig + np.trace(sig @ B) * sig
    if w.id == "E_SBS2BS":
        sbs = sig @ B @ sig
        return 2.0 * sbs @ B @ sig + np.trace(B @ sig @ B @ sig) * sig
    if w.id == "E_SS2BSS2":
        return (p + 6.0) * B + 2.0 * tr_b * eye
    if w.id == "E_SS2BS":
        return 2.0 * B + tr_b * eye
    if w.id == "E_SS2BS2S":
        return 4.0 * B + (4.0 + p) * tr_b * eye
    if w.id == "E_S2BS":
        return (8.0 + 2.0 * p) * B + (4.0 + p) * tr_b * eye
    if w.id == "E_SS2S_BS2":
        # (6+p) B + 2 tr(B) I; the scalar case pins the trace weight at 2
        # (E[S^2]^2 = 9 = 7 + 2 for chi-squared_1 factors)
        return (6.0 + p) * B + 2.0 * tr_b * eye
    return (4.0 + 2.0 * p) * B + (2.0 + p) * tr_b * eye  # E_SS22BS


def _mc_terms(w: WishartIdentity, x1: np.ndarray, x2):
    """Per-draw factors (w, u, v) of the expression w_r u_r v_r', using S_i = x_i x_i'.

    x2 is not read for an identity in ``X1_ONLY_IDS`` and may be None there.
    """
    B = w.B
    if w.id == "E_S":
        return np.ones(len(x1)), x1, x1
    bx1 = x1 @ B
    if w.id == "E_SBS":
        q = np.einsum("ri,ri->r", bx1, x1)  # x1' B x1
        return q, x1, x1
    if w.id == "E_S2BS":
        q = np.einsum("ri,ri->r", bx1, x1)
        n1 = np.einsum("ri,ri->r", x1, x1)
        return n1 * q, x1, x1
    dot12 = np.einsum("ri,ri->r", x1, x2)
    bx12 = np.einsum("ri,ri->r", bx1, x2)  # x1' B x2
    if w.id == "E_SBS2BS":
        return bx12 ** 2, x1, x1
    if w.id in ("E_SS2BSS2", "E_SS2S_BS2"):
        return dot12 ** 2 * bx12, x1, x2
    if w.id == "E_SS2BS":
        return dot12 * bx12, x1, x1
    if w.id == "E_SS2BS2S":
        q = np.einsum("ri,ri->r", x2 @ B, x2)  # x2' B x2
        return dot12 ** 2 * q, x1, x1
    # E_SS22BS
    n2 = np.einsum("ri,ri->r", x2, x2)
    return dot12 * n2 * bx12, x1, x1


@dataclass(frozen=True, eq=False)
class WishartCheckResult:
    mc_estimate: np.ndarray
    closed_form: np.ndarray
    max_abs_z: float


def _mean_se(total, total_sq, reps):
    """Mean and ddof-1 standard error of ``reps`` draws from their sum and sum of squares."""
    mean = total / reps
    var = (total_sq / reps - mean * mean) * reps / (reps - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / reps)


def wishart_check(w: WishartIdentity, reps: int, seed: int) -> WishartCheckResult:
    """Compare the MC average of the identity's expression with its closed form.

    Returns the entrywise worst |difference| / standard-error ratio.

    x1 is the stream of one child generator of ``seed`` and x2 that of the
    other, drawn in blocks of ``_BLOCK`` elements of x1, so the normals
    depend on (reps, seed) alone.  Each generator has one thread: a worker
    draws block k + 1 of x1 while the calling thread draws block k of x2 and
    sums block k, so at most three blocks are alive at once.  An identity in
    ``X1_ONLY_IDS`` draws no x2.  numpy releases the interpreter lock while
    it fills normals and inside ufunc and BLAS calls, so on two cores the
    two threads run at once.  At small p a block's products stay too small
    for BLAS to spread over threads that would compete with the worker.
    """
    if reps < 10_000:
        raise ConfigError("reps must be >= 1e4 for a meaningful z-test")
    rng1, rng2 = _rng(seed).spawn(2)
    p = w.p
    total = np.zeros((p, p))
    total_sq = np.zeros((p, p))
    rows = max(1, int(_BLOCK / p))  # a draw is a row of p elements
    reads_x2 = w.id not in X1_ONLY_IDS

    def x1_blocks():  # advanced only on the worker, the one thread that uses rng1
        for done in range(0, reps, rows):
            yield _gaussian((min(rows, reps - done), p), w._chol, rng1)

    with ThreadPoolExecutor(max_workers=1) as pool:
        blocks = x1_blocks()
        pending = pool.submit(next, blocks, None)
        while (x1 := pending.result()) is not None:
            pending = pool.submit(next, blocks, None)
            x2 = _gaussian(x1.shape, w._chol, rng2) if reads_x2 else None
            wt, u, v = _mc_terms(w, x1, x2)
            total += (u * wt[:, None]).T @ v
            total_sq += (u * u * (wt * wt)[:, None]).T @ (v * v)
    mean, se = _mean_se(total, total_sq, reps)
    closed = wishart_closed_form(w)
    diff = np.abs(mean - closed)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0.0, 0.0, diff / np.where(se > 0, se, np.nan))
    max_z = float(np.nanmax(z)) if np.isfinite(z).any() else float("inf")
    return WishartCheckResult(mean, closed, max_z)


# ---------------------------------------------------------------------------
# Moment-coefficient fitting oracle
# ---------------------------------------------------------------------------


@dataclass
class MomentFitResult:
    """Fitted 1/n and 1/n^2 coefficients of the estimator's bias and MSE.

    ``bias_coeffs = (delta_hat, bias_n2_hat)`` from bias(n) ~ d/n + e/n^2;
    ``mse_coeffs = (gamma1_hat, second_order_sum_hat)`` from
    mse(n) ~ a/n + b/n^2.  The *_se fields carry the propagated Monte-Carlo
    standard errors of each fitted coefficient.
    """

    n_grid: list
    bias_coeffs: tuple
    mse_coeffs: tuple
    bias_se: tuple
    mse_se: tuple
    bias_by_n: dict = field(repr=False, default_factory=dict)
    mse_by_n: dict = field(repr=False, default_factory=dict)
    fit_residual_bias: float = 0.0
    fit_residual_mse: float = 0.0


def _seeded_designs(cfg, c, n, rng):
    """Designs (c, n, p) and responses (c, n) of c ``sample_dataset`` draws seeded from rng.

    Each dataset is copied into the stack as it is drawn, so a pass holds
    its designs once.
    """
    X, y = np.empty((c, n, cfg.p)), np.empty((c, n))
    for r in range(c):
        d = sample_dataset(cfg, n, int(rng.integers(0, 2 ** 63 - 1)))
        X[r], y[r] = d.X, d.y
    return X, y


def _errors(cfg, model, n, reps, rng):
    """Errors of ``reps`` fits at size n, one stacked fit per chunk of replications.

    OLS and ridge under Gaussian noise solve exact (X'X, X'y) draws, a
    replication being a row of p^2 Bartlett-factor elements; every other fit
    draws its designs, a row of n p elements.  Warns once with the count of
    Newton fits that did not converge.
    """
    target = population_target(cfg, model)
    exact = model.is_closed_form and cfg.noise.kind == "gaussian"
    chunk = max(1, int(_CHUNK / (cfg.p ** 2 if exact else n * cfg.p)))
    fits, failed = [], 0
    for done in range(0, reps, chunk):
        c = min(chunk, reps - done)
        if exact:
            fits.append(_solve_normal(*_gram_draw(cfg, c, n, rng), n, model.penalty))
            continue
        if model.is_closed_form:
            # no names for the draws: a chunk's design is freed before the next is drawn
            fits.append(fit_closed_stacked(*_draw(cfg, (c, n), rng), model.penalty))
            continue
        reports = fit_erm_stacked(*_seeded_designs(cfg, c, n, rng), model, init=target,
                                  tol=1e-8)
        fits.append([r.theta_hat for r in reports])
        failed += sum(not r.converged for r in reports)
    if failed:
        warnings.warn(f"{failed} of {reps} Newton fits did not converge at n = {n} "
                      "and are averaged in as they stopped", RuntimeWarning)
    return np.concatenate(fits) - target


def _fit_entries(n_grid, by_n, se_by_n):
    """Weighted LS fits of values(n) = a/n + b/n^2 with known standard errors.

    One fit per entry of the per-n arrays, all solved as one stack.  Returns
    the stacked (a, b) coefficients, their standard errors, and the worst
    residual and design condition number over the entries.
    """
    shape = by_n[n_grid[0]].shape
    ns = np.asarray(n_grid, dtype=float)
    design = np.vstack([1.0 / ns, 1.0 / ns ** 2]).T
    values = np.stack([by_n[n].ravel() for n in n_grid], axis=-1)  # (entries, n)
    ses = np.stack([se_by_n[n].ravel() for n in n_grid], axis=-1)
    top = ses.max(axis=-1, keepdims=True)
    floor = np.where(top > 0, np.maximum(1e-300, 1e-8 * top), 1.0)
    w = 1.0 / np.maximum(ses, floor) ** 2
    zw = design * np.sqrt(w)[..., None]  # (entries, n, 2)
    yw = values * np.sqrt(w)
    zwt = np.swapaxes(zw, -1, -2)
    cov = np.linalg.inv(zwt @ zw)
    coef = (cov @ (zwt @ yw[..., None]))[..., 0]
    se = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    # per entry, as a lone fit forms it: a stacked norm sums in another order
    resid = [np.linalg.norm(design @ c - v) for c, v in zip(coef, values)]
    # a running max from 0.0 over the entries, which passes over a NaN entry
    worst_resid, worst_cond = (float(max([0.0, *x])) for x in (resid, np.linalg.cond(zw)))
    return coef.T.reshape((2,) + shape), se.T.reshape((2,) + shape), worst_resid, worst_cond


def mc_moment_fit(
    cfg: GenerativeConfig,
    model: ModelSpec,
    n_grid=None,
    reps: int = 2000,
    seed: int = 0,
) -> MomentFitResult:
    """Estimate delta and the (gamma1, second-order-sum) MSE coefficients by simulation.

    At each n the estimator's error mean and second-moment matrix are
    averaged over ``reps`` replications, then a/n + b/n^2 laws are fitted by
    weighted least squares.  Emits a warning if the fit design is poorly
    conditioned (n_grid too narrow) and one for each n at which Newton fits
    did not converge.
    """
    if n_grid is None:
        n_grid = [200 * cfg.p, 400 * cfg.p, 800 * cfg.p]
    n_grid = sorted(int(n) for n in n_grid)
    if len(set(n_grid)) < 3:
        raise ConfigError("n_grid needs >= 3 distinct values")
    if min(n_grid) < 10 * cfg.p:
        raise ConfigError("n_grid values must be well above p")
    if reps < 2:
        raise ConfigError("reps must be >= 2 for standard errors")
    rng = _rng(seed)
    bias_by_n, bias_se_by_n = {}, {}
    mse_by_n, mse_se_by_n = {}, {}
    for n in n_grid:
        errs = _errors(cfg, model, n, reps, rng)
        bias_by_n[n] = errs.mean(axis=0)
        bias_se_by_n[n] = errs.std(axis=0, ddof=1) / np.sqrt(reps)
        sq = errs * errs
        mse_by_n[n], mse_se_by_n[n] = _mean_se(errs.T @ errs, sq.T @ sq, reps)

    bias, bias_se, resid_bias, cond_bias = _fit_entries(n_grid, bias_by_n, bias_se_by_n)
    mse, mse_se, resid_mse, cond_mse = _fit_entries(n_grid, mse_by_n, mse_se_by_n)
    if max(cond_bias, cond_mse) > 1e8:
        warnings.warn("moment fit is ill-conditioned; widen n_grid", RuntimeWarning)
    return MomentFitResult(
        n_grid=list(n_grid),
        bias_coeffs=tuple(bias),
        mse_coeffs=tuple(mse),
        bias_se=tuple(bias_se),
        mse_se=tuple(mse_se),
        bias_by_n=bias_by_n,
        mse_by_n=mse_by_n,
        fit_residual_bias=resid_bias,
        fit_residual_mse=resid_mse,
    )
