"""Per-machine empirical risk minimization.

Generic damped-Newton ERM for the smooth model families, closed-form OLS and
ridge, population targets, and the plug-in sandwich covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, RankError, SingularHessianError
from .losses import LossSpec, derivative_array
from .model import Dataset, GenerativeConfig, sigma_as_matrix

_SUPPORTED_PAIRS = {
    ("squared", "linear"),
    ("ridge", "linear"),
    ("squared", "exp_nonlinear"),
    ("logistic", "logistic"),
}

_MAX_ITER = 200
_ARMIJO_BETA = 0.5
_ARMIJO_C1 = 1e-4


@dataclass(frozen=True)
class ModelSpec:
    """Loss/link pair to be fit by empirical risk minimization."""

    loss: LossSpec
    link: str = "linear"

    def __post_init__(self):
        if (self.loss.kind, self.link) not in _SUPPORTED_PAIRS:
            raise ConfigError(
                f"unsupported loss/link combination ({self.loss.kind}, {self.link})"
            )

    @property
    def penalty(self) -> float:
        return self.loss.penalty if self.loss.kind == "ridge" else 0.0

    @property
    def is_closed_form(self) -> bool:
        """OLS or ridge: fitted by ``fit_closed`` rather than Newton iterations."""
        return self.link == "linear"

    @staticmethod
    def ols() -> "ModelSpec":
        return ModelSpec(LossSpec.squared(), "linear")

    @staticmethod
    def ridge(penalty: float) -> "ModelSpec":
        return ModelSpec(LossSpec.ridge(penalty), "linear")

    @staticmethod
    def nonlinear_ls() -> "ModelSpec":
        return ModelSpec(LossSpec.squared(), "exp_nonlinear")

    @staticmethod
    def logistic() -> "ModelSpec":
        return ModelSpec(LossSpec.logistic(), "logistic")


@dataclass(frozen=True, eq=False)
class FitReport:
    theta_hat: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool


def _link(d: Dataset, model: ModelSpec, s: np.ndarray):
    """Loss argument t at the linear predictor s, with dt/ds and d2t/ds2."""
    if model.link == "linear":
        return d.y - s, -1.0, 0.0
    if model.link == "exp_nonlinear":
        mu = np.exp(s)
        return d.y - mu, -mu, -mu
    yy = 2.0 * d.y - 1.0  # logistic link, margin form with labels in {-1, +1}
    return yy * s, yy, 0.0


def _score_weights(d: Dataset, model: ModelSpec, theta: np.ndarray):
    """Weights (w1, w2) with grad = X' w1 / n + pen' and hess = X' diag(w2) X / n + pen''."""
    t, dt, d2t = _link(d, model, d.X @ theta)
    f1 = derivative_array(model.loss, t, 1)
    return f1 * dt, derivative_array(model.loss, t, 2) * dt * dt + f1 * d2t


def _risk(d: Dataset, model: ModelSpec, theta: np.ndarray) -> float:
    # Exploratory line-search points may overflow the exp link; map any
    # non-finite value to +inf so they are rejected, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        t = _link(d, model, d.X @ theta)[0]
        total = float(np.mean(derivative_array(model.loss, t, 0)))
    pen = 0.5 * model.penalty * float(theta @ theta)
    risk = total + pen
    return risk if np.isfinite(risk) else np.inf


def _grad_hess(d: Dataset, model: ModelSpec, theta: np.ndarray):
    w1, w2 = _score_weights(d, model, theta)
    grad = d.X.T @ w1 / d.n + model.penalty * theta
    hess = (d.X.T * w2) @ d.X / d.n + model.penalty * np.eye(d.p)
    return grad, hess, w1


def default_tol(n: int) -> float:
    """Stopping tolerance well inside the o(1/n) approximate-minimizer margin."""
    return min(1e-10, 1.0 / (n * n))


def _default_init(d: Dataset, model: ModelSpec) -> np.ndarray:
    if model.link == "exp_nonlinear":
        pos = d.y > 0
        if int(pos.sum()) >= d.p:
            try:
                return fit_closed(Dataset(d.X[pos], np.log(d.y[pos])), 0.0)
            except RankError:
                pass
    return np.zeros(d.p)


def _newton_direction(hess: np.ndarray, grad: np.ndarray, quadratic: bool):
    """Newton step; the second return marks a clean (unshifted) factorization."""
    try:
        cf = scipy.linalg.cho_factor(hess, check_finite=False)
        return scipy.linalg.cho_solve(cf, -grad, check_finite=False), True
    except (scipy.linalg.LinAlgError, ValueError):
        if quadratic:
            raise SingularHessianError("Hessian is numerically singular") from None
    # Non-quadratic objectives: Levenberg-style shift until factorizable.
    tau = 1e-8 * max(1.0, float(np.max(np.abs(np.diag(hess)))))
    for _ in range(40):
        try:
            cf = scipy.linalg.cho_factor(hess + tau * np.eye(hess.shape[0]), check_finite=False)
            return scipy.linalg.cho_solve(cf, -grad, check_finite=False), False
        except (scipy.linalg.LinAlgError, ValueError):
            tau *= 10.0
    raise SingularHessianError("Hessian is numerically singular")


def fit_erm(
    d: Dataset,
    model: ModelSpec,
    init: np.ndarray | None = None,
    tol: float | None = None,
    max_iter: int = _MAX_ITER,
    trace: list | None = None,
) -> FitReport:
    """Minimize the empirical risk by damped Newton with Armijo backtracking.

    Stops when the gradient norm drops below ``tol`` (default
    ``min(1e-10, n^-2)``).  Hitting the iteration cap or a failed line search
    returns ``converged=False`` rather than raising; callers decide (logistic
    fits on separable data legitimately never converge).  A singular Hessian
    raises ``SingularHessianError`` unless the cap has been reached.
    """
    if not model.loss.is_smooth:
        raise ConfigError("fit_erm requires a smooth loss")
    if tol is None:
        tol = default_tol(d.n)
    if tol <= 0:
        raise ConfigError("tol must be > 0")
    theta = np.array(_default_init(d, model) if init is None else init, dtype=float)
    if theta.shape != (d.p,):
        raise ConfigError(f"init must have shape ({d.p},)")
    risk = _risk(d, model, theta)
    iterations = 0
    while True:
        if trace is not None:
            trace.append(risk)
        grad, hess, _ = _grad_hess(d, model, theta)
        gnorm = float(np.linalg.norm(grad))
        try:
            direction, clean = _newton_direction(hess, grad, model.is_closed_form)
        except SingularHessianError:
            if iterations < max_iter:
                raise
            return FitReport(theta, gnorm, iterations, False)
        # A small gradient alone is not a minimizer certificate: on separable
        # logistic data the risk is exponentially flat and the (shifted)
        # Newton step underflows while no finite minimizer exists.  Require a
        # cleanly factorizable Hessian and a small Newton step as well.
        step_ok = float(np.linalg.norm(direction)) <= 1e-6 * (1.0 + float(np.linalg.norm(theta)))
        converged = gnorm <= tol and clean and step_ok
        if converged or iterations >= max_iter:
            return FitReport(theta, gnorm, iterations, converged)
        slope = float(grad @ direction)
        if slope >= 0:  # not a descent direction; fall back to steepest descent
            direction = -grad
            slope = -gnorm * gnorm
        step = 1.0
        for _ in range(60):
            cand = theta + step * direction
            cand_risk = _risk(d, model, cand)
            if cand_risk <= risk + _ARMIJO_C1 * step * slope:
                break
            step *= _ARMIJO_BETA
        else:
            return FitReport(theta, gnorm, iterations, False)
        theta, risk = cand, cand_risk
        iterations += 1


def fit_closed_stacked(X: np.ndarray, y: np.ndarray, penalty: float = 0.0) -> np.ndarray:
    """Closed-form (X'X/n + penalty I)^-1 X'y/n for a stack of designs.

    ``X`` has shape (..., n, p) and ``y`` shape (..., n); the result has shape
    (..., p).  Every system gets the LAPACK calls of a lone 2-D solve, so a
    slice of the stack equals its own fit bitwise.  Any singular system raises
    ``RankError``.
    """
    if penalty < 0:
        raise ConfigError("penalty must be >= 0")
    n, p = X.shape[-2:]
    xt = np.swapaxes(X, -1, -2)
    a = xt @ X / n + penalty * np.eye(p)
    b = xt @ y[..., None] / n
    try:
        # upper factors; on a stack the returned lower flag is one per system
        cf, _ = scipy.linalg.cho_factor(a, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError):
        raise RankError("normal equations are singular (rank-deficient design)") from None
    return scipy.linalg.cho_solve((cf, False), b, check_finite=False)[..., 0]


def fit_closed(d: Dataset, penalty: float = 0.0) -> np.ndarray:
    """Closed-form (X'X/n + penalty I)^-1 X'y/n; penalty = 0 is OLS."""
    return fit_closed_stacked(d.X, d.y, penalty)


def ridge_population_target(theta0: np.ndarray, sigma, penalty: float) -> np.ndarray:
    """Population minimizer (Sigma + penalty I)^-1 Sigma theta0 of the ridge risk."""
    theta0 = np.asarray(theta0, dtype=float)
    p = theta0.shape[0]
    sig = sigma_as_matrix(sigma, p)
    return np.linalg.solve(sig + penalty * np.eye(p), sig @ theta0)


def population_target(gen: GenerativeConfig, model: ModelSpec) -> np.ndarray:
    """Population minimizer of the model's risk: the ridge shrinkage point, else theta0."""
    if model.loss.kind == "ridge":
        return ridge_population_target(gen.theta0, gen.sigma_spec, model.penalty)
    return gen.theta0


def sandwich_covariance(d: Dataset, theta_hat: np.ndarray, model: ModelSpec) -> np.ndarray:
    """Plug-in asymptotic covariance of sqrt(n) (theta_hat - theta*).

    V^-1 (mean of grad grad') V^-1 with V the empirical Hessian at the fit.
    Divide by n for standard errors of theta_hat itself.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    _, hess, w1 = _grad_hess(d, model, theta_hat)
    grads = d.X * w1[:, None]  # row i: gradient of the i-th loss term
    if model.penalty:
        grads = grads + model.penalty * theta_hat[None, :]
    meat = grads.T @ grads / d.n
    try:
        cf = scipy.linalg.cho_factor(hess, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError):
        raise SingularHessianError("empirical Hessian is singular") from None
    out = scipy.linalg.cho_solve(cf, scipy.linalg.cho_solve(cf, meat, check_finite=False).T,
                                 check_finite=False)
    return (out + out.T) / 2.0
