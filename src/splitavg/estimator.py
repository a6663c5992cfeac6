"""Per-machine empirical risk minimization.

Generic damped-Newton ERM for the smooth model families (one loop that fits a
stack of equal-size datasets in lockstep), closed-form OLS and ridge on one
direct-LAPACK Cholesky kernel, population targets, and the plug-in sandwich
covariance.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from .errors import ConfigError, RankError, SingularHessianError
from .losses import LossSpec, derivative_array
from .model import Dataset, GenerativeConfig, sigma_as_matrix

_SUPPORTED_PAIRS = {
    ("squared", "linear"),
    ("squared", "exp_nonlinear"),
    ("logistic", "logistic"),
}


def _load_flapack():
    """scipy's compiled LAPACK module ``scipy.linalg._flapack``, without importing scipy.linalg.

    ``scipy.linalg`` and ``scipy.linalg.lapack`` load scipy's array-API layer
    (about 110 modules and 28 MB) for two functions; the extension itself
    needs only numpy.  Loading registers it in ``sys.modules``; it is taken out
    again, leaving scipy's module table as it was.  CPython keeps its state,
    so a later ``import scipy.linalg`` exports these same function objects.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")  # locates the package, imports nothing
    if scipy_spec is None:
        raise ImportError("splitavg needs scipy for its LAPACK extension", name="scipy")
    linalg = Path(scipy_spec.submodule_search_locations[0], "linalg")
    paths = [linalg / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES]
    path = next((path for path in paths if path.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension is missing: {paths[0]}", name=name,
                          path=str(paths[0]))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    del sys.modules[name]
    return module


_FLAPACK = _load_flapack()
dpotrf, dpotrs = _FLAPACK.dpotrf, _FLAPACK.dpotrs

_MAX_ITER = 200
_ARMIJO_BETA = 0.5
_ARMIJO_C1 = 1e-4


@dataclass(frozen=True)
class ModelSpec:
    """Loss/link pair to be fit by ERM; ``penalty`` adds (penalty/2) |theta|^2 (linear link)."""

    loss: LossSpec
    link: str = "linear"
    penalty: float = 0.0

    def __post_init__(self):
        if (self.loss.kind, self.link) not in _SUPPORTED_PAIRS:
            raise ConfigError(
                f"unsupported loss/link combination ({self.loss.kind}, {self.link})"
            )
        if not 0 <= self.penalty < np.inf or (self.penalty and self.link != "linear"):
            raise ConfigError("penalty must be finite, >= 0 and on the linear link only")

    @property
    def is_closed_form(self) -> bool:
        """OLS or ridge: solved in closed form (``_solve_normal``) rather than by Newton."""
        return self.link == "linear"

    @staticmethod
    def ols() -> "ModelSpec":
        return ModelSpec(LossSpec.squared(), "linear")

    @staticmethod
    def ridge(penalty: float) -> "ModelSpec":
        return ModelSpec(LossSpec.squared(), "linear", penalty)

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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i . b_i over the leading axes, one BLAS dot per row as in ``a_i @ b_i``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _predict(X: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Linear predictors X theta of a design or of a stack of designs."""
    return (X @ theta[..., None])[..., 0]


def _link(y: np.ndarray, model: ModelSpec, s: np.ndarray):
    """Loss argument t at the linear predictor s, with dt/ds and d2t/ds2."""
    if model.link == "linear":
        return y - s, -1.0, 0.0
    if model.link == "exp_nonlinear":
        mu = np.exp(s)
        return y - mu, -mu, -mu
    yy = 2.0 * y - 1.0  # logistic link, margin form with labels in {-1, +1}
    return yy * s, yy, 0.0


def _score_weights(X: np.ndarray, y: np.ndarray, model: ModelSpec, theta: np.ndarray):
    """Weights (w1, w2) with grad = X' w1 / n + pen' and hess = X' diag(w2) X / n + pen''."""
    t, dt, d2t = _link(y, model, _predict(X, theta))
    f1 = derivative_array(model.loss, t, 1)
    return f1 * dt, derivative_array(model.loss, t, 2) * dt * dt + f1 * d2t


def _risk(X: np.ndarray, y: np.ndarray, model: ModelSpec, theta: np.ndarray) -> np.ndarray:
    # Exploratory line-search points may overflow the exp link; map any
    # non-finite value to +inf so they are rejected, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        t = _link(y, model, _predict(X, theta))[0]
        total = np.mean(derivative_array(model.loss, t, 0), axis=-1)
        risk = total + 0.5 * model.penalty * _dot(theta, theta)
    return np.where(np.isfinite(risk), risk, np.inf)


def _grad_hess(X: np.ndarray, y: np.ndarray, model: ModelSpec, theta: np.ndarray):
    """Gradient, Hessian and first-derivative score weights, per slice of a stack."""
    w1, w2 = _score_weights(X, y, model, theta)
    n, p = X.shape[-2:]
    xt = np.swapaxes(X, -1, -2)
    grad = (xt @ w1[..., None])[..., 0] / n + model.penalty * theta
    hess = (xt * w2[..., None, :]) @ X / n + model.penalty * np.eye(p)
    return grad, hess, w1


def _default_init(X: np.ndarray, y: np.ndarray, model: ModelSpec) -> np.ndarray:
    """Newton starts (k, p) for a stack: zero, or on the exp link the OLS fit of log y
    on a slice's positive responses where that fit exists.

    The fits of all slices are one ``_normal_solutions`` call, each slice with
    its own count n_i of positive responses as divisor, so every start equals
    ``fit_closed_stacked`` of that slice bitwise.  A slice with fewer than p
    positive responses, or whose system does not factor or whose solution is
    not finite, starts at zero.
    """
    theta = np.zeros(X.shape[::2])
    if model.link != "exp_nonlinear":
        return theta
    k, p = theta.shape
    G, b, counts = np.zeros((k, p, p)), np.zeros((k, p)), np.zeros(k, dtype=int)
    for i, (X_i, y_i) in enumerate(zip(X, y)):
        pos = y_i > 0
        counts[i] = np.count_nonzero(pos)
        if counts[i] >= p:  # fewer rows leave the system singular
            G[i], b[i] = _normal_stats(X_i[pos], np.log(y_i[pos]))
    fit = np.flatnonzero(counts >= p)
    fits, ok = _normal_solutions(G[fit], b[fit], counts[fit])
    theta[fit[ok]] = fits[ok]
    return theta


def _rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[idx] for ascending unique indices, without a copy when they take every row."""
    return a if idx.size == len(a) else a[idx]


def _cho_solve_stack(a: np.ndarray, b: np.ndarray):
    """Solve a_i x_i = b_i by Cholesky for each slice of a stack of SPD systems.

    ``a`` has shape (k, p, p) and ``b`` shape (k, p) or (k, p, r).  Each
    slice gets LAPACK's ``dpotrf`` (upper factor) and ``dpotrs``, the calls
    ``scipy.linalg.cho_factor``/``cho_solve`` make for a lone 2-D system,
    so a slice equals that solve bitwise.  Returns the solutions and the
    mask of slices that factored; the others are left at zero.  Never raises
    for a matrix that does not factor.
    """
    x = np.zeros(b.shape)
    ok = np.zeros(len(a), dtype=bool)
    for i, (a_i, b_i) in enumerate(zip(a, b)):
        c, info = dpotrf(a_i, lower=0, clean=0)
        if info == 0:
            x[i] = dpotrs(c, b_i, lower=0)[0]
            ok[i] = True
    return x, ok


def fit_erm_stacked(
    X: np.ndarray,
    y: np.ndarray,
    model: ModelSpec,
    init: np.ndarray | None = None,
    tol: float | None = None,
    max_iter: int = _MAX_ITER,
    trace: list | None = None,
) -> list[FitReport]:
    """Damped Newton with Armijo backtracking on each slice of a stack, in lockstep.

    ``X`` has shape (k, n, p) with n, p >= 1 and ``y`` shape (k, n); ``init``
    is one start, shape (p,), or one per slice, (k, p).  Each slice keeps its
    own Newton step, shifts, certificate and step length, so its ``FitReport``
    equals its own ``fit_erm`` bitwise.  A slice keeps running only while its
    line search accepts a step.  It takes none once converged: gradient norm
    at most ``tol`` (default ``min(1e-10, n^-2)``), a Hessian that factors
    without a shift and a Newton step below ``1e-6 (1 + |theta|)``.  The
    iteration cap or a failed line search stop it with ``converged=False``
    (logistic fits on separable data legitimately never converge).  A
    Hessian that does not factor while steps remain (for a non-quadratic
    objective: not even after 40 growing Levenberg shifts) stops it too and
    raises ``SingularHessianError`` once every slice has stopped; its
    ``index`` is the lowest such slice and its ``reports`` the fits of the
    slices below it.  ``trace`` receives, at the start of every pass, the
    risks of the slices still running.
    """
    if not model.loss.is_smooth:
        raise ConfigError("fit_erm requires a smooth loss")
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if X.ndim != 3 or y.shape != X.shape[:2] or min(X.shape[1:]) < 1:
        raise ConfigError("X must be k x n x p with n, p >= 1 and y k x n")
    k, n, p = X.shape
    tol = min(1e-10, 1.0 / (n * n)) if tol is None else tol  # inside the o(1/n) margin
    if tol <= 0:
        raise ConfigError("tol must be > 0")
    if init is None:
        theta = _default_init(X, y, model)
    else:
        theta = np.array(init, dtype=float)
        if theta.shape not in ((p,), (k, p)):
            raise ConfigError(f"init must have shape ({p},) or ({k}, {p})")
        theta = np.broadcast_to(theta, (k, p)).copy()
    risk = _risk(X, y, model, theta)
    # each slice's gradient norm, pass count and flags at its last pass
    gnorms, passes = np.zeros(k), np.zeros(k, dtype=int)
    certified, singular = np.zeros((2, k), dtype=bool)
    act = np.arange(k)  # the running slices, in slice order
    iterations = 0  # every running slice has taken this many steps
    while act.size:
        if trace is not None:
            trace.extend(risk[act].tolist())
        Xa, ya, th = _rows(X, act), _rows(y, act), theta[act]
        grad, hess, _ = _grad_hess(Xa, ya, model, th)
        gnorm = np.sqrt(_dot(grad, grad))
        direction, clean = _cho_solve_stack(hess, -grad)
        factored = clean.copy()
        if not model.is_closed_form:
            # Non-quadratic objectives: Levenberg-style shift until factorizable.
            shift = np.flatnonzero(~clean)
            tau = 1e-8 * np.fmax(1.0, np.abs(np.diagonal(hess[shift], axis1=-2, axis2=-1)).max(-1))
            for _ in range(40):
                if not shift.size:
                    break
                x, ok = _cho_solve_stack(hess[shift] + tau[:, None, None] * np.eye(p),
                                         -grad[shift])
                direction[shift[ok]] = x[ok]
                factored[shift[ok]] = True
                shift, tau = shift[~ok], 10.0 * tau[~ok]
        # A small gradient alone is not a minimizer certificate: on separable
        # logistic data the risk is exponentially flat and the (shifted)
        # Newton step underflows while no finite minimizer exists.  Require a
        # cleanly factorizable Hessian and a small Newton step as well.
        step_ok = np.sqrt(_dot(direction, direction)) <= 1e-6 * (1.0 + np.sqrt(_dot(th, th)))
        converged = (gnorm <= tol) & clean & step_ok
        gnorms[act], passes[act], certified[act] = gnorm, iterations, converged
        singular[act] = ~factored & (iterations < max_iter)
        search = np.flatnonzero(factored & ~converged & (iterations < max_iter))
        slope = _dot(grad, direction)
        ascent = slope >= 0  # not a descent direction; fall back to steepest descent
        direction[ascent] = -grad[ascent]
        slope[ascent] = -gnorm[ascent] * gnorm[ascent]
        step = 1.0  # one length: the slices still searching have all halved it as often
        moved = np.zeros(act.size, dtype=bool)
        for _ in range(60):
            if not search.size:
                break
            cand = th[search] + step * direction[search]
            cand_risk = _risk(_rows(Xa, search), _rows(ya, search), model, cand)
            accept = cand_risk <= risk[act[search]] + _ARMIJO_C1 * step * slope[search]
            theta[act[search[accept]]] = cand[accept]
            risk[act[search[accept]]] = cand_risk[accept]
            moved[search[accept]] = True
            search = search[~accept]
            step *= _ARMIJO_BETA
        act = act[moved]
        iterations += 1
    reports = list(map(FitReport, theta, gnorms.tolist(), passes.tolist(), certified.tolist()))
    if singular.any():
        index = int(np.argmax(singular))
        raise SingularHessianError("Hessian is numerically singular", index=index,
                                   reports=reports[:index])
    return reports


def fit_erm(
    d: Dataset,
    model: ModelSpec,
    init: np.ndarray | None = None,
    tol: float | None = None,
    max_iter: int = _MAX_ITER,
    trace: list | None = None,
) -> FitReport:
    """Minimize the empirical risk of one dataset: ``fit_erm_stacked`` on one slice.

    ``trace``, if given, receives the risk at the start of every pass.
    """
    return fit_erm_stacked(d.X[None], d.y[None], model, init, tol, max_iter, trace)[0]


def _solve_normal(G: np.ndarray, b: np.ndarray, n: int, penalty: float = 0.0) -> np.ndarray:
    """Solve (G/n + penalty I) theta = b/n for a stack of Grams G (..., p, p) and b (..., p).

    Every system gets the LAPACK calls of a lone 2-D solve
    (``_cho_solve_stack``), so a slice of the stack equals its own solve
    bitwise.  An empty design (n = 0), a singular system (at penalty 0, any
    with n < p), a non-finite one (NaN or inf data) or a non-finite solution
    raises ``RankError`` naming the lowest one, with a text of its own for an
    empty design and for a non-finite system.
    """
    if not penalty >= 0:
        raise ConfigError("penalty must be >= 0")
    if n == 0:  # G/n would be 0/0, which reads as non-finite data
        raise RankError("normal equations have no rows (empty design, n = 0)")
    theta, ok = _normal_solutions(G, b, n, penalty)
    if not ok.all():
        i, p = int(np.argmin(ok)), G.shape[-1]
        G_i, b_i = G.reshape(-1, p, p)[i], b.reshape(-1, p)[i]
        finite = np.isfinite(G_i).all() and np.isfinite(b_i).all()
        raise RankError("normal equations are singular (rank-deficient design)" if finite else
                        "normal equations are not finite (NaN or inf in the data)", index=i)
    return theta.reshape(G.shape[:-1])


def _normal_solutions(G: np.ndarray, b: np.ndarray, n: int | np.ndarray, penalty: float = 0.0):
    """Solutions (k, p) of (G/n + penalty I) theta = b/n over a flattened stack of k
    systems, and the mask of those that hold; ``n`` is one row count or one per
    system, shape (k,).  A system fails if it does not factor, its solution is
    not finite or, at penalty 0, it has n < p rows."""
    p = G.shape[-1]
    n = np.asarray(n)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite system fails below
        a = (G / n[..., None, None] + penalty * np.eye(p)).reshape(-1, p, p)
        b = (b / n[..., None]).reshape(-1, p)
    theta, ok = _cho_solve_stack(a, b)
    ok &= np.isfinite(theta).all(-1)  # dpotrf reports success on a NaN matrix
    ok &= (penalty > 0) | (n >= p)  # rank(G) <= n: singular however G rounds
    return theta, ok


def _normal_stats(X: np.ndarray, y: np.ndarray):
    """X'X and X'y of a design or a stack; non-finite data fail in ``_solve_normal``."""
    xt = np.swapaxes(X, -1, -2)
    with np.errstate(invalid="ignore", over="ignore"):
        return xt @ X, (xt @ y[..., None])[..., 0]


def fit_closed_stacked(X: np.ndarray, y: np.ndarray, penalty: float = 0.0) -> np.ndarray:
    """Closed-form (X'X/n + penalty I)^-1 X'y/n for a stack of designs X (..., n, p) and
    responses y (..., n): ``_solve_normal`` of their Grams, shape (..., p)."""
    if X.shape[-1] < 1:
        raise ConfigError("designs must have p >= 1 columns")
    return _solve_normal(*_normal_stats(X, y), X.shape[-2], penalty)


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
    """Population minimizer of the model's risk on data of its own link (another link
    raises ``ConfigError``): the ridge shrinkage point, else theta0."""
    if gen.link != model.link:
        raise ConfigError(f"data link {gen.link!r} does not match "
                          f"the model's link {model.link!r}")
    if model.penalty:
        return ridge_population_target(gen.theta0, gen.sigma_spec, model.penalty)
    return gen.theta0


def sandwich_covariance(d: Dataset, theta_hat: np.ndarray, model: ModelSpec) -> np.ndarray:
    """Plug-in asymptotic covariance of sqrt(n) (theta_hat - theta*).

    V^-1 (mean of grad grad') V^-1 with V the empirical Hessian at the fit.
    Divide by n for standard errors of theta_hat itself.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    _, hess, w1 = _grad_hess(d.X, d.y, model, theta_hat)
    grads = d.X * w1[:, None]  # row i: gradient of the i-th loss term
    if model.penalty:
        grads = grads + model.penalty * theta_hat[None, :]
    meat = grads.T @ grads / d.n
    c, info = dpotrf(hess, lower=0, clean=0)  # one factor, two solves
    if info != 0:
        raise SingularHessianError("empirical Hessian is singular")
    out = dpotrs(c, dpotrs(c, meat, lower=0)[0].T, lower=0)[0]
    return (out + out.T) / 2.0
