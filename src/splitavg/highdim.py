"""High-dimensional regime: coupled residual equations, small-ratio series, MSE ratios.

In the proportional regime p/n -> kappa the per-machine estimator error has a
deterministic magnitude r(kappa) determined, together with a companion scalar
c, by two coupled nonlinear equations in expectations over the compound
residual noise eps + r * eta.  This module solves those equations, computes
the small-kappa perturbation coefficients (c1, c2, r1, r2) from loss/noise
moments, and evaluates the resulting parallelization accuracy loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegenerateLossError, NumericalError, SolverFailureError
from .losses import LossSpec, derivative_array, prox_array
from .model import NoiseDist, error_ratio

_SQRT2 = math.sqrt(2.0)
_SQRTPI = math.sqrt(math.pi)
_LAPLACE_TRUNCATION = 40.0  # scale parameters; the tail beyond holds e^-40 of the mass


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature controls for expectations over the compound residual noise.

    ``nodes`` is the Gauss-Hermite count; the noise axis uses graded
    Gauss-Legendre panels of ``max(16, nodes // 4)`` points each, truncated
    at 40 scale parameters for Laplace noise.  Smooth-loss residual solves
    under gaussian noise of positive variance integrate eps + r eta as one
    normal on those panels, so there ``nodes`` matters only through the panel
    count.  ``_expect_xi_adaptive`` integrates the noise axis with scipy's
    adaptive integrator instead, as the slow reference for these panels.
    """

    nodes: int = 64

    def __post_init__(self):
        if self.nodes < 16:
            raise ConfigError("quadrature needs >= 16 nodes per axis")


DEFAULT_QUADRATURE = QuadratureSpec()


def _noise_law(noise: NoiseDist):
    """Density of eps (called at |t|), the panel edges on [0, truncation] and
    the variance of eps's normal part (all of gaussian noise, none of Laplace)."""
    if noise.kind == "gaussian":
        sd = math.sqrt(noise.param)
        edges = np.concatenate([[0.0], np.geomspace(0.05, 10.0, 20)]) * sd
        return ((lambda t: np.exp(-0.5 * (t / sd) ** 2) / (sd * _SQRT2 * _SQRTPI)), edges,
                noise.param)
    scale = noise.param
    edges = np.concatenate([[0.0], np.geomspace(0.02, _LAPLACE_TRUNCATION, 20)]) * scale
    return (lambda t: np.exp(-t / scale) / (2.0 * scale)), edges, 0.0


@lru_cache(maxsize=32)
def _eps_axis(noise: NoiseDist, q: QuadratureSpec):
    """Nodes/weights for E[g(eps)]: mirrored Gauss-Legendre panels times the density.

    Graded panels stay accurate for integrands with complex poles near the
    real axis (pseudo-Huber derivatives have poles at +-i delta), where a
    single global Gauss rule under-converges.
    """
    if noise.param == 0.0:  # noiseless gaussian
        return np.zeros(1), np.ones(1)
    density, edges, _ = _noise_law(noise)
    x, w = np.polynomial.legendre.leggauss(max(16, q.nodes // 4))
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    t = (0.5 * (a + b) + half * x).ravel()  # panel by panel on [0, truncation]
    wt = (half * w).ravel() * density(t)
    return np.concatenate([t, -t]), np.concatenate([wt, wt])


@lru_cache(maxsize=32)
def _eta_axis(nodes: int):
    """Gauss-Hermite nodes/weights for E[g(eta)], eta standard normal."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return _SQRT2 * x, w / _SQRTPI


def _compound_grid(noise: NoiseDist, q: QuadratureSpec, r: float, rows=None):
    """Nodes of eps + r * eta over the first ``rows`` noise nodes (default: all) and
    the weighted mean over the whole grid; one axis when r = 0."""
    te, we = _eps_axis(noise, q)
    te = te[:rows]
    if r == 0.0:
        return te, lambda a: float(we @ a)
    th, wh = _eta_axis(q.nodes)
    return te[:, None] + r * th[None, :], lambda a: float(we @ a @ wh)


def expect_xi(g, noise: NoiseDist, r: float, q: QuadratureSpec | None = None) -> float:
    """E[g(eps + r * eta)] with eta standard normal independent of eps.

    Noise panels composed with Gauss-Hermite in eta; collapses to a single
    axis when r = 0.
    """
    if r < 0:
        raise ConfigError("r must be >= 0")
    z, mean = _compound_grid(noise, q or DEFAULT_QUADRATURE, r)
    vals = np.asarray(g(z), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("integrand produced non-finite values")
    return mean(vals)


def _expect_xi_adaptive(g, noise: NoiseDist, r: float, q: QuadratureSpec):
    """``expect_xi`` with scipy's adaptive integrator on the noise axis (slow; reference)."""
    from scipy.integrate import quad

    th, wh = _eta_axis(q.nodes)

    def inner(e):
        if r == 0.0:
            return float(np.asarray(g(np.asarray([e])))[0])
        return float(np.asarray(g(e + r * th)) @ wh)

    if noise.param == 0.0:  # noiseless gaussian
        return inner(0.0)
    # the density and truncation of the panels this path is the reference for
    density, edges, _ = _noise_law(noise)
    val, _ = quad(lambda e: inner(e) * density(abs(e)), -edges[-1], edges[-1],
                  points=[0.0], limit=400)
    return val


# ---------------------------------------------------------------------------
# Perturbation coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbCoeffs:
    """Loss/noise moments and the small-kappa series coefficients.

    c(kappa) ~ c1 kappa + c2 kappa^2 and r^2(kappa) ~ r1 kappa + r2 kappa^2.
    The *_hd suffixes keep these scalars distinct from the ridge moment
    matrices and the second-order bias elsewhere in the package.
    """

    A2: float
    A4: float
    T1: float
    B1_hd: float
    B2_hd: float
    c1: float
    c2: float
    r1: float
    r2: float

    @property
    def ratio(self) -> float:
        return self.r2 / self.r1


@lru_cache(maxsize=32)
def perturb_coeffs(
    loss: LossSpec,
    noise: NoiseDist,
    q: QuadratureSpec | None = None,
    b2_sign: int = -1,
) -> PerturbCoeffs:
    """Moments A2, A4, T1, B1, B2 over the noise and the series coefficients.

    ``b2_sign`` is the sign applied to the 2 B2 / A2^3 term of r2.  The
    default -1 is the self-consistent value: it is forced by coefficient
    matching in the small-kappa expansion, and it alone reproduces the exact
    squared-loss solution (r1 = r2 = sigma^2).  The +1 variant is exposed for
    comparison and yields 5 sigma^2 there instead.
    """
    if not loss.is_smooth:
        raise ConfigError("perturbation coefficients need a loss smooth to order 4; "
                          "use absolute_series for the absolute loss")
    if b2_sign not in (-1, 1):
        raise ConfigError("b2_sign must be -1 or +1")
    t, mean = _compound_grid(noise, q or DEFAULT_QUADRATURE, 0.0)
    f1, f2, f3, f4 = (derivative_array(loss, t, k) for k in range(1, 5))
    a2 = mean(f2)
    a4 = mean(0.5 * f4)
    t1 = mean(f2 ** 2 + f1 * f3)
    b1 = mean(f1 ** 2)
    b2 = mean(f1 ** 2 * f2)
    if a2 <= 0:
        raise DegenerateLossError(f"E[f''(eps)] = {a2} is not positive")
    c1 = 1.0 / a2
    c2 = t1 / a2 ** 3 - b1 * a4 / a2 ** 4
    r1 = b1 / a2 ** 2
    r2 = 3.0 * b1 * t1 / a2 ** 4 - 2.0 * b1 ** 2 * a4 / a2 ** 5 + b2_sign * 2.0 * b2 / a2 ** 3
    return PerturbCoeffs(a2, a4, t1, b1, b2, c1, c2, r1, r2)


# ---------------------------------------------------------------------------
# Coupled residual equations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RcSolution:
    kappa: float
    c: float
    r: float
    residuals: tuple

    @property
    def r_squared(self) -> float:
        return self.r * self.r


def _phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of an array, element by element: erfc(-x / sqrt(2)) / 2."""
    return 0.5 * _erfc(-x / _SQRT2).astype(float)


def _absolute_residual_fn(noise: NoiseDist, q: QuadratureSpec):
    """Residuals of the coupled equations for the soft-threshold (absolute) prox.

    The prox derivative is an indicator, so the expectations are computed
    against the exact distribution of the compound noise: noise panels
    composed with closed-form normal pieces of variance r^2 = s2 + rho, where
    s2 is the normal part of the noise.  Gaussian noise is all normal part
    and leaves one node at 0 with weight 1.  Returns the residuals and their
    analytic Jacobian in (c, rho), built from d/dc E[min(X^2, c^2)] =
    2c P(|X| > c) and, for X with a normal part of variance r^2,
    d/drho E[h(X)] = E[h''(X)] / 2.
    """
    if noise.variance == 0:
        raise ConfigError("absolute-loss equations need noise with positive variance")
    density, _, s2 = _noise_law(noise)
    te, we = (np.zeros(1), np.ones(1)) if s2 else _eps_axis(noise, q)

    def residuals(c, rho, kappa):
        r2 = s2 + rho
        r = math.sqrt(r2) if r2 > 0 else 0.0
        if r < 1e-13 and not s2:
            e_dprox = float(we @ (np.abs(te) > c))
            e_min = float(we @ np.minimum(te * te, c * c))
            # r -> 0 limits (Laplace noise only), from the density p_c at +-c
            p_c = density(c)
            d_dprox = [-2.0 * p_c, p_c / noise.param]
            d_min_rho = 1.0 - e_dprox - 2.0 * c * p_c
        else:
            a_hi, a_lo = (c - te) / r, (-c - te) / r
            phi_hi, phi_lo = _phi(a_hi), _phi(a_lo)
            inside = _ndtr(a_hi) - _ndtr(a_lo)
            e_dprox = float(we @ (1.0 - inside))
            # E[min(X^2, c^2)] for X ~ N(te, r^2), from the same normal pieces
            min_sq = (te * te + r * r) * inside + 2.0 * te * r * (phi_lo - phi_hi) \
                + r * r * (a_lo * phi_lo - a_hi * phi_hi)
            e_min = float(we @ (min_sq + c * c * (1.0 - inside)))
            d_dprox = [-float(we @ (phi_hi + phi_lo)) / r,
                       float(we @ (a_hi * phi_hi - a_lo * phi_lo)) / (2.0 * r2)]
            d_min_rho = float(we @ (inside - c * (phi_hi + phi_lo) / r))
        f = np.array([e_dprox - (1.0 - kappa), e_min - kappa * rho])
        jac = np.array([d_dprox, [2.0 * c * e_dprox, d_min_rho - kappa]])
        return f, jac

    return residuals


def _smooth_residual_fn(loss: LossSpec, noise: NoiseDist, q: QuadratureSpec):
    """Residuals and their analytic Jacobian in (c, rho) from one prox evaluation.

    With x = prox_c(z) and D = dprox/dz = 1 / (1 + c f''(x)), implicit
    differentiation gives dx/dc = -f'(x) D and dD/dz = -c f'''(x) D^3.  The
    rho column differentiates the quadrature sum itself.

    Gaussian noise of variance s2 > 0 makes eps + r eta exactly N(0, s2 + rho),
    so z = s xi with s = sqrt(s2 + rho) on the unit-normal panel axis (xi, w),
    and the rho column is sum_i w_i h'(z_i) xi_i / (2 s) at every rho >= 0.
    Other noise takes the compound grid: its rho column is
    E[h'(z) eta] / (2 sqrt(rho)), and at rho = 0 (one axis) Stein's lemma,
    E[h''(eps)] / 2.
    """
    normal = noise.kind == "gaussian" and noise.param > 0.0
    te, we = _eps_axis(NoiseDist.gaussian(1.0) if normal else noise, q)
    th, wh = _eta_axis(q.nodes)
    wh_eta = wh * th
    # Under an even loss the mirrored noise axis holds -z beside every node z
    # (row -t is row t negated and eta-reversed, as th == -th[::-1]; on the
    # one normal axis node -t is s t negated); prox, f' and f''' are odd in z
    # and D, f'', f'''' even, bit for bit.  So the prox runs on the t >= 0
    # rows and each integrand is unfolded by parity.
    fold = loss.is_even and te.size > 1
    rows = te.size // 2 if fold else None
    xi = te[:rows]

    def unfold(h, odd=False):
        if not fold:
            return h
        mirror = h[:, ::-1] if h.ndim == 2 else h
        return np.concatenate([h, -mirror if odd else mirror])

    def grid(rho):
        """Nodes z, the weighted mean and the rho derivative of that mean of h
        from h'(z) (None at rho = 0 on the compound grid: Stein's lemma)."""
        if normal:
            s = math.sqrt(noise.param + rho)
            mean = lambda h: float(we @ unfold(h))
            return s * xi, mean, lambda dh: (0.5 / s) * mean(dh * xi)  # dh * xi is even
        z, mean_all = _compound_grid(noise, q, math.sqrt(rho), rows)
        mean = lambda h: mean_all(unfold(h))
        if rho == 0:
            return z, mean, None
        half = 0.5 / math.sqrt(rho)  # dh is odd, as are the eta weights
        return z, mean, lambda dh: half * float(we @ unfold(dh, odd=True) @ wh_eta)

    def residuals(c, rho, kappa):
        z, mean, d_mean_rho = grid(rho)
        prox, dprox = prox_array(loss, c, z)
        gap = z - prox
        f = np.array([mean(dprox) - (1.0 - kappa), mean(gap * gap) - kappa * rho])
        f1 = derivative_array(loss, prox, 1)
        d_dprox_dz = -c * derivative_array(loss, prox, 3) * dprox ** 3
        # d/dc of D and of gap^2 = (z - x)^2, through dx/dc = -f' D
        d_c = (-mean(dprox * dprox * derivative_array(loss, prox, 2)) - mean(f1 * d_dprox_dz),
               2.0 * mean(gap * f1 * dprox))
        if d_mean_rho is not None:
            d_rho = (d_mean_rho(d_dprox_dz), d_mean_rho(2.0 * gap * (1.0 - dprox)))
        else:
            d_rho = (mean(1.5 * d_dprox_dz ** 2 / dprox
                          - 0.5 * c * derivative_array(loss, prox, 4) * dprox ** 4),
                     mean((1.0 - dprox) ** 2 - gap * d_dprox_dz))
        jac = np.array([[d_c[0], d_rho[0]], [d_c[1], d_rho[1] - kappa]])
        return f, jac

    return residuals


def _series_init(loss: LossSpec, noise: NoiseDist, kappa: float, q: QuadratureSpec):
    # kappa/(1-kappa) matches the small-kappa series to first order and keeps
    # the starting point on the right scale as kappa -> 1.
    growth = kappa / (1.0 - kappa)
    if loss.is_smooth:
        pc = perturb_coeffs(loss, noise, q)
        return max(pc.c1 * growth, 1e-12), max(pc.r1 * growth, 0.0)
    # absolute loss: c1 = 1 / (2 p(0)) and r1 = c1^2.  c starts at
    # c1 growth / sqrt(1 + growth), still first-order exact: from c1 growth
    # Newton stalls at kappa = 0.9 and 0.99, which the planner reaches.
    c1 = 0.5 / _noise_law(noise)[0](0.0)
    return c1 * growth / math.sqrt(1.0 + growth), c1 * c1 * growth


def _newton_rc(fn, x0, kappa: float, tol: float, max_iter: int) -> RcSolution:
    """Damped Newton on ``fn``'s residuals in (c, r^2) from ``x0``, to residual norm <= tol."""
    x = np.array(x0, dtype=float)
    f, jac = fn(x[0], x[1], kappa)
    trace = [float(np.linalg.norm(f))]
    for _ in range(max_iter):
        norm = float(np.linalg.norm(f))
        if norm <= tol:
            return RcSolution(kappa, float(x[0]), math.sqrt(max(x[1], 0.0)),
                              (float(f[0]), float(f[1])))
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            raise SolverFailureError("singular Jacobian in residual solve", trace) from None
        lam = 1.0
        for _ in range(60):
            cand = x + lam * step
            if cand[0] > 0 and cand[1] >= 0:
                f_cand, jac_cand = fn(cand[0], cand[1], kappa)
                if np.linalg.norm(f_cand) < norm:
                    break
            lam *= 0.5
        else:
            raise SolverFailureError(
                f"no descent step found at residual {norm:.3e}", trace)
        x, f, jac = cand, f_cand, jac_cand
        trace.append(float(np.linalg.norm(f)))
    raise SolverFailureError(
        f"no convergence in {max_iter} iterations (kappa={kappa})", trace)


def solve_rc(
    loss: LossSpec,
    noise: NoiseDist,
    kappa: float,
    q: QuadratureSpec | None = None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> RcSolution:
    """Solve the coupled equations for (c, r(kappa)).

    The squared loss has the exact law c = kappa/(1-kappa), r^2 = kappa
    sigma^2/(1-kappa) for any noise of variance sigma^2: it is returned
    without quadrature, with the exact equations' residuals at that point.
    Other losses run damped Newton in (c, r^2) from the small-kappa series;
    working in r^2 avoids the square-root singularity at kappa -> 0.  It
    stops when the residual norm is <= tol, and every residual evaluation
    also returns the analytic Jacobian, so a step costs one prox evaluation.
    ``tol`` must be finite and > 0 and ``max_iter`` >= 0, for every loss.
    """
    if not 0.0 < kappa < 1.0:
        raise ConfigError("kappa must be in (0, 1)")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError("tol must be finite and > 0")
    if max_iter < 0:
        raise ConfigError("max_iter must be >= 0")
    if loss.kind == "squared":
        s2 = noise.variance
        c, rho = kappa / (1.0 - kappa), kappa * s2 / (1.0 - kappa)
        residuals = (1.0 / (1.0 + c) - (1.0 - kappa), kappa * kappa * (s2 + rho) - kappa * rho)
        return RcSolution(kappa, c, math.sqrt(rho), residuals)
    q = q or DEFAULT_QUADRATURE
    fn = _smooth_residual_fn(loss, noise, q) if loss.is_smooth else _absolute_residual_fn(noise, q)
    return _newton_rc(fn, _series_init(loss, noise, kappa, q), kappa, tol, max_iter)


def absolute_series(noise: NoiseDist, kappa_grid=None,
                    q: QuadratureSpec | None = None) -> tuple[float, float]:
    """Fit r^2(kappa) = r1 kappa + r2 kappa^2 for the absolute loss on a small grid.

    The grid must hold >= 4 distinct points in (0, 0.1]; the default stays
    below 0.01 where the quadratic model is a good description for gaussian
    noise.
    """
    if kappa_grid is None:
        kappa_grid = np.geomspace(1e-3, 8e-3, 5)
    kappa_grid = np.asarray(sorted(float(k) for k in kappa_grid))
    if len(set(kappa_grid)) < 4:
        raise ConfigError("kappa_grid needs >= 4 distinct points")
    if kappa_grid[0] <= 0 or kappa_grid[-1] > 0.1:
        raise ConfigError("kappa_grid must lie in (0, 0.1]")
    # the quadratic fit amplifies the solver error, so solve well past the default tol
    rho = np.array([solve_rc(LossSpec.absolute(), noise, k, q, tol=1e-13).r_squared
                    for k in kappa_grid])
    design = np.vstack([kappa_grid, kappa_grid ** 2]).T
    coef, *_ = np.linalg.lstsq(design, rho, rcond=None)
    return float(coef[0]), float(coef[1])


def mse_ratio_first_order(kappa: float, m: int, coeffs: PerturbCoeffs) -> float:
    """Leading-order accuracy loss of averaging: 1 + kappa (r2/r1) (1 - 1/m)."""
    if not 0.0 < kappa < 1.0:
        raise ConfigError("kappa must be in (0, 1)")
    if m < 1:
        raise ConfigError("m must be >= 1")
    return 1.0 + kappa * coeffs.ratio * (1.0 - 1.0 / m)


def mse_ratio_exact(loss: LossSpec, noise: NoiseDist, kappa: float, m: int,
                    q: QuadratureSpec | None = None) -> float:
    """(r^2(kappa)/m) / r^2(kappa/m): the averaged-vs-centralized MSE ratio.

    Noiseless problems have r^2 = 0 at both sizes and give ratio 1.
    """
    if m < 1:
        raise ConfigError("m must be >= 1")
    top = solve_rc(loss, noise, kappa, q).r_squared / m
    bottom = solve_rc(loss, noise, kappa / m, q).r_squared
    return error_ratio(top, bottom)
