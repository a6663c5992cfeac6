"""Residual losses with analytic derivatives up to order four and proximal operators.

Every loss here is a convex function of a scalar residual t: squared,
pseudo-Huber, absolute or logistic.  Ridge is the squared loss with the
parameter penalty of its ``estimator.ModelSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    NonDifferentiableError,
    ProxFailureError,
    UnsupportedDerivativeError,
)

_PROX_TOL = 1e-12
_PROX_MAX_ITER = 100


@dataclass(frozen=True)
class LossSpec:
    """A residual loss: squared, pseudo_huber (of scale ``delta``), absolute or logistic.

    ``smooth_order`` is the highest derivative order available everywhere
    (absolute: 1, valid a.e.; all others: 4).
    """

    kind: str
    delta: float = 3.0

    def __post_init__(self):
        if self.kind not in ("squared", "pseudo_huber", "absolute", "logistic"):
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.kind == "pseudo_huber" and not 0 < self.delta < np.inf:
            raise ConfigError("pseudo_huber scale delta must be finite and > 0")

    @property
    def smooth_order(self) -> int:
        return 1 if self.kind == "absolute" else 4

    @property
    def is_smooth(self) -> bool:
        return self.kind != "absolute"

    @property
    def is_even(self) -> bool:
        """f(-t) == f(t): every loss here but the logistic."""
        return self.kind != "logistic"

    @staticmethod
    def squared() -> "LossSpec":
        return LossSpec("squared")

    @staticmethod
    def pseudo_huber(delta: float = 3.0) -> "LossSpec":
        return LossSpec("pseudo_huber", delta=delta)

    @staticmethod
    def absolute() -> "LossSpec":
        return LossSpec("absolute")

    @staticmethod
    def logistic() -> "LossSpec":
        return LossSpec("logistic")


def _sigmoid(t):
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def derivative_array(spec: LossSpec, t: np.ndarray, order: int) -> np.ndarray:
    """Vectorized f_[order](t) without the domain checks of :func:`loss_derivative`.

    Used on the hot paths (estimation, quadrature).  The caller is responsible
    for keeping ``order`` within ``spec.smooth_order`` and, for the absolute
    loss, away from t = 0.
    """
    t = np.asarray(t, dtype=float)
    if spec.kind == "squared":
        if order == 0:
            return 0.5 * t * t
        if order == 1:
            return t.copy()
        if order == 2:
            return np.ones_like(t)
        return np.zeros_like(t)
    if spec.kind == "pseudo_huber":
        d2 = spec.delta * spec.delta
        u = 1.0 + t * t / d2
        if order == 0:
            return d2 * (np.sqrt(u) - 1.0)
        if order == 1:
            return t / np.sqrt(u)
        if order == 2:
            return u ** -1.5
        if order == 3:
            return -3.0 * t / d2 * u ** -2.5
        return 3.0 / d2 * u ** -3.5 * (4.0 * t * t / d2 - 1.0)
    if spec.kind == "logistic":
        if order == 0:
            return np.logaddexp(0.0, -t)
        s = _sigmoid(t)
        if order == 1:
            return s - 1.0
        v = s * (1.0 - s)
        if order == 2:
            return v
        if order == 3:
            return v * (1.0 - 2.0 * s)
        return v * (1.0 - 6.0 * s + 6.0 * s * s)
    # absolute
    if order == 0:
        return np.abs(t)
    return np.sign(t)


def loss_derivative(spec: LossSpec, t: float, order: int) -> float:
    """Exact analytic value of the order-th derivative of the loss at t.

    Raises ``UnsupportedDerivativeError`` above the loss's smooth order and
    ``NonDifferentiableError`` for the absolute loss at t = 0 (order >= 1).
    """
    if not 0 <= order <= 4:
        raise UnsupportedDerivativeError(f"order must be in 0..4, got {order}")
    if order > spec.smooth_order:
        raise UnsupportedDerivativeError(
            f"{spec.kind} loss supports derivatives up to order {spec.smooth_order}, got {order}"
        )
    if spec.kind == "absolute" and order >= 1 and t == 0.0:
        raise NonDifferentiableError("absolute loss is not differentiable at t = 0")
    return float(derivative_array(spec, np.asarray([t]), order)[0])


def _at_round_off(x, g):
    return np.abs(g) <= _PROX_TOL * (1.0 + np.abs(x))


def _shrink_bracket(x, g, lo, hi):
    """Bracket of the root of g after g(x) is known, given g' >= 1."""
    below = g < 0
    return (np.where(below, x, np.maximum(lo, x - g)),
            np.where(below, np.minimum(hi, x - g), x))


def prox_array(spec: LossSpec, c: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized proximal operator argmin_x {f(x) + (x-z)^2 / (2c)} and d(prox)/dz.

    Closed forms for squared and absolute; safeguarded Newton on the
    stationarity condition x - z + c f_[1](x) = 0 for the smooth losses.
    """
    if c <= 0:
        raise ConfigError("prox parameter c must be > 0")
    z = np.asarray(z, dtype=float)
    if spec.kind == "squared":
        return z / (1.0 + c), np.full_like(z, 1.0 / (1.0 + c))
    if spec.kind == "absolute":
        prox = np.sign(z) * np.maximum(np.abs(z) - c, 0.0)
        return prox, (np.abs(z) > c).astype(float)

    # Smooth losses have |f_[1]| bounded by b, so the root lies in z -+ c*b.
    # Safeguarded Newton on the monotone g(x) = x - z + c f_[1](x).  Since
    # g' >= 1, |x - x*| <= |g(x)|: every evaluation puts x on one side of the
    # bracket and x - g(x) on the other, and a node is done once |g| is at
    # round-off level, _PROX_TOL (1 + |x|), or once a step stops moving it.
    # A Newton candidate is accepted when it stays inside the bracket and
    # either shrinks |g| or lands at round-off level (there the shrink test is
    # a coin flip); otherwise the step bisects (far from the root the
    # saturating f_[1] can make raw Newton cycle).
    bound = c * (spec.delta if spec.kind == "pseudo_huber" else 1.0)
    lo = z - bound - 1e-9
    hi = z + bound + 1e-9
    x = np.clip(z - c * derivative_array(spec, z, 1)
                / (1.0 + c * derivative_array(spec, z, 2)), lo, hi)
    g = x - z + c * derivative_array(spec, x, 1)
    lo, hi = _shrink_bracket(x, g, lo, hi)
    done = _at_round_off(x, g)
    for _ in range(_PROX_MAX_ITER):
        if np.all(done):
            break
        gp = 1.0 + c * derivative_array(spec, x, 2)
        newton = x - g / gp
        mid = 0.5 * (lo + hi)
        cand = np.where((newton < lo) | (newton > hi), mid, newton)
        g_cand = cand - z + c * derivative_array(spec, cand, 1)
        converged = _at_round_off(cand, g_cand)
        retry = ~done & ~converged & (np.abs(g_cand) >= np.abs(g))
        if np.any(retry):
            cand = np.where(retry, mid, cand)
            g_cand = cand - z + c * derivative_array(spec, cand, 1)
            converged = _at_round_off(cand, g_cand)
        cand = np.where(done, x, cand)
        g_cand = np.where(done, g, g_cand)
        lo, hi = _shrink_bracket(cand, g_cand, lo, hi)
        done = done | converged | _at_round_off(cand, cand - x)
        x, g = cand, g_cand
    if not np.all(done):
        raise ProxFailureError(
            f"prox Newton did not converge in {_PROX_MAX_ITER} iterations for {spec.kind}"
        )
    dprox = 1.0 / (1.0 + c * derivative_array(spec, x, 2))
    return x, dprox


def prox_eval(spec: LossSpec, c: float, z: float) -> tuple[float, float]:
    """Scalar proximal operator value and its z-derivative."""
    p, d = prox_array(spec, c, np.asarray([z]))
    return float(p[0]), float(d[0])
