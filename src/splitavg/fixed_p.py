"""Second-order error theory for the fixed-dimension regime.

The stochastic expansion of an M-estimator around its population target is
summarized by a vector delta and matrices gamma0..gamma4; from these the
second-order bias and MSE of both the centralized and the split-and-average
estimators follow in closed form.  Closed-form moment sets are provided for
OLS (general covariance) and ridge (identity covariance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import sigma_as_matrix


@dataclass(frozen=True, eq=False)
class GammaSet:
    """Expansion moments: bias vector delta and matrices gamma0..gamma4.

    gamma0 must equal outer(delta, delta); gamma0 and gamma1 are symmetric
    PSD.  Validated at construction.
    """

    delta: np.ndarray
    gamma0: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    gamma4: np.ndarray

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        p = delta.shape[0]
        if p < 1:
            raise ConfigError("p must be >= 1")
        object.__setattr__(self, "delta", delta)
        for name in ("gamma0", "gamma1", "gamma2", "gamma3", "gamma4"):
            g = np.asarray(getattr(self, name), dtype=float)
            if g.shape != (p, p):
                raise ConfigError(f"{name} must be {p} x {p}")
            object.__setattr__(self, name, g)
        scale = 1.0 + float(np.abs(self.gamma0).max())
        if not np.allclose(self.gamma0, np.outer(delta, delta), atol=1e-10 * scale):
            raise ConfigError("gamma0 must equal outer(delta, delta)")
        for name in ("gamma0", "gamma1"):
            g = getattr(self, name)
            if not np.allclose(g, g.T, atol=1e-10 * (1.0 + np.abs(g).max())):
                raise ConfigError(f"{name} must be symmetric")

    @property
    def p(self) -> int:
        return self.delta.shape[0]

    def second_order_sum(self) -> np.ndarray:
        """gamma2 + gamma2' + gamma3 + gamma4 + gamma4', the 1/n^2 MSE weight."""
        return self.gamma2 + self.gamma2.T + self.gamma3 + self.gamma4 + self.gamma4.T


def ols_gammas(sigma, sigma2: float, p: int) -> GammaSet:
    """Expansion moments for OLS under the linear model with noise variance sigma2."""
    if sigma2 < 0:
        raise ConfigError("noise variance must be >= 0")
    sig_inv = np.linalg.inv(sigma_as_matrix(sigma, p))
    sig_inv = (sig_inv + sig_inv.T) / 2.0
    core = sigma2 * sig_inv
    zero = np.zeros((p, p))
    return GammaSet(
        delta=np.zeros(p),
        gamma0=zero,
        gamma1=core,
        gamma2=-(1 + p) * core,
        gamma3=(1 + p) * core,
        gamma4=(1 + p) * core,
    )


def lam_kl(penalty: float, k: int, l: int) -> float:
    """Shrinkage weight penalty^k / (1 + penalty)^l."""
    return penalty ** k / (1.0 + penalty) ** l


def ridge_gammas(theta0: np.ndarray, sigma2: float, penalty: float) -> GammaSet:
    """Expansion moments for ridge regression with identity design covariance.

    The gamma2 trace coefficient on A = ||theta0||^2 I is (2+p), which is
    what the underlying Wishart moment algebra yields and what the
    Monte-Carlo moment oracle confirms; ``scripts/validate_ridge_moments.py``
    checks it against the (3+p) value also found in circulation.

    Only Sigma = I is supported; for general covariance there is no closed
    form here and the moment oracle must be used instead.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.ndim != 1:
        raise ConfigError("theta0 must be a vector")
    p = theta0.shape[0]
    if sigma2 < 0:
        raise ConfigError("noise variance must be >= 0")
    if penalty < 0:
        raise ConfigError("penalty must be >= 0")
    lam = penalty
    B = np.outer(theta0, theta0)
    A = float(theta0 @ theta0) * np.eye(p)
    eye = np.eye(p)

    delta = -lam_kl(lam, 1, 3) * (1 + p) * theta0
    gamma0 = lam_kl(lam, 2, 6) * (1 + p) ** 2 * B
    gamma1 = lam_kl(lam, 2, 4) * (B + A) + lam_kl(lam, 0, 2) * sigma2 * eye
    gamma2 = -lam_kl(lam, 2, 5) * ((4 + p) * B + (2 + p) * A) \
        - lam_kl(lam, 0, 3) * sigma2 * (1 + p) * eye
    gamma3 = lam_kl(lam, 2, 6) * ((5 + 3 * p + p * p) * B + (2 + p) * A) \
        + lam_kl(lam, 0, 4) * sigma2 * (1 + p) * eye
    gamma4 = lam_kl(lam, 2, 6) * ((5 + 2 * p) * B + (3 + 2 * p) * A) \
        + lam_kl(lam, 0, 4) * sigma2 * (1 + p) * eye
    return GammaSet(delta, gamma0, gamma1, gamma2, gamma3, gamma4)


def bias2(g: GammaSet, n: float, m: int = 1) -> np.ndarray:
    """Second-order bias of the averaged estimator: delta / n per machine.

    With m = 1 and n = N this is the centralized bias delta / N; the m
    argument is kept for interface symmetry (the bias does not depend on it
    beyond n = N/m).
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    return g.delta / n


def m2_parallel(g: GammaSet, n: float, m: int) -> np.ndarray:
    """Second-order MSE matrix of the m-machine average with n samples each.

    ((m-1)/m) gamma0 / n^2 + gamma1 / (mn) + (sum of second-order terms) / (mn^2);
    m = 1 reproduces the centralized second-order MSE.
    """
    if n < 1 or m < 1:
        raise ConfigError("need n >= 1 and m >= 1")
    s = g.second_order_sum()
    return ((m - 1) / m) * g.gamma0 / n ** 2 + g.gamma1 / (m * n) + s / (m * n ** 2)


def m2_excess(g: GammaSet, n: float, m: int) -> np.ndarray:
    """Excess second-order MSE of averaging over the centralized fit on N = nm."""
    if n < 1 or m < 1:
        raise ConfigError("need n >= 1 and m >= 1")
    s = g.second_order_sum()
    return ((m - 1) / m) * g.gamma0 / n ** 2 + ((m - 1) / m ** 2) * s / n ** 2
