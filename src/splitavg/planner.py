"""Machine-count planning under error constraints.

Two scaling modes: fixed per-machine memory (n fixed; more machines buy more
data, find the minimal m meeting an error bound) and fixed sample budget
(N fixed; splitting trades accuracy for speed, find the maximal m).  Error is
predicted by the second-order fixed-dimension expansion or by the
high-dimensional first-order law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, InfeasiblePlanError
from .fixed_p import GammaSet, m2_parallel
from .highdim import QuadratureSpec, solve_rc
from .losses import LossSpec
from .model import NoiseDist, sigma_as_matrix


@dataclass(frozen=True)
class FixedPRegime:
    gammas: GammaSet

    @property
    def p(self) -> int:
        return self.gammas.p


@dataclass(frozen=True)
class HighDimRegime:
    loss: LossSpec
    noise: NoiseDist
    p: int
    sigma: object = None  # covariance spec; None = identity
    quadrature: QuadratureSpec | None = None
    tr_sigma_inv: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sig = sigma_as_matrix(self.sigma, self.p)
        object.__setattr__(self, "tr_sigma_inv", float(np.trace(np.linalg.inv(sig))))


@dataclass(frozen=True)
class PlannerProblem:
    """mode: 'fixed_n' (size = n per machine) or 'fixed_N' (size = total N);
    constraint: 'absolute' (total-MSE bound eps) or 'relative' (allowed
    fractional excess eps over the m = 1 error)."""

    mode: str
    size: int
    constraint: str
    eps: float
    regime: object

    def __post_init__(self):
        if self.mode not in ("fixed_n", "fixed_N"):
            raise ConfigError("mode must be fixed_n or fixed_N")
        if self.constraint not in ("absolute", "relative"):
            raise ConfigError("constraint must be absolute or relative")
        if not self.eps > 0:
            raise ConfigError("eps must be > 0")
        if self.size < 1:
            raise ConfigError("size must be >= 1")
        if not isinstance(self.regime, (FixedPRegime, HighDimRegime)):
            raise ConfigError("regime must be FixedPRegime or HighDimRegime")


@dataclass(frozen=True)
class PlannerResult:
    m: int
    achieved_error: float
    binding: bool


def predicted_error(prob: PlannerProblem, m: float) -> float:
    """Total MSE predicted at machine count m (m may be fractional during search)."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    n_eff = prob.size if prob.mode == "fixed_n" else prob.size / m
    if n_eff < 1:
        raise InfeasiblePlanError(f"m = {m} leaves less than one sample per machine")
    reg = prob.regime
    if isinstance(reg, FixedPRegime):
        return float(np.trace(m2_parallel(reg.gammas, n_eff, m)))
    kappa = reg.p / n_eff
    if kappa >= 1:
        raise InfeasiblePlanError(
            f"m = {m} puts p/n = {kappa:.3f} outside the (0, 1) regime")
    sol = solve_rc(reg.loss, reg.noise, kappa, reg.quadrature)
    return sol.r_squared * reg.tr_sigma_inv / (m * reg.p)


def _max_feasible_m(prob: PlannerProblem) -> float:
    """Largest m the regime itself allows (domain limit, not the error bound)."""
    if prob.mode == "fixed_n":
        return 1e12
    if isinstance(prob.regime, HighDimRegime):
        # keep kappa comfortably inside the solver's range
        return max(1.0, 0.99 * prob.size / prob.regime.p)
    return float(prob.size)


def choose_m(prob: PlannerProblem) -> PlannerResult:
    """Minimal (fixed_n) or maximal (fixed_N) machine count meeting the bound.

    The real-valued feasibility boundary (where the predicted error equals
    the bound) is located first; the returned integer is the nearest one.
    This boundary-nearest convention reproduces the worked planning examples
    this module is checked against; the boundary itself is available to
    callers via predicted_error.
    """
    probed: dict[float, float] = {}

    def error(m: float) -> float:
        # Each machine count is predicted at most once per call; brentq
        # re-evaluates its bracket ends and the answer is often a probe.
        if m not in probed:
            probed[m] = predicted_error(prob, m)
        return probed[m]

    e1 = error(1.0)
    bound = prob.eps if prob.constraint == "absolute" else (1.0 + prob.eps) * e1
    # fixed_n wants the least m under the bound (error falls with m), fixed_N the
    # largest (error grows with m): double m up to the cap, then root-find.
    minimizing = prob.mode == "fixed_n"
    if minimizing and e1 <= bound:
        return PlannerResult(1, e1, False)
    if not minimizing and e1 > bound:
        raise InfeasiblePlanError(
            f"even a single machine exceeds the bound ({e1:.3e} > {bound:.3e})",
            error_at_one=e1)
    m_cap = _max_feasible_m(prob)
    lo, hi = 1.0, min(2.0, m_cap)
    while hi < m_cap and (error(hi) > bound) == minimizing:
        lo, hi = hi, min(hi * 2.0, m_cap)
    if (error(hi) > bound) == minimizing:  # not crossed below the cap
        if minimizing:
            raise InfeasiblePlanError("error bound unreachable at any m", error_at_one=e1)
        m = int(math.floor(hi))
        return PlannerResult(m, error(m), False)
    m_star = brentq(lambda m: error(m) - bound, lo, hi, xtol=1e-9, rtol=1e-14)
    m = max(1, math.floor(m_star + 0.5))
    return PlannerResult(m, error(m), True)
