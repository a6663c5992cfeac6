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

from .errors import ConfigError, InfeasiblePlanError, NumericalError
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
        p = self.regime.p
        if isinstance(self.regime, FixedPRegime) and self.size < p:
            # in fixed_N mode even one machine would hold N < p samples
            raise ConfigError(f"fixed-p plans need n >= p ({self.mode[-1]} = {self.size}, p = {p})")


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
        # moments near the float limit overflow here; the check below reports that
        with np.errstate(over="ignore", invalid="ignore"):
            error = float(np.trace(m2_parallel(reg.gammas, n_eff, m)))
    else:
        kappa = reg.p / n_eff
        if kappa >= 1:
            raise InfeasiblePlanError(
                f"m = {m} puts p/n = {kappa:.3f} outside the (0, 1) regime")
        sol = solve_rc(reg.loss, reg.noise, kappa, reg.quadrature)
        error = sol.r_squared * reg.tr_sigma_inv / (m * reg.p)
    if not math.isfinite(error):
        raise NumericalError(f"the predicted error at m = {m} is {error}")
    return error


def _max_feasible_m(prob: PlannerProblem) -> float:
    """Largest whole m the regime itself allows (domain limit, not the error bound)."""
    if prob.mode == "fixed_n":
        return 1e12
    if isinstance(prob.regime, HighDimRegime):
        # keep kappa comfortably inside the solver's range
        return max(1.0, float(math.floor(0.99 * prob.size / prob.regime.p)))
    return float(prob.size // prob.regime.p)  # n = N / m >= p, as fixed_n plans need


def choose_m(prob: PlannerProblem) -> PlannerResult:
    """Minimal (fixed_n) or maximal (fixed_N) machine count meeting the bound.

    Returns floor(m* + 1/2), the integer nearest the boundary m* where the
    predicted error equals the bound, from the signs at the cell edges k + 1/2
    alone.  This boundary-nearest convention reproduces the worked planning
    examples this module is checked against.
    """
    probed: dict[float, float] = {}

    def error(m: float) -> float:
        # each m is predicted once per call; the secant reads the bracket ends again
        if m not in probed:
            probed[m] = predicted_error(prob, m)
        return probed[m]

    e1 = error(1.0)
    bound = prob.eps if prob.constraint == "absolute" else (1.0 + prob.eps) * e1
    # fixed_n wants the least m under the bound (error falls with m), fixed_N the
    # largest (error grows with m): bracket the crossing below the cap, then test edges.
    minimizing = prob.mode == "fixed_n"
    if minimizing and e1 <= bound:
        return PlannerResult(1, e1, False)
    if not minimizing and e1 > bound:
        raise InfeasiblePlanError(
            f"even a single machine exceeds the bound ({e1:.3e} > {bound:.3e})",
            error_at_one=e1)
    m_cap = _max_feasible_m(prob)
    # To first order the error is linear in u = m at fixed N and in u = 1/m at fixed n
    # (u is its own inverse): step to the integer past the crossing of the secant
    # through the last two probes, or double m if that reaches further.
    u = (lambda m: 1.0 / m) if minimizing else (lambda m: m)
    lo, hi = 1.0, min(2.0, m_cap)
    while hi < m_cap and (error(hi) > bound) == minimizing:
        f_lo, f_hi = error(lo), error(hi)
        u_x = u(hi) + (u(hi) - u(lo)) * (bound - f_hi) / (f_hi - f_lo) if f_hi != f_lo else 0.0
        m_x = min(u(u_x), m_cap) if u_x > 0 else 0.0
        lo, hi = hi, min(max(hi * 2.0, math.floor(m_x) + 1.0), m_cap)
    if (error(hi) > bound) == minimizing:  # not crossed below the cap
        if minimizing:
            raise InfeasiblePlanError("error bound unreachable at any m", error_at_one=e1)
        m = int(math.floor(hi))
        return PlannerResult(m, error(m), False)
    # The crossing is in (lo, hi]: probe the edge k + 1/2 inside nearest the secant
    # estimate until two probes in a row fall on one side, then alternate middle and
    # secant edges.  Past is strict, so a crossing on an edge rounds half up.
    last, mid, fell_back = None, False, False
    while (k_lo := math.floor(lo + 0.5)) <= (k_hi := math.ceil(hi - 0.5) - 1):
        f_lo, f_hi = error(lo) - bound, error(hi) - bound
        x = (lo + hi) / 2 if mid else lo + (hi - lo) * f_lo / (f_lo - f_hi)
        edge = min(max(math.floor(x), k_lo), k_hi) + 0.5
        past = error(edge) < bound if minimizing else error(edge) > bound
        fell_back = fell_back or past == last
        mid, last = fell_back and not mid, past
        lo, hi = (lo, edge) if past else (edge, hi)
    m = math.ceil(hi - 0.5)
    return PlannerResult(m, error(m), True)
