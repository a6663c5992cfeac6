"""Machine-count planning: worked reference numbers and boundary properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from splitavg import (
    ConfigError,
    FixedPRegime,
    HighDimRegime,
    InfeasiblePlanError,
    LossSpec,
    NoiseDist,
    NumericalError,
    PlannerProblem,
    SolverFailureError,
    choose_m,
    ols_gammas,
    predicted_error,
    ridge_gammas,
)
from splitavg.planner import _brentq


# indefinite, non-symmetric, NaN and wrong-shape covariances for p = 2
BAD_SIGMAS = [np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0, 0.1], [0.0, 1.0]]),
              np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(3)]


def ols_problem(mode, size, eps, constraint="absolute", p=100, sigma2=10.0):
    return PlannerProblem(mode=mode, size=size, constraint=constraint, eps=eps,
                          regime=FixedPRegime(ols_gammas(None, sigma2, p)))


def test_predicted_error_reference_value():
    prob = ols_problem("fixed_N", 10 ** 6, 2e-3)
    # sigma^2 p / N + m (1+p) sigma^2 p / N^2 at m = 9901
    assert predicted_error(prob, 9901) == pytest.approx(2e-3, abs=1e-8)
    assert predicted_error(prob, 1) == pytest.approx(
        1e-3 + 101 * 10 * 100 / 1e12, rel=1e-12)


def test_predicted_error_high_dim_squared_closed_form():
    regime = HighDimRegime(loss=LossSpec.squared(), noise=NoiseDist.gaussian(2.0), p=50)
    prob = PlannerProblem(mode="fixed_n", size=250, constraint="absolute",
                          eps=1.0, regime=regime)
    kappa = 50 / 250
    for m in (1, 4):
        expect = kappa * 2.0 / (1 - kappa) / m  # r^2(kappa) Tr(I)/ (m p)
        assert predicted_error(prob, m) == pytest.approx(expect, rel=1e-8)


def test_choose_m_fixed_N_reference():
    result = choose_m(ols_problem("fixed_N", 10 ** 6, 2e-3))
    assert result.m == 9901
    assert result.binding


def test_choose_m_fixed_n_reference():
    result = choose_m(ols_problem("fixed_n", 10 ** 4, 2e-3))
    assert result.m == 51
    assert result.binding
    assert result.achieved_error <= 2e-3


def test_choose_m_relative_fixed_N_reference():
    result = choose_m(ols_problem("fixed_N", 10 ** 6, 0.1, constraint="relative"))
    assert result.m in (990, 991)
    assert result.m == 991  # boundary 991.199 -> nearest


def test_relative_fixed_n_is_trivially_one():
    result = choose_m(ols_problem("fixed_n", 10 ** 4, 0.1, constraint="relative"))
    assert result.m == 1
    assert not result.binding


def test_infeasible_fixed_N_reports_single_machine_error():
    with pytest.raises(InfeasiblePlanError) as info:
        choose_m(ols_problem("fixed_N", 10 ** 6, 1e-5))
    assert info.value.error_at_one == pytest.approx(predicted_error(
        ols_problem("fixed_N", 10 ** 6, 1e-5), 1))


def test_fixed_n_unreachable_bound_is_infeasible():
    # ridge keeps a bias floor (gamma0 term) no machine count can beat
    gam = ridge_gammas(np.array([10.0, 0.0]), 1.0, 1.0)
    floor = float(np.trace(gam.gamma0)) / 100 ** 2
    prob = PlannerProblem(mode="fixed_n", size=100, constraint="absolute",
                          eps=floor * 0.9, regime=FixedPRegime(gam))
    with pytest.raises(InfeasiblePlanError):
        choose_m(prob)


def test_monotonicity_of_predicted_error():
    fixed_n = ols_problem("fixed_n", 1000, 1.0)
    errs = [predicted_error(fixed_n, m) for m in (1, 2, 5, 10, 100)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    fixed_N = ols_problem("fixed_N", 10 ** 5, 1.0)
    errs = [predicted_error(fixed_N, m) for m in (1, 2, 5, 10, 100)]
    assert all(b > a for a, b in zip(errs, errs[1:]))


def test_high_dim_kappa_domain_errors():
    regime = HighDimRegime(loss=LossSpec.squared(), noise=NoiseDist.gaussian(1.0), p=50)
    prob = PlannerProblem(mode="fixed_N", size=1000, constraint="absolute",
                          eps=10.0, regime=regime)
    with pytest.raises(InfeasiblePlanError):
        predicted_error(prob, 30)  # kappa = 50*30/1000 = 1.5
    # generous bound: capped by the kappa < 1 domain, not by the error bound
    result = choose_m(prob)
    assert result.m <= 19
    assert not result.binding
    assert predicted_error(prob, result.m) <= 10.0


def test_fixed_N_more_machines_than_samples_is_infeasible():
    prob = ols_problem("fixed_N", 100, 1.0, p=10)
    with pytest.raises(InfeasiblePlanError, match="less than one sample per machine"):
        predicted_error(prob, 101)


def test_high_dim_fixed_N_binding_bound():
    regime = HighDimRegime(loss=LossSpec.squared(), noise=NoiseDist.gaussian(1.0), p=10)
    prob = PlannerProblem(mode="fixed_N", size=10 ** 5, constraint="absolute",
                          eps=2e-4, regime=regime)
    result = choose_m(prob)
    assert result.binding
    # boundary: kappa/(1-kappa)/m * 10/10 = eps with kappa = 10 m / 1e5
    f = lambda m: predicted_error(prob, m) - 2e-4
    m_star = brentq(f, 1, 9000)
    assert abs(result.m - m_star) <= 0.5 + 1e-9


@given(p=st.integers(2, 60), sigma2=st.floats(0.5, 20), logn=st.floats(4, 7),
       eps_factor=st.floats(1.05, 3.0))
@settings(max_examples=40, deadline=None)
def test_boundary_nearest_property_fixed_N(p, sigma2, logn, eps_factor):
    N = int(10 ** logn)
    base = predicted_error(ols_problem("fixed_N", N, 1.0, p=p, sigma2=sigma2), 1)
    prob = ols_problem("fixed_N", N, base * eps_factor, p=p, sigma2=sigma2)
    result = choose_m(prob)
    if result.binding and result.m < N:
        # the real boundary must lie within half a machine of the answer
        lo = predicted_error(prob, max(1.0, result.m - 0.5))
        hi = predicted_error(prob, result.m + 0.5)
        assert lo <= prob.eps * (1 + 1e-9)
        assert hi >= prob.eps * (1 - 1e-9)


def test_problem_validation():
    gam = ols_gammas(None, 1.0, 3)
    with pytest.raises(ConfigError):
        PlannerProblem(mode="fixed", size=10, constraint="absolute", eps=1.0,
                       regime=FixedPRegime(gam))
    with pytest.raises(ConfigError):
        PlannerProblem(mode="fixed_n", size=10, constraint="absolute", eps=-1.0,
                       regime=FixedPRegime(gam))
    with pytest.raises(ConfigError, match="eps"):
        PlannerProblem(mode="fixed_n", size=10, constraint="absolute", eps=float("nan"),
                       regime=FixedPRegime(gam))
    prob = ols_problem("fixed_n", 100, 1.0)
    with pytest.raises(ConfigError):
        predicted_error(prob, 0)
    for sigma in BAD_SIGMAS:
        with pytest.raises(ConfigError, match="covariance"):
            ols_gammas(sigma, 1.0, 2)
        with pytest.raises(ConfigError, match="covariance"):
            HighDimRegime(LossSpec.squared(), NoiseDist.gaussian(1.0), 2, sigma)
    # an indefinite Sigma once planned m = 495 with a negative achieved error
    with pytest.raises(ConfigError, match="positive definite"):
        choose_m(PlannerProblem("fixed_N", 1000, "absolute", 1e-3, HighDimRegime(
            LossSpec.squared(), NoiseDist.gaussian(1.0), 2, BAD_SIGMAS[0])))


# predicted_error's arguments for the C4 problems, frozen before the two
# search modes were merged into one doubling-then-brentq loop
C4_PROBES = {
    ("fixed_n", 10 ** 4, "absolute", 2e-3): [
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 55.44955944955945, 50.02091588654136,
        50.55239298440917, 50.50545425583294, 50.50499999591432, 50.50500000000004,
        50.50499999949979, 51.0],
    ("fixed_N", 10 ** 6, "absolute", 2e-3): [
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
        4096.0, 8192.0, 16384.0, 9900.990099009896, 9900.990099010445, 9901.0],
    ("fixed_N", 10 ** 6, "relative", 0.1): [
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
        991.1990099009861, 991.1990099004811, 991.0],
}


@pytest.mark.parametrize("mode,size,constraint,eps", list(C4_PROBES))
def test_choose_m_predicts_each_machine_count_once(monkeypatch, mode, size, constraint, eps):
    from splitavg import planner

    probed = []
    real = planner.predicted_error

    def counting(prob, m):
        probed.append(m)
        return real(prob, m)

    monkeypatch.setattr(planner, "predicted_error", counting)
    prob = ols_problem(mode, size, eps, constraint=constraint)
    result = planner.choose_m(prob)
    assert result.m in (51, 9901, 990, 991)
    assert len(set(probed)) == len(probed)
    assert probed.count(1.0) == 1
    assert probed == pytest.approx(C4_PROBES[mode, size, constraint, eps], rel=1e-12, abs=0)


def test_fixed_n_root_between_last_doubling_and_cap():
    # the root 8e11 lies in (2^39, 1e12]: the search must test the cap itself
    prob = PlannerProblem("fixed_n", 1, "absolute", 3.75e-12,
                          FixedPRegime(ols_gammas(None, 1.0, 1)))
    result = choose_m(prob)
    assert result.m == 8 * 10 ** 11
    assert result.binding
    assert result.achieved_error == pytest.approx(3.75e-12, rel=1e-9)


def test_high_dim_plan_inverts_sigma_only_at_construction(monkeypatch):
    regime = HighDimRegime(LossSpec.squared(), NoiseDist.gaussian(1.0), 100,
                           sigma=np.linspace(0.5, 2.0, 100))
    inverses = []
    real = np.linalg.inv

    def counting(a):
        inverses.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    result = choose_m(PlannerProblem("fixed_N", 10 ** 5, "relative", 0.1, regime))
    assert result.m > 1
    assert inverses == []


def _shapes(rng):
    """Five function shapes with a root r: smooth, steep, flat-then-steep, far from
    unit scale (products of two values under- or overflow) and a staircase (equal
    values make the extrapolation divide by zero)."""
    r, c = rng.uniform(-5, 5), rng.uniform(-2, 2)
    k, s = 10 ** rng.uniform(-2, 3), 10.0 ** int(rng.integers(-250, 250))
    return [lambda x: (x - r) ** 3 + c * (x - r),
            lambda x: math.exp(min(x, 700.0)) - math.exp(r),
            lambda x: math.atan(k * (x - r)),
            lambda x: s * (x - r) * (1 + (x - r) ** 2),
            lambda x: math.floor(4 * (x - r)) + 0.5], r


def _solve(solver, f, a, b, xtol, rtol):
    calls = []

    def recorded(x):
        calls.append(x)
        return f(x)

    try:
        return solver(recorded, a, b, xtol=xtol, rtol=rtol).hex(), calls
    except ValueError:  # no sign change: scipy's ValueError, the port's ConfigError
        return "no sign change", calls


# choose_m's tolerances, scipy's defaults (its least rtol) and a coarse xtol
@pytest.mark.parametrize("xtol,rtol", [(1e-9, 1e-14), (2e-12, 4 * np.finfo(float).eps),
                                       (1e-3, 4 * np.finfo(float).eps)])
def test_brentq_port_probes_and_returns_what_scipy_does(xtol, rtol):
    rng = np.random.default_rng(23)
    cases = 0
    for _ in range(60):
        shapes, r = _shapes(rng)
        for f in shapes:
            a, b = r - 10 ** rng.uniform(-3, 1.3), r + 10 ** rng.uniform(-3, 1.3)
            if rng.random() < 0.5:
                a, b = b, a
            want, want_calls = _solve(brentq, f, a, b, xtol, rtol)
            got, got_calls = _solve(_brentq, f, a, b, xtol, rtol)
            assert got == want
            assert [x.hex() for x in got_calls] == [x.hex() for x in want_calls]
            cases += want != "no sign change"
    assert cases > 250


def test_brentq_port_failures_raise_package_errors():
    with pytest.raises(ConfigError, match="same sign"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9, 1e-14)
    # signs, not products: 1e-200 * 1e-200 underflows to 0 but the signs agree
    with pytest.raises(ConfigError, match="same sign"):
        _brentq(lambda x: 1e-200, 0.0, 1.0, 1e-9, 1e-14)
    with pytest.raises(NumericalError, match="NaN"):
        _brentq(lambda x: x if x < 0.5 else math.nan, -1.0, 1.0, 1e-9, 1e-14)
    calls = []
    with pytest.raises(SolverFailureError, match="did not converge in 3 iterations") as info:
        _brentq(lambda x: calls.append(x) or math.atan(50.0 * (x - 0.3)), -3.0, 7.0,
                1e-9, 1e-14, maxiter=3)
    assert isinstance(info.value, RuntimeError)
    assert len(calls) == 5  # two bracket ends and one probe per iteration


@pytest.mark.parametrize("model", ["ols", "ridge"])
def test_non_finite_prediction_is_a_numerical_error(model):
    # sigma^4 overflows: the second-order sum becomes inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        gammas = (ols_gammas(None, 1e308, 100) if model == "ols"
                  else ridge_gammas(np.ones(100), 1e308, 0.5))
    prob = PlannerProblem("fixed_N", 10 ** 6, "relative", 0.1, FixedPRegime(gammas))
    with np.errstate(all="raise"):  # and numpy warns of nothing on the way
        with pytest.raises(NumericalError, match="predicted error at m = 1.0 is nan"):
            choose_m(prob)
