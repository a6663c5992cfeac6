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
    QuadratureSpec,
    choose_m,
    ols_gammas,
    predicted_error,
    ridge_gammas,
)


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


def test_high_dim_fixed_N_crossing_past_the_last_whole_m_under_the_cap():
    # the cap is floor(0.99 N / p) = 19; a crossing at 19.7 once planned m = 20, kappa = 1,
    # and raised InfeasiblePlanError although m = 19 meets the bound
    regime = HighDimRegime(loss=LossSpec.squared(), noise=NoiseDist.gaussian(1.0), p=50)
    eps = predicted_error(PlannerProblem("fixed_N", 1000, "absolute", 1.0, regime), 19.7)
    result = choose_m(PlannerProblem("fixed_N", 1000, "absolute", eps, regime))
    assert (result.m, result.binding) == (19, False)


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


def _past(prob, m):
    """choose_m's own test: m lies strictly past the crossing of an absolute bound."""
    error = predicted_error(prob, m)
    return error < prob.eps if prob.mode == "fixed_n" else error > prob.eps


@pytest.mark.parametrize("kind,mode", [("ols", "fixed_n"), ("ridge", "fixed_n"),
                                       ("ridge", "fixed_N"), ("squared", "fixed_n"),
                                       ("squared", "fixed_N")])
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 40), sigma2=st.floats(0.5, 20),
       log_ratio=st.floats(0.31, 2.5), eps_factor=st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_boundary_nearest_edge_signs(kind, mode, seed, p, sigma2, log_ratio, eps_factor):
    # n >= 2p; fixed_N keeps N / p above 100, so an edge past the kappa cap has kappa < 1
    size = int(p * 10 ** (log_ratio + 2 * (mode == "fixed_N")))
    rng = np.random.default_rng(seed)
    floor = 0.0  # the error no machine count beats
    if kind == "squared":
        regime = HighDimRegime(LossSpec.squared(), NoiseDist.gaussian(sigma2), p)
    elif kind == "ols":
        regime = FixedPRegime(ols_gammas(None, sigma2, p))
    else:
        gam = ridge_gammas(rng.normal(size=p), sigma2, 10 ** rng.uniform(-2, 1))
        regime = FixedPRegime(gam)
        floor = float(np.trace(gam.gamma0)) / size ** 2
    base = predicted_error(PlannerProblem(mode, size, "absolute", 1.0, regime), 1)
    eps = floor + (base - floor) * eps_factor if mode == "fixed_n" else base / eps_factor
    prob = PlannerProblem(mode, size, "absolute", eps, regime)
    result = choose_m(prob)
    if mode == "fixed_n" or result.m < size // p:  # a fixed-p plan at the N / p cap is unbound
        # the answer's cell edges fall on either side of the crossing, sign for sign
        assert result.binding
        assert not _past(prob, max(1.0, result.m - 0.5))
        assert _past(prob, result.m + 0.5)


@pytest.mark.parametrize("mode,size,k", [("fixed_n", 10 ** 4, 1), ("fixed_n", 10 ** 4, 50),
                                         ("fixed_N", 10 ** 6, 1), ("fixed_N", 10 ** 6, 9900)])
def test_crossing_on_an_edge_rounds_half_up(mode, size, k):
    eps = predicted_error(ols_problem(mode, size, 1.0), k + 0.5)
    result = choose_m(ols_problem(mode, size, eps))
    assert result.m == k + 1
    assert result.binding


@pytest.mark.parametrize("mode", ["fixed_N", "fixed_n"])
@pytest.mark.parametrize("m_star", [5000.2, 6500.7, 8100.4])
def test_edge_search_solves_a_step_function(monkeypatch, mode, m_star):
    # A staircase with a jump of 999 at m_star: its secant estimates hug the low
    # end of the bracket, so only middle edges make progress there.
    from splitavg import planner

    probed = []

    def step(prob, m):
        probed.append(m)
        rise = 1.0 + math.floor(m / 64) * 1e-3 + (999.0 if m > m_star else 0.0)
        return rise if mode == "fixed_N" else 1001.0 - rise

    monkeypatch.setattr(planner, "predicted_error", step)
    eps = 1.5 if mode == "fixed_N" else 999.5
    result = planner.choose_m(ols_problem(mode, 10 ** 6, eps, p=1))
    assert result.m == math.floor(m_star + 0.5)
    assert result.binding
    # the bracket: the last probe before the crossing and the first one past it
    first_past = next(i for i, m in enumerate(probed) if m > m_star)
    lo, hi = probed[first_past - 1], probed[first_past]
    after = probed[first_past + 1:]
    assert lo < m_star < hi
    assert len(set(probed)) == len(probed)
    edges = hi - lo  # the bracket's ends are whole machine counts
    assert len(after) <= 2 * math.ceil(math.log2(edges)) + 2
    assert any(lo + edges / 3 < m < hi - edges / 3 for m in after)  # a middle edge


def workload_plan(loss):
    """One of the highdim benchmark workload's three plans."""
    quadrature = QuadratureSpec(nodes=16) if loss.kind == "pseudo_huber" else None
    regime = HighDimRegime(loss, NoiseDist.gaussian(1.0), 100, quadrature=quadrature)
    return PlannerProblem("fixed_N", 10 ** 5, "relative", 0.1, regime)


WORKLOAD_LOSSES = [LossSpec.squared(), LossSpec.absolute(), LossSpec.pseudo_huber(3.0)]


@pytest.mark.parametrize("loss", WORKLOAD_LOSSES, ids=lambda loss: loss.kind)
def test_high_dim_workload_plans_probe_at_most_8_times(monkeypatch, loss):
    # the root finder took 14 predictions each, the edge search after doubling m from 1 took 13
    from splitavg import planner

    probed = []
    real = planner.predicted_error
    monkeypatch.setattr(planner, "predicted_error",
                        lambda prob, m: probed.append(m) or real(prob, m))
    result = planner.choose_m(workload_plan(loss))
    assert result.binding
    assert len(probed) <= 8


# (m, float.hex(achieved_error), binding) of the C4 plans and the highdim workload's
# plans, the same before and after the secant step: the probe tests pin the path, these
# the answer
PLAN_OUTCOMES = [
    (ols_problem("fixed_n", 10 ** 4, 2e-3), (51, "0x1.03998365159f3p-9", True)),
    (ols_problem("fixed_N", 10 ** 6, 2e-3), (9901, "0x1.0624e5c62093ep-9", True)),
    (ols_problem("fixed_N", 10 ** 6, 0.1, constraint="relative"),
     (991, "0x1.2061db787268dp-10", True)),
    *zip(map(workload_plan, WORKLOAD_LOSSES), [(92, "0x1.20b470c67c0d9p-10", True),
                                               (101, "0x1.c58d19c1dd65bp-10", True),
                                               (93, "0x1.22ee3eaec3f43p-10", True)]),
]


@pytest.mark.parametrize("prob,outcome", PLAN_OUTCOMES, ids=[
    "c4-fixed_n", "c4-fixed_N", "c4-relative", "squared", "absolute", "pseudo_huber"])
def test_reference_plans_keep_their_outcome(prob, outcome):
    result = choose_m(prob)
    assert (result.m, float.hex(result.achieved_error), result.binding) == outcome


@pytest.mark.parametrize("kind", ["ols", "ridge", "squared"])
@given(mode=st.sampled_from(["fixed_n", "fixed_N"]),
       constraint=st.sampled_from(["absolute", "relative"]), seed=st.integers(0, 2 ** 32 - 1),
       p=st.integers(1, 40), sigma2=st.floats(0.5, 20), log_ratio=st.floats(0.0, 4.0),
       log_eps=st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_probes_stay_in_the_domain_once_each(kind, mode, constraint, seed, p, sigma2,
                                             log_ratio, log_eps):
    from splitavg import planner

    rng = np.random.default_rng(seed)
    if kind == "squared":
        regime = HighDimRegime(LossSpec.squared(), NoiseDist.gaussian(sigma2), p)
    elif kind == "ols":
        regime = FixedPRegime(ols_gammas(None, sigma2, p))
    else:
        regime = FixedPRegime(ridge_gammas(rng.normal(size=p), sigma2, 10 ** rng.uniform(-2, 1)))
    size = int(p * 10 ** log_ratio) + (kind == "squared")  # n > p keeps kappa < 1 at m = 1
    eps = 10 ** log_eps
    if constraint == "absolute":
        eps *= predicted_error(PlannerProblem(mode, size, "absolute", 1.0, regime), 1)
    prob = PlannerProblem(mode, size, constraint, eps, regime)
    probed = []
    with pytest.MonkeyPatch.context() as patch:
        real = planner.predicted_error
        patch.setattr(planner, "predicted_error",
                      lambda prob, m: probed.append(m) or real(prob, m))
        try:
            planner.choose_m(prob)
        except InfeasiblePlanError:
            pass
    assert all(1 <= m <= planner._max_feasible_m(prob) for m in probed)
    assert len(set(probed)) == len(probed)
    if kind == "ols":
        assert len(probed) <= 6  # the secant is exact for OLS: one step lands past the crossing


@pytest.mark.parametrize("mode", ["fixed_n", "fixed_N"])
@pytest.mark.parametrize("model", ["ols", "ridge"])
def test_fixed_p_plans_need_n_at_least_p(model, mode):
    gam = ols_gammas(None, 1.0, 10) if model == "ols" else ridge_gammas(np.ones(10), 1.0, 1.0)
    with pytest.raises(ConfigError, match=rf"n >= p \({mode[-1]} = 9, p = 10\)"):
        PlannerProblem(mode, 9, "absolute", 0.1, FixedPRegime(gam))
    at_p = PlannerProblem(mode, 10, "absolute", 0.1, FixedPRegime(gam))  # n = p plans
    assert math.isfinite(predicted_error(at_p, 1))


@pytest.mark.parametrize("size,m", [(50, 5), (59, 5), (10 ** 6, 10 ** 5)])
def test_fixed_p_fixed_N_plans_keep_p_samples_per_machine(size, m):
    # a bound that every m meets: the plan stops at the largest m with N / m >= p, where
    # N = 50, p = 10 once planned m = 50 (one sample per machine)
    result = choose_m(ols_problem("fixed_N", size, 100.0, p=10))
    assert result.m == m
    assert size / result.m >= 10
    assert not result.binding


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


# predicted_error's arguments for the C4 problems: m = 1 and 2, the step past the
# secant's crossing, then the cell edges k + 1/2 the search tested, then the answer
# if it was not probed yet (frozen when the secant step replaced doubling m from 1;
# the doubling took 13 / 18 / 14 probes)
C4_PROBES = {
    ("fixed_n", 10 ** 4, "absolute", 2e-3): [1.0, 2.0, 51.0, 50.5],
    ("fixed_N", 10 ** 6, "absolute", 2e-3): [1.0, 2.0, 9901.0, 9900.5],
    ("fixed_N", 10 ** 6, "relative", 0.1): [1.0, 2.0, 992.0, 991.5, 990.5, 991.0],
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
    # the root 8e11 lies in (2^39, 1e12]; the secant step from m = 1 and 2 lands ~3.5e7
    # past it (rounding hides the intercept of an error ~1/m), and the edges find it
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
