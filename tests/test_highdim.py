"""Residual-equation solutions against closed forms and adaptive-quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from splitavg import (
    ConfigError,
    HighDimRegime,
    LossSpec,
    NoiseDist,
    PlannerProblem,
    QuadratureSpec,
    SolverFailureError,
    absolute_series,
    choose_m,
    expect_xi,
    loss_derivative,
    mse_ratio_exact,
    mse_ratio_first_order,
    perturb_coeffs,
    solve_rc,
)
from splitavg.losses import derivative_array, prox_array
from splitavg.highdim import (
    _absolute_residual_fn,
    _compound_grid,
    _eps_axis,
    _expect_xi_adaptive,
    _ndtr,
    _newton_rc,
    _smooth_residual_fn,
)

GAUSS1 = NoiseDist.gaussian(1.0)


def quad_moment_oracle(loss, noise):
    """Independent adaptive-quadrature evaluation of the five loss/noise moments."""
    def f(t, k):
        return loss_derivative(loss, t, k)

    if noise.kind == "gaussian":
        sd = np.sqrt(noise.param)
        pdf = lambda t: np.exp(-0.5 * (t / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
        lim, pts = 12 * sd, None
    else:
        b = noise.param
        pdf = lambda t: np.exp(-abs(t) / b) / (2 * b)
        lim, pts = 45 * b, [0.0]

    def E(g):
        return quad(lambda t: g(t) * pdf(t), -lim, lim, points=pts,
                    limit=500, epsabs=1e-13, epsrel=1e-12)[0]

    a2 = E(lambda t: f(t, 2))
    a4 = E(lambda t: 0.5 * f(t, 4))
    t1 = E(lambda t: f(t, 2) ** 2 + f(t, 1) * f(t, 3))
    b1 = E(lambda t: f(t, 1) ** 2)
    b2 = E(lambda t: f(t, 1) ** 2 * f(t, 2))
    r1 = b1 / a2 ** 2
    r2 = 3 * b1 * t1 / a2 ** 4 - 2 * b1 ** 2 * a4 / a2 ** 5 - 2 * b2 / a2 ** 3
    return a2, a4, t1, b1, b2, r1, r2


def test_expect_xi_examples():
    assert expect_xi(lambda t: t * t, GAUSS1, 0.5) == pytest.approx(1.25, rel=1e-10)
    assert expect_xi(lambda t: t * t, GAUSS1, 0.0) == pytest.approx(1.0, rel=1e-10)
    lap = NoiseDist.laplace(1.3)
    assert expect_xi(lambda t: t * t, lap, 0.4) == pytest.approx(
        lap.variance + 0.16, rel=1e-9)
    # constant integrand (second derivative of the squared loss) is exact
    assert expect_xi(lambda t: np.ones_like(t), lap, 0.7) == pytest.approx(1.0, rel=1e-12)


def test_expect_xi_adaptive_scheme_agrees():
    g = lambda t: np.tanh(t) ** 2
    for noise in (GAUSS1, NoiseDist.laplace(0.8)):
        a = expect_xi(g, noise, 0.3)
        b = _expect_xi_adaptive(g, noise, 0.3, QuadratureSpec())
        assert a == pytest.approx(b, rel=1e-7)


_LAP = NoiseDist.laplace(2 ** -0.5)


@pytest.mark.parametrize("nodes", [16, 64])
@pytest.mark.parametrize("noise", [NoiseDist.gaussian(10.0), _LAP], ids=["gauss10", "laplace"])
def test_eps_axis_integrates_density_and_variance(noise, nodes):
    t, w = _eps_axis(noise, QuadratureSpec(nodes=nodes))
    assert w.sum() == pytest.approx(1.0, abs=1e-10)
    assert w @ (t * t) == pytest.approx(noise.variance, abs=1e-10)


def test_expect_xi_validation():
    with pytest.raises(ConfigError):
        expect_xi(lambda t: t, GAUSS1, -0.1)
    with pytest.raises(ConfigError):
        QuadratureSpec(nodes=8)


def test_solve_rc_squared_exact_law():
    for s2 in (1.0, 10.0):
        noise = NoiseDist.gaussian(s2)
        for kappa in (0.05, 0.1, 0.2, 0.5):
            sol = solve_rc(LossSpec.squared(), noise, kappa)
            assert sol.c == pytest.approx(kappa / (1 - kappa), rel=1e-6)
            assert sol.r_squared == pytest.approx(kappa * s2 / (1 - kappa), rel=1e-6)
            assert max(abs(r) for r in sol.residuals) <= 1e-10


@pytest.mark.parametrize("nodes", [16, 64])
@pytest.mark.parametrize("noise", [GAUSS1, NoiseDist.gaussian(10.0), _LAP],
                         ids=["gauss1", "gauss10", "laplace-var1"])
@pytest.mark.parametrize("kappa", [0.05, 0.2, 0.5, 0.9])
def test_newton_converges_to_the_squared_law_on_the_quadrature(kappa, noise, nodes):
    # solve_rc returns the squared law without iterating, so Newton is checked
    # here on the one loss with a closed-form answer, from a start 10% off it
    c, rho = kappa / (1 - kappa), kappa * noise.variance / (1 - kappa)
    fn = _smooth_residual_fn(LossSpec.squared(), noise, QuadratureSpec(nodes))
    sol = _newton_rc(fn, (1.1 * c, 1.1 * rho), kappa, tol=1e-12, max_iter=50)
    assert sol.c == pytest.approx(c, rel=1e-9)
    assert sol.r_squared == pytest.approx(rho, rel=1e-9)


def test_squared_solves_read_no_quadrature(monkeypatch):
    import splitavg.highdim as hd

    def no_grid(*args):
        raise AssertionError("a squared solve read the quadrature")

    monkeypatch.setattr(hd, "_compound_grid", no_grid)
    monkeypatch.setattr(hd, "_eps_axis", no_grid)
    assert solve_rc(LossSpec.squared(), GAUSS1, 0.2).c == 0.25
    assert mse_ratio_exact(LossSpec.squared(), _LAP, 0.2, 10) == pytest.approx(0.98 / 0.8)
    plan = choose_m(PlannerProblem(mode="fixed_N", size=10 ** 5, constraint="relative",
                                   eps=0.1, regime=HighDimRegime(LossSpec.squared(),
                                                                 GAUSS1, 100)))
    assert plan.m == 92  # the squared plan of the bench's highdim workload


def test_solve_rc_vanishes_at_tiny_kappa():
    for loss in (LossSpec.squared(), LossSpec.absolute()):
        sol = solve_rc(loss, GAUSS1, 1e-4)
        assert 0 < sol.c <= 2e-4
        assert 0 < sol.r_squared <= 2e-4


def test_solve_rc_continuity_along_kappa():
    grid = np.linspace(0.05, 0.3, 11)
    rs = [solve_rc(LossSpec.squared(), GAUSS1, k).r for k in grid]
    r1 = 1.0  # squared loss, sigma^2 = 1
    for (k0, r0), (k1, r_next) in zip(zip(grid, rs), zip(grid[1:], rs[1:])):
        assert abs(r_next - r0) <= 5 * (k1 - k0) * r1


def test_solve_rc_validation():
    with pytest.raises(ConfigError):
        solve_rc(LossSpec.squared(), GAUSS1, 0.0)
    with pytest.raises(ConfigError):
        solve_rc(LossSpec.squared(), GAUSS1, 1.0)
    with pytest.raises(ConfigError):
        solve_rc(LossSpec.absolute(), NoiseDist.gaussian(0.0), 0.1)


def test_solve_rc_without_iterations_reports_the_start_residual():
    with pytest.raises(SolverFailureError, match="no convergence in 0 iterations") as info:
        solve_rc(LossSpec.pseudo_huber(3.0), GAUSS1, 0.2, max_iter=0)
    (start,) = info.value.residual_trace
    assert np.isfinite(start) and start > 0


def test_perturb_coeffs_squared_gaussian_exact():
    pc = perturb_coeffs(LossSpec.squared(), GAUSS1)
    assert pc.A2 == pytest.approx(1.0, abs=1e-12)
    assert pc.A4 == pytest.approx(0.0, abs=1e-12)
    assert pc.T1 == pytest.approx(1.0, abs=1e-12)
    assert pc.B1_hd == pytest.approx(1.0, rel=1e-12)
    assert pc.B2_hd == pytest.approx(1.0, rel=1e-12)
    assert pc.c1 == pytest.approx(1.0) and pc.c2 == pytest.approx(1.0)
    assert pc.r1 == pytest.approx(1.0) and pc.r2 == pytest.approx(1.0)
    ten = perturb_coeffs(LossSpec.squared(), NoiseDist.gaussian(10.0))
    assert ten.r1 == pytest.approx(10.0, rel=1e-12)
    assert ten.r2 == pytest.approx(10.0, rel=1e-10)


def test_perturb_coeffs_squared_laplace_ratio_one():
    for scale in (0.7, 1.0, 2.3):
        pc = perturb_coeffs(LossSpec.squared(), NoiseDist.laplace(scale))
        assert pc.ratio == pytest.approx(1.0, rel=1e-10)
        assert pc.r1 == pytest.approx(2 * scale * scale, rel=1e-10)


def test_plus_sign_variant_is_wrong_for_squared_loss():
    plus = perturb_coeffs(LossSpec.squared(), GAUSS1, b2_sign=+1)
    minus = perturb_coeffs(LossSpec.squared(), GAUSS1, b2_sign=-1)
    assert plus.r2 == pytest.approx(5.0, rel=1e-10)
    assert minus.r2 == pytest.approx(1.0, rel=1e-10)
    assert plus.r2 != minus.r2


@pytest.mark.parametrize("noise", [GAUSS1, NoiseDist.gaussian(10.0),
                                   NoiseDist.laplace(2 ** -0.5)],
                         ids=["gauss1", "gauss10", "laplace-var1"])
def test_pseudo_huber_moments_match_adaptive_oracle(noise):
    pc = perturb_coeffs(LossSpec.pseudo_huber(3.0), noise)
    a2, a4, t1, b1, b2, r1, r2 = quad_moment_oracle(LossSpec.pseudo_huber(3.0), noise)
    assert pc.A2 == pytest.approx(a2, rel=1e-9)
    assert pc.A4 == pytest.approx(a4, rel=1e-8, abs=1e-12)
    assert pc.T1 == pytest.approx(t1, rel=1e-9)
    assert pc.B1_hd == pytest.approx(b1, rel=1e-9)
    assert pc.B2_hd == pytest.approx(b2, rel=1e-9)
    assert pc.ratio == pytest.approx(r2 / r1, rel=1e-7)


def test_pseudo_huber_reference_ratios():
    # values computed by the adaptive oracle above and frozen
    assert perturb_coeffs(LossSpec.pseudo_huber(3.0), GAUSS1).ratio \
        == pytest.approx(0.98691, abs=2e-4)
    assert perturb_coeffs(LossSpec.pseudo_huber(3.0),
                          NoiseDist.gaussian(10.0)).ratio \
        == pytest.approx(0.94585, abs=2e-4)
    assert perturb_coeffs(LossSpec.pseudo_huber(3.0),
                          NoiseDist.laplace(2 ** -0.5)).ratio \
        == pytest.approx(1.30735, abs=2e-4)


@pytest.mark.parametrize("kappa", [0.5, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99])
@pytest.mark.parametrize("noise", [GAUSS1, NoiseDist.gaussian(10.0), _LAP],
                         ids=["gauss1", "gauss10", "laplace-var1"])
def test_absolute_solve_converges_up_to_kappa_one(noise, kappa):
    # high-dim fixed-N plans probe kappa up to 0.99 (planner._max_feasible_m)
    sol = solve_rc(LossSpec.absolute(), noise, kappa)
    assert float(np.hypot(*sol.residuals)) <= 1e-10
    assert sol.c > 0 and sol.r_squared > 0


def test_perturb_coeffs_rejects_absolute_loss():
    with pytest.raises(ConfigError):
        perturb_coeffs(LossSpec.absolute(), GAUSS1)


def test_series_validity_smooth_losses():
    for loss in (LossSpec.squared(), LossSpec.pseudo_huber(3.0)):
        pc = perturb_coeffs(loss, GAUSS1)
        for kappa in (0.01, 0.02, 0.05):
            sol = solve_rc(loss, GAUSS1, kappa)
            series = pc.r1 * kappa + pc.r2 * kappa ** 2
            assert abs(sol.r_squared - series) / sol.r_squared <= 10 * kappa ** 2


def test_absolute_series_gaussian():
    r1, r2 = absolute_series(GAUSS1)
    assert r1 == pytest.approx(np.pi / 2, rel=2e-3)
    # exact small-kappa coefficient ratio is 0.904; the quadratic fit on the
    # default grid carries O(kappa_max) window bias of about +0.01
    assert r2 / r1 == pytest.approx(0.904, abs=0.02)


def test_absolute_series_scale_invariance_of_ratio():
    r1a, r2a = absolute_series(NoiseDist.gaussian(4.0))
    r1b, r2b = absolute_series(GAUSS1)
    assert r1a == pytest.approx(4 * r1b, rel=1e-3)
    assert r2a / r1a == pytest.approx(r2b / r1b, rel=1e-3)


def test_absolute_series_ratio_does_not_depend_on_scale():
    # solved at the default tol=1e-10 the two ratios differed by 1.2e-4
    r1a, r2a = absolute_series(GAUSS1)
    r1b, r2b = absolute_series(NoiseDist.gaussian(10.0))
    assert r2b / r1b == pytest.approx(r2a / r1a, rel=1e-5)


def test_absolute_series_squared_loss_consistency_path():
    # the same grid-fit machinery applied to the squared-loss solutions must
    # recover r1 = r2 = sigma^2
    grid = np.geomspace(1e-3, 8e-3, 5)
    rho = np.array([solve_rc(LossSpec.squared(), GAUSS1, k).r_squared for k in grid])
    design = np.vstack([grid, grid ** 2]).T
    coef, *_ = np.linalg.lstsq(design, rho, rcond=None)
    assert coef[0] == pytest.approx(1.0, rel=1e-3)
    assert coef[1] == pytest.approx(1.0, rel=0.02)


def test_absolute_series_laplace_has_half_power_term():
    # For Laplace noise the density kink at 0, smoothed at scale r ~ sqrt(k),
    # puts a kappa^(3/2) term in r^2(kappa): (rho/k - 1)/sqrt(k) tends to
    # 2 sqrt(2/pi) =~ 1.596 as k -> 0.  A pure quadratic fit is therefore
    # window-dependent for this noise family (its coefficient is not the
    # kappa^2 Taylor coefficient).
    lap = NoiseDist.laplace(1.0)
    for kappa, tol in ((1e-4, 0.02), (1e-3, 0.06)):
        rho = solve_rc(LossSpec.absolute(), lap, kappa, tol=1e-13).r_squared
        half_coeff = (rho / kappa - 1.0) / np.sqrt(kappa)
        assert half_coeff == pytest.approx(2 * np.sqrt(2 / np.pi), rel=tol)
    r1, r2 = absolute_series(lap)
    assert r1 == pytest.approx(1.0, abs=0.1)
    assert r2 > 3  # window-dependent surrogate, far above any fixed constant


def test_absolute_series_grid_validation():
    with pytest.raises(ConfigError):
        absolute_series(GAUSS1, kappa_grid=[0.01, 0.02, 0.03])
    with pytest.raises(ConfigError):
        absolute_series(GAUSS1, kappa_grid=[0.02, 0.05, 0.08, 0.2])
    # four copies of one kappa fit nothing: the points must be distinct
    with pytest.raises(ConfigError, match="4 distinct"):
        absolute_series(GAUSS1, kappa_grid=[1e-3] * 4)
    with pytest.raises(ConfigError, match="4 distinct"):
        absolute_series(GAUSS1, kappa_grid=[1e-3, 2e-3, 2e-3, 4e-3, 4e-3])


def test_mse_ratio_first_order_examples():
    pc = perturb_coeffs(LossSpec.squared(), GAUSS1)  # ratio = 1
    assert mse_ratio_first_order(0.2, 1, pc) == 1.0
    assert mse_ratio_first_order(0.2, 10, pc) == pytest.approx(1.18)
    assert mse_ratio_first_order(0.2, 10 ** 9, pc) == pytest.approx(1.2, abs=1e-9)


@pytest.mark.parametrize("kappa", [0.0, 1.0, 2.5, -0.1, float("nan")])
def test_mse_ratio_first_order_rejects_kappa_outside_unit_interval(kappa):
    # as solve_rc does: the law is a statement about 0 < p/n < 1
    pc = perturb_coeffs(LossSpec.squared(), GAUSS1)
    with pytest.raises(ConfigError, match="kappa"):
        mse_ratio_first_order(kappa, 10, pc)


def test_mse_ratio_exact_squared():
    ratio = mse_ratio_exact(LossSpec.squared(), GAUSS1, 0.2, 10)
    assert ratio == pytest.approx((1 - 0.02) / (1 - 0.2), rel=1e-6)
    assert mse_ratio_exact(LossSpec.squared(), GAUSS1, 0.3, 1) == 1.0
    with pytest.raises(ConfigError, match="kappa"):  # m = 1 is validated like any m
        mse_ratio_exact(LossSpec.squared(), GAUSS1, 5.0, 1)


def test_mse_ratio_exact_close_to_first_order_at_small_kappa():
    exact = mse_ratio_exact(LossSpec.squared(), GAUSS1, 0.1, 10)
    first = mse_ratio_first_order(0.1, 10, perturb_coeffs(LossSpec.squared(), GAUSS1))
    assert abs(exact - first) <= 0.02


@pytest.mark.parametrize("loss", [LossSpec.squared(), LossSpec.pseudo_huber(3.0),
                                  LossSpec.absolute()], ids=lambda s: s.kind)
@pytest.mark.parametrize("noise", [GAUSS1, NoiseDist.laplace(2 ** -0.5)],
                         ids=["gauss1", "laplace-var1"])
def test_residual_jacobian_matches_central_differences(loss, noise):
    q = QuadratureSpec()
    fn = (_smooth_residual_fn(loss, noise, q) if loss.is_smooth
          else _absolute_residual_fn(noise, q))
    for c, rho, kappa in ((0.05, 0.04, 0.05), (0.5, 0.4, 0.3), (2.0, 1.5, 0.6)):
        _, jac = fn(c, rho, kappa)
        fd = np.empty((2, 2))
        for j, h in enumerate((1e-5 * c, 1e-5 * rho)):
            up, down = [c, rho], [c, rho]
            up[j] += h
            down[j] -= h
            fd[:, j] = (fn(*up, kappa)[0] - fn(*down, kappa)[0]) / (2 * h)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())


@pytest.mark.parametrize("loss", [LossSpec.squared(), LossSpec.pseudo_huber(3.0)],
                         ids=lambda s: s.kind)
def test_residual_jacobian_at_rho_zero_uses_stein(loss):
    # at rho = 0 the residuals live on the noise axis alone; the rho column is
    # E[h''(eps)] / 2, checked against a one-sided difference into rho > 0
    for noise in (GAUSS1, NoiseDist.laplace(2 ** -0.5)):
        fn = _smooth_residual_fn(loss, noise, QuadratureSpec())
        f0, jac = fn(0.2, 0.0, 0.1)
        h = 1e-7
        fd = (fn(0.2, h, 0.1)[0] - f0) / h
        np.testing.assert_allclose(jac[:, 1], fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())


# solve_rc(pseudo_huber(3), noise, kappa, tol=1e-13) as (c, r^2), frozen from
# the finite-difference-Jacobian solver this one replaced
FROZEN_HUBER_SOLUTIONS = {
    ("gauss1", 0.005): (0.005723971640892611, 0.005064074409479051),
    ("gauss1", 0.05): (0.05970855367417515, 0.05300840800926078),
    ("gauss1", 0.3): (0.4740820613207086, 0.43029602422708657),
    ("laplace", 0.005): (0.0056238355804157855, 0.004329326782935861),
    ("laplace", 0.05): (0.05879343507558034, 0.04595857950140339),
    ("laplace", 0.3): (0.4712618913530869, 0.3991493896122419),
}


@pytest.mark.parametrize("key", sorted(FROZEN_HUBER_SOLUTIONS), ids=str)
def test_solve_rc_matches_frozen_pseudo_huber_solutions(key):
    noise = GAUSS1 if key[0] == "gauss1" else NoiseDist.laplace(2 ** -0.5)
    c, r2 = FROZEN_HUBER_SOLUTIONS[key]
    sol = solve_rc(LossSpec.pseudo_huber(3.0), noise, key[1], tol=1e-13)
    assert sol.c == pytest.approx(c, rel=1e-9)
    assert sol.r_squared == pytest.approx(r2, rel=1e-9)
    assert max(abs(r) for r in sol.residuals) <= 1e-13


def test_solve_rc_contains_no_finite_differences():
    # every Newton step reuses the Jacobian of the residual evaluation that
    # accepted it: one prox call per step, none for differencing
    import splitavg.highdim as hd

    calls = []
    real = hd.prox_array

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    hd.prox_array = counting
    try:
        sol = solve_rc(LossSpec.pseudo_huber(3.0), GAUSS1, 0.2)
    finally:
        hd.prox_array = real
    assert max(abs(r) for r in sol.residuals) <= 1e-10
    assert len(calls) <= 6
    assert len(set(calls)) == len(calls)  # no repeated or nudged evaluations


def test_perturb_coeffs_evaluates_each_derivative_once(monkeypatch):
    import splitavg.highdim as hd

    orders = []
    real = hd.derivative_array
    monkeypatch.setattr(hd, "derivative_array",
                        lambda loss, t, k: orders.append(k) or real(loss, t, k))
    perturb_coeffs.cache_clear()
    perturb_coeffs(LossSpec.pseudo_huber(3.0), _LAP)
    perturb_coeffs(LossSpec.pseudo_huber(3.0), _LAP)  # cached: evaluates nothing
    assert orders == [1, 2, 3, 4]


def test_normal_cdf_matches_scipy_ndtr():
    # erfc(-x / sqrt(2)) first rounds x / sqrt(2), and erfc's relative condition number
    # there grows like x^2 (~1900 eps apart from scipy near -37.5), so the bound is
    # 4 eps (1 + x^2); measured at most ~2.1 eps (1 + x^2).  Below -37.5 scipy flushes to
    # zero what is subnormal.
    x = np.concatenate([np.linspace(-37.5, 37.5, 30001), [-1e-300, 1e-300]])
    got, ref = _ndtr(x), ndtr(x)
    assert _ndtr(np.zeros(1))[0] == 0.5 and got[-1] == got[-2] == 0.5
    np.testing.assert_array_less(np.abs(got - ref), 4 * np.finfo(float).eps * (1 + x * x) * ref)
    assert 0 < got[0] < 1e-307 and got[-3] == 1.0


# _absolute_residual_fn(gaussian(s2))(c, rho, kappa) as (f0, f1, J00, J01, J10, J11),
# frozen from the gaussian closed form (s = sqrt(s2 + rho), u = c / s)
FROZEN_GAUSSIAN_ABSOLUTE_RESIDUALS = {
    (1.0, 0.05, 0.0, 0.05): (0.010122388323255072, 0.002433526238076707, -0.7968878281895281,
                             0.019922195704738202, 0.09601223883232551, -0.049966779732731434),
    (1.0, 0.5, 0.4, 0.3): (-0.027396182558483417, 0.07478996172474814, -0.6167366403107255,
                           0.11013154291262957, 0.6726038174415165, -0.2809721375968793),
    (1.0, 2.0, 1.5, 0.6): (-0.1940967892679316, 0.7751382936483115, -0.22674330448995828,
                           0.09069732179598329, 0.8236128429282736, -0.25938981971198494),
    (1.0, 6.0, 20.0, 0.9): (0.090430263825524, -3.4535217157418714, -0.07388869581845026,
                            0.010555527974064323, 2.2851631659062877, -0.5337624387362255),
    (10.0, 0.05, 0.0, 0.05): (0.037384863022796644, 0.0024789744212880367,
                              -0.25228171501660596, 0.0006307042875415147,
                              0.09873848630227966, -0.0499989487736269),
    (10.0, 0.5, 0.4, 0.3): (0.17678708833654855, 0.10943164302242808, -0.2444575789156932,
                            0.005876384108550316, 0.8767870883365485, -0.2990158777943951),
    (10.0, 2.0, 1.5, 0.6): (0.15534631667142207, 1.887226766503892, -0.19772503732436705,
                            0.017193481506466702, 2.2213852666856884, -0.5507963913201561),
    (10.0, 6.0, 20.0, 0.9): (0.17332167829229805, -0.7505489311710107, -0.07994710556069332,
                             0.007994710556069332, 3.2798601395075764, -0.6530043116564579),
    # s = 1e-15: far below the r -> 0 cut-off that only Laplace noise may use
    (1e-30, 1e-15, 0.0, 0.5): (-0.18268949213708585, 5.160585509617133e-31,
                               -483941449038286.7, 2.4197072451914336e+29,
                               6.346210157258283e-16, -0.3012519569012009),
}


@pytest.mark.parametrize("key", sorted(FROZEN_GAUSSIAN_ABSOLUTE_RESIDUALS), ids=str)
def test_absolute_residuals_match_frozen_gaussian_closed_form(key):
    s2, c, rho, kappa = key
    f, jac = _absolute_residual_fn(NoiseDist.gaussian(s2), QuadratureSpec())(c, rho, kappa)
    got = np.concatenate([f, jac.ravel()])
    np.testing.assert_allclose(got, FROZEN_GAUSSIAN_ABSOLUTE_RESIDUALS[key], rtol=1e-10, atol=0)


@pytest.mark.parametrize("nodes", [16, 17, 64])
@pytest.mark.parametrize("loss", [LossSpec.squared(), LossSpec.pseudo_huber(0.5),
                                  LossSpec.pseudo_huber(3.0)], ids=str)
def test_even_loss_keeps_its_parity_on_the_compound_grid(loss, nodes):
    # the premise of the folded smooth solve, bit for bit: each grid holds -z
    # beside every node z (the second half is the first negated, with eta
    # reversed on the 2-D grid), the prox is odd with an even derivative, and
    # the loss derivatives of odd order are odd and of even order even
    for noise in (GAUSS1, _LAP):
        for r in (0.0, 0.7):
            z, _ = _compound_grid(noise, QuadratureSpec(nodes), r)
            rows = z.shape[0] // 2
            assert np.array_equal(z[rows:], -(z[:rows, ::-1] if r else z[:rows]))
            for c in (0.05, 1.3):
                prox, dprox = prox_array(loss, c, z)
                prox_neg, dprox_neg = prox_array(loss, c, -z)
                assert np.array_equal(prox_neg, -prox)
                assert np.array_equal(dprox_neg, dprox)
            for k in (1, 2, 3, 4):
                assert np.array_equal(derivative_array(loss, -z, k),
                                      (-1) ** k * derivative_array(loss, z, k))


def test_even_loss_solve_runs_the_prox_on_half_the_grid(monkeypatch):
    import splitavg.highdim as hd

    sizes = []
    real = hd.prox_array
    monkeypatch.setattr(hd, "prox_array",
                        lambda loss, c, z: sizes.append(z.size) or real(loss, c, z))
    q = QuadratureSpec(16)
    nodes = _compound_grid(GAUSS1, q, 1.0)[0].size
    solve_rc(LossSpec.pseudo_huber(3.0), GAUSS1, 0.2, q)
    assert sizes and set(sizes) == {nodes // 2}
    sizes.clear()
    solve_rc(LossSpec.logistic(), GAUSS1, 0.2, q)  # not even: the full grid
    assert sizes and set(sizes) == {nodes}


# (loss, noise, Gauss-Hermite nodes): float.hex of solve_rc(loss, noise, 0.2, q)'s
# (c, r, residuals) (the squared loss's exact law, read from no quadrature), then
# _smooth_residual_fn(loss, noise, q)(0.3, rho, 0.2)'s (f, J row by row) at rho = 0.25
# and rho = 0; pseudo_huber is delta = 3.
# Bitwise: a change of summation order or of the prox moves the last digit.
FROZEN_SMOOTH_SOLVER_HEX = {
    ('squared', 'gauss1', 16): (
        '0x1.0000000000000p-2', '0x1.0000000000000p-1', '0x0.0p+0', '0x1.0000000000000p-57',
        '-0x1.f81f81f81f840p-6', '0x1.0f736d5e3859cp-6', '-0x1.2ef5657dba51cp-1', '0x0.0p+0',
        '0x1.5d914db87485cp-2', '-0x1.2c88eff1753eap-3', '-0x1.f81f81f81f880p-6', '0x1.b442a6a0916bap-5',
        '-0x1.2ef5657dba51cp-1', '0x0.0p+0', '0x1.17a771605d37cp-2', '-0x1.2c88eff1753ebp-3',
    ),
    ('squared', 'gauss1', 64): (
        '0x1.0000000000000p-2', '0x1.0000000000000p-1', '0x0.0p+0', '0x1.0000000000000p-57',
        '-0x1.f81f81f81f860p-6', '0x1.0f736d5e3859cp-6', '-0x1.2ef5657dba51ap-1', '0x0.0p+0',
        '0x1.5d914db87485ap-2', '-0x1.2c88eff1753ecp-3', '-0x1.f81f81f81f880p-6', '0x1.b442a6a0916bap-5',
        '-0x1.2ef5657dba51cp-1', '0x0.0p+0', '0x1.17a771605d37cp-2', '-0x1.2c88eff1753ebp-3',
    ),
    ('squared', 'laplace', 16): (
        '0x1.0000000000000p-2', '0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0',
        '-0x1.f81f81f81f860p-6', '0x1.0f736d5e3856cp-6', '-0x1.2ef5657dba51cp-1', '0x0.0p+0',
        '0x1.5d914db87484ep-2', '-0x1.2c88eff1753eap-3', '-0x1.f81f81f81f840p-6', '0x1.b442a6a0916a0p-5',
        '-0x1.2ef5657dba51cp-1', '0x0.0p+0', '0x1.17a771605d36cp-2', '-0x1.2c88eff1753ebp-3',
    ),
    ('squared', 'laplace', 64): (
        '0x1.0000000000000p-2', '0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0',
        '-0x1.f81f81f81f880p-6', '0x1.0f736d5e38564p-6', '-0x1.2ef5657dba51cp-1', '0x0.0p+0',
        '0x1.5d914db87484ap-2', '-0x1.2c88eff1753ecp-3', '-0x1.f81f81f81f840p-6', '0x1.b442a6a0916a0p-5',
        '-0x1.2ef5657dba51cp-1', '0x0.0p+0', '0x1.17a771605d36cp-2', '-0x1.2c88eff1753ebp-3',
    ),
    ('pseudo_huber', 'gauss1', 16): (
        '0x1.1e3a640b36a61p-2', '0x1.00ab61fdfc8dcp-1', '0x0.0p+0', '0x1.0000000000000p-56',
        '-0x1.89a8955e7e600p-7', '0x1.a3dde8c4e2020p-8', '-0x1.2809153e0c3c4p-1', '0x1.a62704853df6dp-7',
        '0x1.3a4e90d28fc12p-2', '-0x1.4aa39027c0590p-3', '-0x1.f63786df900c0p-7', '0x1.7cda1d29154c0p-5',
        '-0x1.29d56487bbf2fp-1', '0x1.beb84bbc6e12dp-7', '0x1.00c64b69096fap-2', '-0x1.46030034e88b0p-3',
    ),
    ('pseudo_huber', 'gauss1', 64): (
        '0x1.1e3a640b36a5dp-2', '0x1.00ab61fdfc8dap-1', '0x0.0p+0', '0x0.0p+0',
        '-0x1.89a8955e7e680p-7', '0x1.a3dde8c4e2070p-8', '-0x1.2809153e0c3c1p-1', '0x1.a62704853df7ep-7',
        '0x1.3a4e90d28fc12p-2', '-0x1.4aa39027c059fp-3', '-0x1.f63786df900c0p-7', '0x1.7cda1d29154c0p-5',
        '-0x1.29d56487bbf2fp-1', '0x1.beb84bbc6e12dp-7', '0x1.00c64b69096fap-2', '-0x1.46030034e88b0p-3',
    ),
    ('pseudo_huber', 'laplace', 16): (
        '0x1.1b9ad8a4bda65p-2', '0x1.e84a18965591ep-2', '0x1.0668000000000p-40', '-0x1.c805400000000p-36',
        '-0x1.b0d0986823680p-7', '0x1.7575ec8a2be60p-9', '-0x1.27947896a401cp-1', '0x1.b4a5efacff8fcp-7',
        '0x1.29f78f7c607f7p-2', '-0x1.47a520c7dc292p-3', '-0x1.109c50db76a60p-6', '0x1.5c75976d1848ap-5',
        '-0x1.2922738accb33p-1', '0x1.cf06623951d73p-7', '0x1.debb8d4eed042p-3', '-0x1.427c33be539dap-3',
    ),
    ('pseudo_huber', 'laplace', 64): (
        '0x1.1b9ad8a4bda64p-2', '0x1.e84a189655909p-2', '0x1.0670000000000p-40', '-0x1.c805300000000p-36',
        '-0x1.b0d0986823740p-7', '0x1.7575ec8a2bc30p-9', '-0x1.27947896a401bp-1', '0x1.b4a5efacff8f8p-7',
        '0x1.29f78f7c607eep-2', '-0x1.47a520c7dc294p-3', '-0x1.109c50db76a60p-6', '0x1.5c75976d1848ap-5',
        '-0x1.2922738accb33p-1', '0x1.cf06623951d73p-7', '0x1.debb8d4eed042p-3', '-0x1.427c33be539dap-3',
    ),
    ('logistic', 'gauss1', 16): (
        '0x1.7da5cbc8b919ep+0', '0x1.93aa2c054cbf1p+0', '0x1.0000000000000p-52', '0x1.0000000000000p-53',
        '0x1.2476f79051e78p-3', '-0x1.a76462bdab370p-6', '-0x1.74318641cacf9p-3', '0x1.d2ebe08f07746p-8',
        '0x1.373c88fe0fe68p-3', '-0x1.941f6ca40ebbep-3', '0x1.209e1e408fa98p-3', '0x1.803b0873f9bd6p-6',
        '-0x1.7ede7d3991f5fp-3', '0x1.03ce22e43309ap-7', '0x1.2d6647530d4a9p-3', '-0x1.937a770508421p-3',
    ),
    ('logistic', 'gauss1', 64): (
        '0x1.7da5cbdda38c7p+0', '0x1.93aa2c19a4c35p+0', '0x1.0000000000000p-53', '0x1.8000000000000p-53',
        '0x1.2476f79051e70p-3', '-0x1.a76462bdab342p-6', '-0x1.74318641cacf3p-3', '0x1.d2ebe08f0773cp-8',
        '0x1.373c88fe0fe77p-3', '-0x1.941f6ca40ebbcp-3', '0x1.209e1e408fa98p-3', '0x1.803b0873f9bd6p-6',
        '-0x1.7ede7d3991f5fp-3', '0x1.03ce22e43309ap-7', '0x1.2d6647530d4a9p-3', '-0x1.937a770508421p-3',
    ),
    ('logistic', 'laplace', 16): (
        '0x1.79d5f9fcc457fp+0', '0x1.8e35d2ec6afbep+0', '-0x1.0000000000000p-52', '0x0.0p+0',
        '0x1.221d8edbc4ba4p-3', '-0x1.aeb12f9448a08p-6', '-0x1.79c6c4de3fb81p-3', '0x1.03e71dec8cf6cp-7',
        '0x1.314dbc2d85efap-3', '-0x1.9372c9eb3e3c1p-3', '0x1.1dcac610ad9a0p-3', '0x1.775bdaac6ee78p-6',
        '-0x1.853d1a4d410bfp-3', '0x1.26e39f54ce80fp-7', '0x1.264ace74eda02p-3', '-0x1.92904df4a785cp-3',
    ),
    ('logistic', 'laplace', 64): (
        '0x1.79d5fa64bf059p+0', '0x1.8e35d3acccdd2p+0', '0x0.0p+0', '-0x1.0000000000000p-53',
        '0x1.221d8edbc4b98p-3', '-0x1.aeb12f9448a7ep-6', '-0x1.79c6c4de3fb82p-3', '0x1.03e71dec8cf39p-7',
        '0x1.314dbc2d85ecep-3', '-0x1.9372c9eb3e3bap-3', '0x1.1dcac610ad9a0p-3', '0x1.775bdaac6ee78p-6',
        '-0x1.853d1a4d410bfp-3', '0x1.26e39f54ce80fp-7', '0x1.264ace74eda02p-3', '-0x1.92904df4a785cp-3',
    ),
    ('squared', 'noiseless', 16): (
        '0x1.0000000000000p-2', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '-0x1.f81f81f81f840p-6', '-0x1.2c88eff1753eap-5', '-0x1.2ef5657dba51cp-1', '0x0.0p+0',
        '0x1.17a771605d37fp-4', '-0x1.2c88eff1753eap-3', '-0x1.f81f81f81f840p-6', '0x0.0p+0',
        '-0x1.2ef5657dba51cp-1', '0x0.0p+0', '0x0.0p+0', '-0x1.2c88eff1753ebp-3',
    ),
}


_PIN_LOSSES = {"squared": LossSpec.squared(), "pseudo_huber": LossSpec.pseudo_huber(3.0),
               "logistic": LossSpec.logistic()}
_PIN_NOISES = {"gauss1": GAUSS1, "laplace": _LAP, "noiseless": NoiseDist.gaussian(0.0)}


@pytest.mark.parametrize("key", list(FROZEN_SMOOTH_SOLVER_HEX), ids=str)
def test_smooth_solver_is_bitwise_frozen(key):
    loss, noise, q = _PIN_LOSSES[key[0]], _PIN_NOISES[key[1]], QuadratureSpec(key[2])
    sol = solve_rc(loss, noise, 0.2, q)
    got = [sol.c, sol.r, *sol.residuals]
    fn = _smooth_residual_fn(loss, noise, q)
    for rho in (0.25, 0.0):
        f, jac = fn(0.3, rho, 0.2)
        got += [*f, *jac.ravel()]
    assert [float(v).hex() for v in got] == list(FROZEN_SMOOTH_SOLVER_HEX[key])
